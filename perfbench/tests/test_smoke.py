"""The runner at toy sizes: every named metric, with its unit, and no failed check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_names_match_the_runner():
    import probes
    import run

    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(probes.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric_and_no_failure(workload, trace, key):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
    assert "error_rate = 0 ratio" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "census_desk", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
