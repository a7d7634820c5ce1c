"""Benchmark runner for primecensus.

    python3 perfbench/run.py --workload census_deep --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` runs the timed passes and prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass plus the per-layer
probes, prints the per-layer metrics and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process, so peak memory never carries over.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("census_desk", "census_deep", "census_deep_w2", "analysis_450k")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("mints_per_s", "Mint/s"),
    ("projected_full_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Set-up runs at least SETUP_MIN_REPEATS times and for at least
# SETUP_MIN_SECONDS, and setup_s is the median: the 0.1 s desk set-up gets
# about 25 samples, the 2.5 s deep set-up three.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def release_free_heap():
    """Hand free malloc memory back to the OS (glibc only).

    How much of the heap the set-up frees but keeps depends on the seeded
    sizes, and pool children forked later inherit it: without this,
    census_deep_w2's peak_rss_mb moved by up to 17 MB from seed to seed.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"  # not a git checkout


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "primecensus").glob("*.py"))),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=30).stdout
        facts["caches"] = {
            key: int(value)
            for key, *rest in (line.split() for line in out.splitlines() if "CACHE_SIZE" in line)
            for value in rest[:1]
            if value.isdigit()
        }
    except (OSError, subprocess.SubprocessError):
        facts["caches"] = {}
    return facts


def one_pass(w, tracer=None):
    """Run one pass and its checks; returns (wall seconds, attempted, failed).

    A pass that raises counts every one of its checks as failed.
    """
    from probes import LAYER_TARGETS
    from tracing import span

    wrap = nullcontext() if tracer is None else tracer.wrap(LAYER_TARGETS)
    t0 = perf_counter()
    try:
        with wrap, span(tracer, "pass"):
            out = w.run_pass(tracer)
        wall = perf_counter() - t0
        results = w.check(out)
    except Exception:
        traceback.print_exc()
        return perf_counter() - t0, w.checks_per_pass, w.checks_per_pass
    for name, ok in results:
        if not ok:
            print(f"check failed: {w.name}: {name}", file=sys.stderr)
    return wall, len(results), sum(not ok for _, ok in results)


def timed_run(w, seconds):
    from workloads import FULL_X

    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        w.setup()
        setups.append(perf_counter() - t0)
    w.prepare_checks()
    release_free_heap()
    walls, attempted, failed = [], 0, 0
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        gc.collect()
        wall, a, f = one_pass(w)
        walls.append(wall)
        attempted += a
        failed += f
    wall_s = statistics.median(walls)
    mints_per_s = w.ints_per_pass / 1e6 / wall_s
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "mints_per_s": mints_per_s,
        "projected_full_s": FULL_X**2 / (mints_per_s * 1e6),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"  {len(setups)} set-ups, {len(walls)} timed passes")
    return metrics, attempted, failed


def traced_run(w, trace_path):
    import probes
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("setup"):
        w.setup(tracer)
    w.prepare_checks()
    untraced_wall, a1, f1 = one_pass(w)
    traced_wall, a2, f2 = one_pass(w, tracer)
    with tracer.span("probes"):
        metrics = probes.census_probes(w, tracer)
        metrics.update(probes.oracle_probes(w, tracer))
        path = w.census_for_readers(tracer)
        metrics.update(probes.reader_probes(path, tracer))
        codes = probes.missing_cli_steps(w, path, tracer)
    metrics.update(probes.cli_metrics(tracer))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    tracer.write(trace_path, extra={"workload": w.name, "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall})
    return metrics, a1 + a2 + len(codes), f1 + f2 + sum(code != 0 for code in codes)


def run_workload(args) -> int:
    import workloads
    from probes import PER_LAYER

    scale = workloads.TOY if args.scale == "toy" else workloads.FULL
    state_dir = ROOT / ".perfbench"
    workdir = state_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, scale, workdir)
    print(f"{w.name} seed={args.seed} scale={args.scale} trace={args.trace}")
    try:
        if args.trace:
            names = PER_LAYER
            trace_path = state_dir / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed = traced_run(w, trace_path)
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            names = END_TO_END
            metrics, attempted, failed = timed_run(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts()
    for name, unit in names:
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} checks failed)")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=1800)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="measure passes for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full", help="toy sizes are for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "primecensus" / "__init__.py").is_file():
        print(f"error: {SRC / 'primecensus'} not found; run from a primecensus checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
