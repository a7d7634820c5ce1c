"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 8 is the
full-scale gate (a quarter hour or more of sieving) and only runs when
PRIMECENSUS_FULL_SCALE=1; it compares the census with the digest in
``full_scale_golden.json``.
"""

import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from primecensus import (
    census_sweep,
    count_in_range_oracle,
    evaluate_difference_model,
    evaluate_model,
    fit_log_linear,
    model_spec,
    pi_prefix,
    predict,
    ratio_series,
    read_census,
    render,
    run_census,
)
from primecensus.census import CENSUS_HEADER, encode_census_row
from primecensus.cli import format_percent, main
from primecensus.evaluation import ratio_arrays, score
from primecensus.models import COUNT_MODEL_KINDS
from primecensus.plotting import PlotConfig

from census_codec import decode_counts, encode_counts
from pi_reference import naive_pi_table

SMALL_TABLE_ROWS = [
    (2, 2), (3, 3), (4, 4), (5, 7), (6, 8), (7, 12), (8, 14), (9, 18), (10, 21),
    (11, 26), (12, 29), (13, 34), (14, 38), (15, 42), (16, 48), (17, 55),
    (18, 59), (19, 65), (20, 70), (21, 77), (22, 84),
]

GOLDEN_1347 = {
    731: 44026, 768: 48205, 783: 49949, 858: 59100, 860: 59353, 901: 64666,
    922: 67469, 923: 67604, 1008: 79521, 1010: 79812, 1012: 80104, 1078: 90007,
    1111: 95158, 1117: 96109, 1190: 108032, 1273: 122372, 1347: 135856,
}

# Desk-scale average relative errors over x in [2, 1e4], pinned as regression
# constants from the engine's own output (see criterion 7).
DESK_SCALE_ARE = {
    "hyperbolic": 0.03440536118181869,
    "power_series": 0.03446324285322579,
    "polynomial": 0.9920036378551935,
    "conic": 0.9920036378551935,
    "custom_ratio": 0.0013748956942083853,
    "bertrand": 0.9993939906887491,
}


def _report(number, label):
    print(f"\n[acceptance {number}] {label}: PASS")


def test_criterion_1_small_table_rows(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "t22.csv"
    assert main(["census", "--max-x", "22", "--out", str(out)]) == 0
    rows = [(r.x, r.prime_count) for r in read_census(out)]
    assert rows == SMALL_TABLE_ROWS
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        _report(1, f"census --max-x 22 reproduces all 21 small rows exactly ({elapsed:.2f}s)")


def test_criterion_2_golden_floor_matches(capsys):
    started = time.perf_counter()
    by_x = {r.x: r.prime_count for r in census_sweep(1347)}
    for x, expected in GOLDEN_1347.items():
        assert by_x[x] == expected, f"census count at x={x}"
        assert math.floor(predict(x, model_spec("custom_ratio"))) == expected, f"floor(prediction) at x={x}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        _report(2, f"17 golden rows match census and floor(custom_ratio) ({elapsed:.2f}s)")


def test_criterion_3_model_point_values(capsys):
    x = 140001
    assert predict(x, model_spec("power_series")) == pytest.approx(870607669.3, rel=1e-6)
    assert predict(x, model_spec("conic")) == pytest.approx(865796268.5, rel=1e-6)
    assert predict(x, model_spec("custom_ratio")) == pytest.approx(865323992, rel=1e-6)
    assert predict(x, model_spec("bertrand")) == pytest.approx(17.09507761, abs=1e-6)
    assert predict(x, model_spec("hyperbolic")) == pytest.approx(870497682.6, rel=1e-3)
    assert predict(x, model_spec("polynomial")) == pytest.approx(707139663.2, abs=0.05)
    with capsys.disabled():
        _report(3, "six model point values at x=140001 within stated tolerances")


def test_criterion_4_percent_roundings(reference_140k_rows, capsys):
    row = reference_140k_rows[0]
    assert (row.x, row.prime_count) == (140001, 865334106)
    expected = {
        "hyperbolic": "0.60%",
        "power_series": "0.61%",
        "conic": "0.05%",
        "custom_ratio": "0.00%",
        "bertrand": "100.00%",
    }
    for kind, wanted in expected.items():
        (relative_error,) = score([row], model_spec(kind)).relative_error.tolist()
        assert format_percent(relative_error) == wanted, kind
    with capsys.disabled():
        _report(4, "relative errors at x=140001 format to 0.60/0.61/0.05/0.00/100.00 percent")


def test_criterion_5_oracle_equivalence(census_10k, capsys):
    started = time.perf_counter()
    limit = 10**6
    assert np.array_equal(pi_prefix(limit), naive_pi_table(limit)), \
        "combinatorial pi disagrees with the trial sieve somewhere in 0..1e6"
    import random

    rng = random.Random(5000)
    sampled = rng.sample(census_10k[:4999], 200)  # rows with x <= 5000
    for record in sampled:
        assert count_in_range_oracle(record.x) == record.prime_count, record
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        _report(5, f"pi matches the sieve for all n<=1e6 and 200 census rows cross-check ({elapsed:.1f}s)")


def test_criterion_6_determinism(tmp_path, capsys):
    started = time.perf_counter()
    digests = set()
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}.csv"
        assert main(["census", "--max-x", "5000", "--out", str(out), "--workers", str(workers)]) == 0
        digests.add(out.read_bytes())
    assert len(digests) == 1, "worker count changed the output bytes"
    split = tmp_path / "split.csv"
    ck = tmp_path / "ck"
    assert main(["census", "--max-x", "5000", "--out", str(split),
                 "--checkpoint", str(ck), "--stop-after", "2500"]) == 0
    assert main(["census", "--out", str(split), "--checkpoint", str(ck), "--resume"]) == 0
    assert split.read_bytes() == digests.pop()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        _report(6, f"byte-identical output across workers 1/2/8 and across interrupt+resume ({elapsed:.1f}s)")


def test_criterion_7_desk_scale_are_regression(census_10k, capsys):
    started = time.perf_counter()
    computed = {}
    for kind in COUNT_MODEL_KINDS:
        summary = evaluate_model(census_10k, model_spec(kind))
        computed[kind] = summary.average_relative_error
        assert summary.average_relative_error == pytest.approx(DESK_SCALE_ARE[kind], rel=1e-9), kind
    best = min(computed, key=computed.get)
    assert best == "custom_ratio"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        lines = ", ".join(f"{k}={format_percent(v)}" for k, v in computed.items())
        _report(7, f"pinned desk-scale AREs reproduced; custom_ratio smallest ({lines}) ({elapsed:.1f}s)")


def test_criterion_9_plot_structure(census_10k, capsys):
    rows = census_10k[:999]  # x = 2..1000
    specs = [model_spec(kind) for kind in COUNT_MODEL_KINDS]
    import xml.etree.ElementTree as ET

    expectations = [
        (PlotConfig(kind="count"), None, 1),
        (PlotConfig(kind="ratio"), None, 1),
        (PlotConfig(kind="difference"), None, 1),
        (PlotConfig(kind="compare"), specs, 1 + len(specs)),
    ]
    for config, models_arg, expected in expectations:
        first = render(rows, config, models=models_arg)
        root = ET.fromstring(first)  # parses as XML
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == expected, config.kind
        assert render(rows, config, models=models_arg) == first, f"{config.kind} not byte-stable"
    with capsys.disabled():
        _report(9, "count/ratio/difference/compare SVGs parse, with 1/1/1/7 polylines, byte-stable")


# ---------------------------------------------------------------------------
# Criterion 8: the full-scale gate (opt-in; a quarter hour or more)
# ---------------------------------------------------------------------------

FULL_SCALE = os.environ.get("PRIMECENSUS_FULL_SCALE") == "1"
# SHA-256, byte and row counts of the census to x = 449,999, and its rows
# at every x that is a multiple of 10,000 and at 449,999, each checked
# against count_in_range_oracle when the file was made.
FULL_SCALE_GOLDEN = json.loads((Path(__file__).parent / "full_scale_golden.json").read_text(encoding="ascii"))

FULL_SCALE_ARE = {
    "custom_ratio": 0.0001,
    "power_series": 0.0063,
    "hyperbolic": 0.0064,
    "conic": 0.0387,
    "polynomial": 0.2231,
    "bertrand": 1.0000,
}


@pytest.mark.skipif(
    not FULL_SCALE,
    reason="full-scale gate: set PRIMECENSUS_FULL_SCALE=1 and budget about 130 s with PRIMECENSUS_WORKERS=2 "
    "on a 2-core Xeon, about twice that with the default one worker "
    "(sieve to about 2.02e11; PRIMECENSUS_FULL_CENSUS can point at a finished CSV)",
)
def test_criterion_8_full_scale(tmp_path, capsys):
    n_max = 449_999
    prebuilt = os.environ.get("PRIMECENSUS_FULL_CENSUS")
    if prebuilt:
        census_path = Path(prebuilt)
    else:
        census_path = tmp_path / "census_449999.csv"
        run_census(
            n_max,
            census_path,
            checkpoint_path=str(census_path) + ".ck",
            workers=int(os.environ.get("PRIMECENSUS_WORKERS", "1")),
        )
    rows = read_census(census_path)
    assert rows[-1].x == n_max
    census_bytes = census_path.read_bytes()
    assert len(rows) == FULL_SCALE_GOLDEN["rows"]
    assert len(census_bytes) == FULL_SCALE_GOLDEN["bytes"]
    for sample in FULL_SCALE_GOLDEN["samples"]:
        assert list(rows[sample[0] - 2].tolist()) == sample
    assert hashlib.sha256(census_bytes).hexdigest() == FULL_SCALE_GOLDEN["sha256"]

    by_x = {r.x: r.prime_count for r in rows[312_000 - 2 : 312_500]}
    assert by_x[312_402] == 4_023_029_104

    measured = {}
    for kind, published in FULL_SCALE_ARE.items():
        measured[kind] = evaluate_model(rows, model_spec(kind)).average_relative_error
        assert measured[kind] == pytest.approx(published, abs=0.0005), kind

    difference = evaluate_difference_model(rows)
    assert difference.average_relative_error == pytest.approx(0.1201, abs=0.01)

    kappa_fit = fit_log_linear([(p.x, p.value) for p in ratio_series(rows)])
    assert kappa_fit.slope == pytest.approx(2.0038, abs=0.01)
    assert kappa_fit.intercept == pytest.approx(-1.0932, abs=0.01)
    with capsys.disabled():
        values = ", ".join(f"{kind}={are:.6f}" for kind, are in measured.items())
        _report(8, f"full-scale census matches its golden digest; AREs {values}; difference ARE "
                   f"{difference.average_relative_error:.6f}; ratio fit slope {kappa_fit.slope:.6f}, "
                   f"intercept {kappa_fit.intercept:.6f}")


def test_full_scale_golden_is_consistent():
    """The golden digest's own shape, and its two smallest rows against the
    oracle (the criterion 8 run checks the rest of it against the census)."""
    golden = FULL_SCALE_GOLDEN
    assert golden["n_max"] == 449_999 and golden["rows"] == golden["n_max"] - 1
    assert len(golden["sha256"]) == 64 and set(golden["sha256"]) <= set("0123456789abcdef")
    assert [s[0] for s in golden["samples"]] == [*range(10_000, 449_999, 10_000), 449_999]
    for x, x_squared, count in golden["samples"]:
        assert x_squared == x * x and x <= count < x_squared
    for x, _, count in golden["samples"][:2]:
        assert count_in_range_oracle(x) == count, x


# The full census, as ``census_codec`` packs it (made from
# ``census --max-x 449999 --workers 2``), and criterion 8's numbers on it
# to about nine digits, with each model's (exact, floor, ceil, none) tally.
FULL_CENSUS_FILE = Path(__file__).parent / "data" / "census_449999.i16.bz2"
FULL_SCALE_PINNED = {
    "hyperbolic": (0.006358248043161557, (0, 0, 1, 449_997)),
    "power_series": (0.006341355852489809, (0, 1, 0, 449_997)),
    "polynomial": (0.22310199619600682, (3, 0, 0, 449_995)),
    "conic": (0.038742974987714965, (3, 0, 0, 449_995)),
    "custom_ratio": (5.0268960808038335e-05, (0, 31, 27, 449_940)),
    "bertrand": (0.9999864730942358, (0, 0, 0, 449_998)),
    "difference_line": (0.12011597776468183, (0, 512, 509, 448_976)),
}
FULL_SCALE_RATIO_FIT = (2.0038012452467147, -1.0935563227046288)


def test_full_scale_analysis_on_the_committed_census(tmp_path):
    """Criterion 8's checks, tightened, on the committed census: no sieving."""
    first_x, counts = decode_counts(FULL_CENSUS_FILE.read_bytes())
    xs = np.arange(first_x, first_x + counts.size)
    rows_text = map(encode_census_row, zip(xs.tolist(), (xs * xs).tolist(), counts.tolist()))
    census_bytes = (CENSUS_HEADER + "\n").encode("ascii") + b"".join(rows_text)
    assert counts.size == FULL_SCALE_GOLDEN["rows"] and xs[-1] == FULL_SCALE_GOLDEN["n_max"]
    assert len(census_bytes) == FULL_SCALE_GOLDEN["bytes"]
    assert hashlib.sha256(census_bytes).hexdigest() == FULL_SCALE_GOLDEN["sha256"]
    census_path = tmp_path / "census_449999.csv"
    census_path.write_bytes(census_bytes)
    rows = read_census(census_path)
    for sample in FULL_SCALE_GOLDEN["samples"]:
        assert list(rows[sample[0] - 2].tolist()) == sample
    assert rows[312_402 - 2].prime_count == 4_023_029_104

    for kind, (are, tally) in FULL_SCALE_PINNED.items():
        if kind == "difference_line":
            summary = evaluate_difference_model(rows)
        else:
            summary = evaluate_model(rows, model_spec(kind))
            assert summary.average_relative_error == pytest.approx(FULL_SCALE_ARE[kind], abs=0.0005), kind
        assert summary.average_relative_error == pytest.approx(are, rel=1e-9), kind
        assert tuple(summary.tally().values()) == tally, kind
    fit = fit_log_linear(np.column_stack(ratio_arrays(rows.x, rows.prime_count)))
    assert (fit.slope, fit.intercept) == pytest.approx(FULL_SCALE_RATIO_FIT, rel=1e-9)

    for x in np.random.default_rng(8).integers(2, 450_000, 3).tolist():
        assert count_in_range_oracle(x) == rows[x - 2].prime_count, x


def test_census_codec_round_trip(census_10k):
    counts = np.array([r[2] for r in census_10k])
    first_x, decoded = decode_counts(encode_counts(census_10k[0][0], counts))
    assert first_x == 2 and np.array_equal(decoded, counts)
    with pytest.raises(ValueError):
        encode_counts(2, [0, 0, 2**15])
    with pytest.raises(ValueError):
        encode_counts(2, [5])
