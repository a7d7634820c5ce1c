"""The four benchmark workloads: seeded inputs, set-up, one timed pass, checks.

Every input is a pure function of the workload seed (``desk_stop``,
``deep_slice``, ``synthetic_counts``), so two runs with one seed feed the
program byte-identical inputs.  A pass runs only program calls; the
reference values its checks compare against are computed outside it.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import fsum

import numpy as np

from primecensus import census, cli, storage
from primecensus.pi_oracle import count_in_range_oracle, prime_pi
from tracing import span

FULL_X = 449_999  # top of the paper's census
# The published custom_ratio and difference_line constants; the synthetic
# census follows this ratio curve, and the checks recompute both AREs
# from these numbers without going through the program's models.
K_SLOPE, K_INTERCEPT = 2.0038, -1.0932
D_SLOPE, D_INTERCEPT = 0.0755, 1018.8
JITTER = 0.05  # +-5% on every synthetic count step
ARE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Scale:
    desk_n: int
    deep_first: tuple  # inclusive range the deep slice start is drawn from
    deep_len: int
    analysis_n: int
    analysis_engine_n: int  # rows up to here come from the census engine
    # How far the ratio fit of the synthetic census may land from the curve
    # it follows, as (k_slope, k_intercept).  The true counts of the engine
    # rows and the jitter move it: at full scale by about 1e-3 and 1e-2
    # over seeds 1-3; at toy scale, where engine rows are a tenth of the
    # census, by about 0.07 and 0.5.
    fit_tolerance: tuple


FULL = Scale(desk_n=40_000, deep_first=(430_000, 449_600), deep_len=400, analysis_n=FULL_X, analysis_engine_n=10_000,
             fit_tolerance=(0.01, 0.1))
TOY = Scale(desk_n=500, deep_first=(2_990, 3_010), deep_len=5, analysis_n=2_001, analysis_engine_n=200,
            fit_tolerance=(0.15, 1.0))


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, stream])


def desk_stop(seed: int, n: int) -> int:
    """Where the interrupted desk sweep stops: uniform in [n/4, 3n/4]."""
    return int(_rng(seed, 1).integers(n // 4, 3 * n // 4 + 1))


def deep_slice(seed: int, scale: Scale):
    """(A, B) of the deep slice; both deep workloads share it."""
    lo, hi = scale.deep_first
    a = int(_rng(seed, 2).integers(lo, hi + 1))
    return a, a + scale.deep_len - 1


def sample_xs(seed: int, lo: int, hi: int, k: int):
    """k distinct x in [lo, hi], ascending: rows checked against the oracle."""
    return sorted(int(x) for x in _rng(seed, 3).choice(np.arange(lo, hi + 1), size=k, replace=False))


def synthetic_counts(seed: int, scale: Scale) -> np.ndarray:
    """Counts for x = 2..analysis_n.

    Rows up to analysis_engine_n are the engine's true counts.  Beyond
    that a seeded walk adds, per x, the custom_ratio curve's increment
    times (1 + jitter), so counts rise strictly and every difference is
    positive.
    """
    engine = [r.prime_count for r in census.census_sweep(scale.analysis_engine_n)]
    x = np.arange(scale.analysis_engine_n, scale.analysis_n + 1, dtype=np.float64)
    curve = (x * x - x) / (K_SLOPE * np.log(x) + K_INTERCEPT)
    jitter = _rng(seed, 4).uniform(-JITTER, JITTER, size=len(x) - 1)
    steps = np.maximum(np.rint(np.diff(curve) * (1.0 + jitter)), 1).astype(np.int64)
    walk = engine[-1] + np.cumsum(steps)
    return np.concatenate([np.asarray(engine, dtype=np.int64), walk])


def census_csv(counts: np.ndarray) -> bytes:
    """Census CSV text for x = 2.. with the given counts."""
    xs = range(2, len(counts) + 2)
    body = "".join(f"{x},{x * x},{c}\n" for x, c in zip(xs, counts.tolist()))
    return (census.CENSUS_HEADER + "\n" + body).encode("ascii")


# ---------------------------------------------------------------------------
# CLI steps
# ---------------------------------------------------------------------------


DESK_STEPS = ("census_stop", "census_resume")


def desk_steps(n, out, checkpoint, stop_after):
    common = ["--out", str(out), "--checkpoint", str(checkpoint), "--workers", "1"]
    stop, resume = DESK_STEPS
    return [
        (stop, ["census", "--max-x", str(n), *common, "--stop-after", str(stop_after)]),
        (resume, ["census", *common, "--resume"]),
    ]


def analysis_steps(census_path, rows_out, svg_out):
    c = ["--census", str(census_path)]
    return [
        ("evaluate_all", ["evaluate", *c, "--models", "all", "--format", "csv"]),
        ("evaluate_difference", ["evaluate", *c, "--models", "difference_line", "--format", "csv"]),
        ("evaluate_rows", ["evaluate", *c, "--models", "custom_ratio", "--format", "csv", "--out", str(rows_out)]),
        ("fit_ratio", ["fit", *c, "--target", "ratio"]),
        ("plot_compare", ["plot", *c, "--kind", "compare", "--models", "all", "--out", str(svg_out)]),
    ]


def run_cli(tracer, step, argv):
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with span(tracer, f"cli.{step}"), redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors exit instead of returning
            code = exc.code if isinstance(exc.code, int) else 1
    if code != 0:
        print(f"{step}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CensusDesk:
    """Interrupted then resumed ``census --max-x N`` through the CLI."""

    name = "census_desk"
    checks_per_pass = 4
    workers = 1

    def __init__(self, seed, scale, workdir):
        self.n = scale.desk_n
        self.stop_after = desk_stop(seed, self.n)
        self.sample = sample_xs(seed, 2, self.n, 4)
        self.csv = workdir / "desk.csv"
        self.checkpoint = workdir / "desk.ck"
        self.workdir = workdir
        self.ints_per_pass = self.n * self.n
        # Census-layer probes: the sweep this workload runs, and the fresh
        # desk-scale range the writer and resume probes use.
        self.sweep_args = (self.n, 2, None)
        self.fresh = (self.n, self.stop_after)
        self.oracle_n = self.n * self.n
        self.verify_xs = self.sample
        self.native_steps = list(DESK_STEPS)

    def setup(self, tracer=None):
        """pi(N**2), which the final checkpoint must hold."""
        with span(tracer, "pi_oracle.prime_pi"):
            self.pi_square = prime_pi(self.oracle_n)

    def prepare_checks(self):
        # The sampled x are seeded and their oracle cost grows with x, so
        # they stay out of set-up to keep setup_s the same across seeds.
        self.expected = {x: count_in_range_oracle(x) for x in self.sample}
        reference = self.workdir / "desk-reference.csv"
        census.run_census(self.n, reference)
        self.reference_digest = hashlib.sha256(reference.read_bytes()).hexdigest()
        reference.unlink()

    def run_pass(self, tracer=None):
        for path in (self.csv, self.checkpoint):
            path.unlink(missing_ok=True)
        steps = desk_steps(self.n, self.csv, self.checkpoint, self.stop_after)
        return [run_cli(tracer, step, argv)[0] for step, argv in steps]

    def check(self, codes):
        data = self.csv.read_bytes()
        lines = data.split(b"\n")  # lines[x - 1] is the row for x
        checkpoint = census.read_checkpoint(self.checkpoint)
        return [
            ("every command exits 0", codes == [0, 0]),
            ("resumed CSV is byte-identical to an uninterrupted sweep",
             hashlib.sha256(data).hexdigest() == self.reference_digest),
            ("sampled rows equal count_in_range_oracle",
             all(lines[x - 1] == f"{x},{x * x},{c}".encode() for x, c in self.expected.items())),
            ("checkpoint holds pi(N**2)",
             checkpoint.last_completed_x == self.n and checkpoint.cumulative_pi_at_square == self.pi_square),
        ]

    def census_for_readers(self, tracer=None):
        return self.csv


class CensusDeep:
    """``census_sweep`` over a 400-x slice at full-scale offsets."""

    checks_per_pass = 2

    def __init__(self, seed, scale, workdir, workers=1):
        self.name = "census_deep" if workers == 1 else f"census_deep_w{workers}"
        self.workers = workers
        self.a, self.b = deep_slice(seed, scale)
        self.workdir = workdir
        self.ints_per_pass = self.b * self.b - (self.a - 1) ** 2
        # The slice does not start at x = 2, so the writer, resume and kernel
        # probes use the analysis census's engine range instead.
        fresh_n = scale.analysis_engine_n
        self.fresh = (fresh_n, desk_stop(seed, fresh_n))
        self.oracle_n = (self.a - 1) ** 2
        self.verify_xs = [self.b]
        self.native_steps = []
        self.rows = None

    def setup(self, tracer=None):
        """The oracle seed pi((A-1)**2) the sweep resumes from."""
        with span(tracer, "pi_oracle.prime_pi"):
            self.cum_pi = prime_pi(self.oracle_n)
        self.sweep_args = (self.b, self.a, self.cum_pi)

    def prepare_checks(self):
        self.expected_last = count_in_range_oracle(self.b)

    def run_pass(self, tracer=None):
        with span(tracer, "census.census_sweep"):
            self.rows = list(census.census_sweep(self.b, workers=self.workers, start_x=self.a, cum_pi_start=self.cum_pi))
        return self.rows

    def check(self, rows):
        # The counts chain through every segment, so the last row checks
        # every segment total in the slice.
        return [
            ("rows cover A..B in order", [r.x for r in rows] == list(range(self.a, self.b + 1))),
            ("last row equals count_in_range_oracle(B)", rows[-1].prime_count == self.expected_last),
        ]

    def census_for_readers(self, tracer=None):
        path = self.workdir / "deep.csv"
        with span(tracer, "storage.write_census"):
            storage.write_census(self.rows, path)
        return path


class Analysis:
    """The five downstream CLI commands on a seeded 450k-row census."""

    name = "analysis_450k"
    workers = 1

    def __init__(self, seed, scale, workdir):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.csv = workdir / "analysis.csv"
        self.rows_out = workdir / "analysis-rows.csv"
        self.svg = workdir / "analysis-compare.svg"
        self.steps = analysis_steps(self.csv, self.rows_out, self.svg)
        self.checks_per_pass = len(self.steps) + 6
        self.ints_per_pass = scale.analysis_n**2
        engine_n = scale.analysis_engine_n
        self.sweep_args = (engine_n, 2, None)
        self.fresh = (engine_n, desk_stop(seed, engine_n))
        self.oracle_n = engine_n * engine_n
        self.verify_xs = sample_xs(seed, 2, engine_n, 3)
        self.native_steps = [step for step, _ in self.steps]

    def setup(self, tracer=None):
        """Generate and write the synthetic census."""
        with span(tracer, "synthetic_census"):
            self.counts = synthetic_counts(self.seed, self.scale)
            self.csv.write_bytes(census_csv(self.counts))

    def prepare_checks(self):
        x = np.arange(2, len(self.counts) + 2, dtype=np.float64)
        c = self.counts.astype(np.float64)
        ratio_pred = (x * x - x) / (K_SLOPE * np.log(x) + K_INTERCEPT)
        self.expected_ratio_are = fsum(np.abs(ratio_pred - c) / c) / len(c)
        d = np.diff(self.counts).astype(np.float64)  # count(x) - count(x-1), x >= 3
        diff_pred = D_SLOPE * x[1:] + D_INTERCEPT
        self.expected_difference_are = fsum(np.abs(diff_pred - d) / d) / len(d)

    def run_pass(self, tracer=None):
        return {step: run_cli(tracer, step, argv) for step, argv in self.steps}

    def check(self, results):
        checks = [(f"{step} exits 0", results[step][0] == 0) for step, _ in self.steps]
        summary = {}
        for step in ("evaluate_all", "evaluate_difference", "evaluate_rows"):
            for line in results[step][1].splitlines()[1:]:
                kind, n, are, *tally = line.split(",")
                summary[(step, kind)] = (int(n), float(are), [int(t) for t in tally])
        rows = len(self.counts)

        def close(value, expected):
            return abs(value - expected) <= ARE_REL_TOL * abs(expected)

        checks.append(("custom_ratio ARE matches numpy recomputation",
                       close(summary[("evaluate_all", "custom_ratio")][1], self.expected_ratio_are)
                       and close(summary[("evaluate_rows", "custom_ratio")][1], self.expected_ratio_are)))
        checks.append(("difference_line ARE matches numpy recomputation",
                       close(summary[("evaluate_difference", "difference_line")][1], self.expected_difference_are)))
        checks.append(("tallies sum to n",
                       len(summary) == 8 and all(sum(t) == n for n, _, t in summary.values())
                       and summary[("evaluate_all", "custom_ratio")][0] == rows))
        with open(self.rows_out, "rb") as fh:
            checks.append(("evaluation rows file has one line per row", sum(1 for _ in fh) == rows + 1))
        checks.append(("compare SVG has 7 polylines", self.svg.read_text().count("<polyline") == 7))
        fitted = dict(line.split("=", 1) for line in results["fit_ratio"][1].splitlines() if "=" in line)
        slope_tol, intercept_tol = self.scale.fit_tolerance
        checks.append(("ratio fit recovers the generator's constants",
                       abs(float(fitted["custom_ratio.k_slope"]) - K_SLOPE) <= slope_tol
                       and abs(float(fitted["custom_ratio.k_intercept"]) - K_INTERCEPT) <= intercept_tol))
        return checks

    def census_for_readers(self, tracer=None):
        return self.csv


WORKLOADS = {
    "census_desk": CensusDesk,
    "census_deep": lambda seed, scale, workdir: CensusDeep(seed, scale, workdir, workers=1),
    "census_deep_w2": lambda seed, scale, workdir: CensusDeep(seed, scale, workdir, workers=2),
    "analysis_450k": Analysis,
}
