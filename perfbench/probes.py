"""Per-layer probes for the traced run.

Each probe is one call into a layer's public function, timed by a span
recorded here, in the benchmark.  The census probes run on the workload's
own sweep range; the readers (storage, models, evaluation, fitting,
plotting) run on the census the workload produced or read.  CLI steps the
workload's pass does not run are run here, on that same census, so every
workload reports every per-layer metric.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from primecensus import census, cli, evaluation, fitting, models, plotting, storage
from primecensus.pi_oracle import count_in_range_oracle, prime_pi
from workloads import DESK_STEPS, analysis_steps, desk_steps, run_cli

# Layer entry points the CLI calls; during a traced pass each call gets a
# span, so a CLI step's self time is its glue and its own re-reads.
LAYER_TARGETS = (
    (census, "run_census", "census.run_census"),
    (cli, "evaluate_model", "evaluation.evaluate_model"),
    (cli, "evaluate_difference_model", "evaluation.evaluate_difference_model"),
    (evaluation, "ratio_series", "evaluation.ratio_series"),
    (fitting, "fit_log_linear", "fitting.fit_log_linear"),
    (storage, "read_census", "storage.read_census"),
    (plotting, "render_to_file", "plotting.render_to_file"),
)
ANALYSIS_STEPS = ("evaluate_all", "evaluate_difference", "evaluate_rows", "fit_ratio", "plot_compare")
CLI_STEPS = DESK_STEPS + ANALYSIS_STEPS

PER_LAYER = (
    [
        ("census.sweep_s", "s"),
        ("census.sweep_mints_per_s", "Mint/s"),
        ("census.first_record_s", "s"),
        ("census.sweep_cpu_s", "s"),
        ("census.pool_util", "ratio"),
        ("census.segments", "count"),
        ("census.rows", "count"),
        ("census.kernel_s", "s"),
        ("census.reduce_s", "s"),
        ("census.run_census_s", "s"),
        ("census.write_s", "s"),
        ("census.resume_validate_s", "s"),
        ("census.base_sieve_s", "s"),
        ("pi_oracle.prime_pi_s", "s"),
        ("pi_oracle.verify_s", "s"),
        ("storage.read_census_s", "s"),
        ("storage.read_rows_per_s", "1/s"),
        ("storage.census_bytes", "bytes"),
    ]
    + [(f"models.predict_s.{kind}", "s") for kind in models.ALL_MODEL_KINDS]
    + [(f"evaluation.evaluate_model_s.{kind}", "s") for kind in models.COUNT_MODEL_KINDS]
    + [
        ("evaluation.evaluate_difference_s", "s"),
        ("evaluation.ratio_series_s", "s"),
        ("evaluation.difference_series_s", "s"),
        ("evaluation.rows_per_s", "1/s"),
        ("fitting.fit_log_linear_s", "s"),
        ("fitting.fit_line_s", "s"),
        ("fitting.fit_power_s", "s"),
        ("fitting.fit_hyperbolic_z_s", "s"),
    ]
    + [(f"plotting.render_s.{kind}", "s") for kind in plotting.PLOT_KINDS]
    + [("plotting.svg_bytes", "bytes")]
    + [(f"cli.{step}_s", "s") for step in CLI_STEPS]
    + [(f"cli.{step}_self_s", "s") for step in CLI_STEPS]
    + [("trace.overhead_s", "s")]
)


def _timed(tracer, name, fn, *args, **kwargs):
    with tracer.span(name) as record:
        result = fn(*args, **kwargs)
    return result, record["end"] - record["start"]


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@contextmanager
def counting_segments(counter):
    """Count the segments census_sweep draws from ``census._segment_tasks``.

    The sweep, with or without the pool, reads its task generator in this
    process, so every yielded segment passes through here.
    """
    original = census._segment_tasks

    def counted(*args, **kwargs):
        for task in original(*args, **kwargs):
            counter[0] += 1
            yield task

    census._segment_tasks = counted
    try:
        yield
    finally:
        census._segment_tasks = original


def census_probes(w, tracer):
    n_max, start_x, cum_pi = w.sweep_args
    segments = [0]
    cpu0 = _cpu_s()
    with counting_segments(segments), tracer.span("census.census_sweep") as record:
        stream = census.census_sweep(n_max, workers=w.workers, start_x=start_x, cum_pi_start=cum_pi)
        next(stream)
        first_record_s = perf_counter() - record["start"]
        rows = 1 + sum(1 for _ in stream)
    sweep_s = record["end"] - record["start"]
    cpu_s = _cpu_s() - cpu0
    ints = n_max * n_max - (0 if start_x == 2 else (start_x - 1) ** 2)
    m = {
        "census.sweep_s": sweep_s,
        "census.sweep_mints_per_s": ints / 1e6 / sweep_s,
        "census.first_record_s": first_record_s,
        "census.sweep_cpu_s": cpu_s,
        "census.pool_util": cpu_s / (sweep_s * w.workers),
        "census.segments": segments[0],
        "census.rows": rows,
    }

    # Kernel, writer and resume probes on a fresh sweep from x = 2.
    fresh_n, _ = w.fresh
    if w.sweep_args == (fresh_n, 2, None) and w.workers == 1:
        fresh_sweep_s = sweep_s
    else:
        _, fresh_sweep_s = _timed(tracer, "census.census_sweep", lambda: sum(1 for _ in census.census_sweep(fresh_n)))
    _, kernel_s = _timed(tracer, "census.count_in_range", census.count_in_range, fresh_n)
    out, checkpoint = w.workdir / "probe.csv", w.workdir / "probe.ck"
    _, run_s = _timed(tracer, "census.run_census", census.run_census, fresh_n, out, checkpoint_path=checkpoint)
    _, resume_s = _timed(tracer, "census.run_census", census.run_census, None, out, checkpoint_path=checkpoint, resume=True)
    _, base_s = _timed(tracer, "census.sieve_flags", census.sieve_flags, n_max)
    m.update({
        "census.kernel_s": kernel_s,
        "census.reduce_s": fresh_sweep_s - kernel_s,
        "census.run_census_s": run_s,
        "census.write_s": run_s - fresh_sweep_s,
        "census.resume_validate_s": resume_s,
        "census.base_sieve_s": base_s,
    })
    return m


def oracle_probes(w, tracer):
    _, pi_s = _timed(tracer, "pi_oracle.prime_pi", prime_pi, w.oracle_n)
    verify = [_timed(tracer, "pi_oracle.count_in_range_oracle", count_in_range_oracle, x)[1] for x in w.verify_xs]
    return {"pi_oracle.prime_pi_s": pi_s, "pi_oracle.verify_s": sum(verify) / len(verify)}


def reader_probes(path, tracer):
    """storage, models, evaluation, fitting and plotting on one census file."""
    rows, read_s = _timed(tracer, "storage.read_census", storage.read_census, path)
    m = {
        "storage.read_census_s": read_s,
        "storage.read_rows_per_s": len(rows) / read_s,
        "storage.census_bytes": os.path.getsize(path),
    }
    xs = np.fromiter((r.x for r in rows), dtype=np.int64, count=len(rows))
    specs = {kind: models.model_spec(kind) for kind in models.ALL_MODEL_KINDS}
    for kind, spec in specs.items():
        m[f"models.predict_s.{kind}"] = _timed(tracer, "models.predict", models.predict, xs, spec)[1]

    evaluated = 0.0
    for kind in models.COUNT_MODEL_KINDS:
        _, m[f"evaluation.evaluate_model_s.{kind}"] = _timed(tracer, "evaluation.evaluate_model", evaluation.evaluate_model, rows, specs[kind])
        evaluated += m[f"evaluation.evaluate_model_s.{kind}"]
    _, m["evaluation.evaluate_difference_s"] = _timed(
        tracer, "evaluation.evaluate_difference_model", evaluation.evaluate_difference_model, rows)
    ratio, m["evaluation.ratio_series_s"] = _timed(tracer, "evaluation.ratio_series", evaluation.ratio_series, rows)
    diff, m["evaluation.difference_series_s"] = _timed(tracer, "evaluation.difference_series", evaluation.difference_series, rows)
    m["evaluation.rows_per_s"] = len(rows) * len(models.COUNT_MODEL_KINDS) / evaluated

    counts = [(r.x, r.prime_count) for r in rows]
    for fit, points in (
        (fitting.fit_log_linear, [(p.x, p.value) for p in ratio]),
        (fitting.fit_line, [(p.x, p.value) for p in diff]),
        (fitting.fit_power, counts),
        (fitting.fit_hyperbolic_z, counts),
    ):
        _, m[f"fitting.{fit.__name__}_s"] = _timed(tracer, f"fitting.{fit.__name__}", fit, points)

    compare = [specs[kind] for kind in models.COUNT_MODEL_KINDS]
    for kind in plotting.PLOT_KINDS:
        config = plotting.PlotConfig(kind=kind)
        svg, m[f"plotting.render_s.{kind}"] = _timed(
            tracer, "plotting.render", plotting.render, rows, config, compare if kind == "compare" else None)
    m["plotting.svg_bytes"] = len(svg.encode("utf-8"))  # the compare plot, rendered last
    return m


def missing_cli_steps(w, path, tracer):
    """Run the CLI steps the workload's own pass does not run."""
    fresh_n, stop_after = w.fresh
    steps = desk_steps(fresh_n, w.workdir / "probe-cli.csv", w.workdir / "probe-cli.ck", stop_after)
    steps += analysis_steps(path, w.workdir / "probe-rows.csv", w.workdir / "probe.svg")
    codes = []
    with tracer.wrap(LAYER_TARGETS):
        for step, argv in steps:
            if step not in w.native_steps:
                codes.append(run_cli(tracer, step, argv)[0])
    return codes


def cli_metrics(tracer):
    m = {}
    for step in CLI_STEPS:
        m[f"cli.{step}_s"] = tracer.duration(f"cli.{step}")
        m[f"cli.{step}_self_s"] = tracer.self_time(f"cli.{step}")
    return m
