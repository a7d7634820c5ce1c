"""Command-line front end: census, pi, evaluate, fit, matches, verify, plot.

Exit codes: 0 success, 1 validation or domain error, 2 I/O error or a
dead sieve worker, 3 checkpoint/digest integrity error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import random
import sys
from decimal import ROUND_HALF_UP, Context, Decimal

import numpy as np

from . import census as census_mod
from . import fitting, models, plotting, storage
from .errors import CheckpointIntegrityError, DomainError, PrimeCensusError
from .evaluation import census_columns, difference_arrays, evaluate_difference_model, evaluate_model, ratio_arrays, score
from .pi_oracle import count_in_range_oracle, prime_pi

WORKERS_ENV = "PRIMECENSUS_WORKERS"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTEGRITY = 3
EXIT_INTERRUPTED = 130


def format_percent(fraction: float) -> str:
    """Two-decimal percent with half-away-from-zero ties, e.g. 0.60%; inf%
    and nan% for a non-finite one."""
    percent = fraction * 100.0
    if not math.isfinite(percent):
        return f"{percent!r}%"
    # Enough precision for the 309 integer digits of the largest float.
    quantized = Decimal(repr(percent)).quantize(Decimal("0.01"), ROUND_HALF_UP, Context(prec=400))
    return f"{quantized}%"


class _Parser(argparse.ArgumentParser):
    # The exit-code contract reserves 1 for usage/validation errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _workers(text: str) -> int:
    """--workers as an integer >= 1; the text may be $PRIMECENSUS_WORKERS."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # refused below, with the text quoted
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r} (default: ${WORKERS_ENV} or 1)")
    return value


def _parse_models(text: str):
    if text == "all":
        kinds = models.COUNT_MODEL_KINDS
    else:
        kinds = tuple(part.strip() for part in text.split(",") if part.strip())
        if not kinds:
            raise ValueError("no model names given")
    for kind in kinds:
        if kind not in models.ALL_MODEL_KINDS:
            raise ValueError(f"unknown model {kind!r}; expected one of {models.ALL_MODEL_KINDS} or 'all'")
    return kinds


def _specs_for(kinds, constants_path, set_items=()):
    overrides = storage.read_constants(constants_path) if constants_path else {}
    for item in set_items:  # --set flags win over the constants file
        try:
            kind, name, value = storage.parse_constant(item)
        except ValueError as exc:
            raise ValueError(f"--set {item!r}: {exc}") from None
        overrides.setdefault(kind, {})[name] = value
    unknown = set(overrides) - set(models.ALL_MODEL_KINDS)
    if unknown:
        raise ValueError(f"constants name unknown models: {sorted(unknown)}")
    return [models.model_spec(kind, **overrides.get(kind, {})) for kind in kinds]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_census(args) -> int:
    if args.resume and args.out is None:
        raise ValueError("--resume needs --out (the file being extended)")
    if args.checkpoint is None and args.resume:
        raise ValueError("--resume needs --checkpoint")
    if args.out is None:
        if args.checkpoint is not None:
            raise ValueError("--checkpoint needs --out (stdout cannot be resumed)")
        sweep = census_mod.census_sweep(args.max_x, workers=args.workers)
        try:
            sys.stdout.write(census_mod.CENSUS_HEADER + "\n")
            with contextlib.closing(sweep):
                for record in sweep:
                    sys.stdout.write(census_mod.encode_census_row(record).decode("ascii"))
                    if args.stop_after is not None and record.x >= args.stop_after:
                        break
            sys.stdout.flush()
        except BrokenPipeError:  # a reader that stops early, as `| head` does, ends the census normally
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot fail
        return EXIT_OK
    written = census_mod.run_census(
        args.max_x,
        args.out,
        checkpoint_path=args.checkpoint,
        workers=args.workers,
        resume=args.resume,
        stop_after=args.stop_after,
    )
    print(f"wrote {written} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_pi(args) -> int:
    print(prime_pi(args.n))
    return EXIT_OK


def _summaries(args, model_text, out_path=None):
    """Read the census once and score every requested model on it.

    With ``out_path``, the per-row evaluation CSV of the count models is
    written there as well, every float as its repr
    (``storage.write_evaluation_csv``), from the scores each model's
    summary was made of.
    """
    specs = _specs_for(_parse_models(model_text), args.constants, args.set_constants)
    table = storage.read_census(args.census)
    summaries, scored = [], []
    for spec in specs:
        if spec.kind == models.DIFFERENCE_LINE:
            summaries.append(evaluate_difference_model(table, spec))
            continue
        scores = score(table, spec) if out_path else None  # kept for the rows file only
        summaries.append(evaluate_model(table, spec, scores))
        scored.append((spec.kind, scores))
    if out_path:
        storage.write_evaluation_csv(out_path, scored)
    return summaries


def _cmd_evaluate(args) -> int:
    summaries = _summaries(args, args.models, args.out)
    if args.format == "csv":
        print("model,n,average_relative_error,exact,floor,ceil,none")
        for s in summaries:
            print(
                f"{s.kind},{s.n_rows},{storage.format_real(s.average_relative_error)},"
                f"{s.exact},{s.floor},{s.ceil},{s.none}"
            )
        return EXIT_OK

    width = max(len(s.kind) for s in summaries) + 2
    print("Average relative error by model")
    for s in summaries:
        label = s.kind + (" (difference series)" if s.kind == models.DIFFERENCE_LINE else "")
        print(f"  {label:<{width + 20}} {format_percent(s.average_relative_error):>8}"
              f"   (unrounded {s.average_relative_error:.6e}, n={s.n_rows})")
    print("Constants used:")
    for s in summaries:
        for name, value in s.constants.items():
            marker = " (override)" if value != models.DEFAULT_CONSTANTS[s.kind].get(name) else ""
            print(f"  {s.kind}.{name}={value!r}{marker}")
    return EXIT_OK


def _cmd_matches(args) -> int:
    summaries = _summaries(args, args.model)
    if args.format == "csv":
        print("model,exact,ceil,floor,none,n")
        for s in summaries:
            print(f"{s.kind},{s.exact},{s.ceil},{s.floor},{s.none},{s.n_rows}")
        return EXIT_OK
    width = max(len(s.kind) for s in summaries) + 2
    print(f"{'model':<{width}} {'exact':>8} {'ceil':>8} {'floor':>8} {'none':>10}")
    for s in summaries:
        print(f"{s.kind:<{width}} {s.exact:>8} {s.ceil:>8} {s.floor:>8} {s.none:>10}")
    return EXIT_OK


_FIT_TARGETS = ("ratio", "difference", "power", "hyperbolic")


def _cmd_fit(args) -> int:
    columns = census_columns(storage.read_census(args.census), args.x_min, args.x_max)
    if args.target == "ratio":
        fit = fitting.fit_log_linear(np.column_stack(ratio_arrays(*columns)))
        constants = {models.CUSTOM_RATIO: {"k_slope": fit.slope, "k_intercept": fit.intercept}}
    elif args.target == "difference":
        fit = fitting.fit_line(np.column_stack(difference_arrays(*columns)))
        constants = {models.DIFFERENCE_LINE: {"slope": fit.slope, "intercept": fit.intercept}}
    elif args.target == "power":
        fit = fitting.fit_power(np.column_stack(columns))
        constants = {models.POWER_SERIES: {"a": fitting.power_coefficient(fit), "b": fit.slope}}
    else:  # hyperbolic
        fit = fitting.fit_hyperbolic_z(np.column_stack(columns))
        constants = {models.HYPERBOLIC: {"z_slope": fit.slope, "z_intercept": fit.intercept}}

    print(f"target={args.target}")
    print(f"slope={storage.format_real(fit.slope)}")
    print(f"intercept={storage.format_real(fit.intercept)}")
    print(f"r_squared={storage.format_real(fit.r_squared)}")
    print(f"n_points={fit.n_points}")
    print(f"x_min={fit.domain[0]:g}")
    print(f"x_max={fit.domain[1]:g}")
    for kind, named in constants.items():
        for name, value in named.items():
            print(f"{kind}.{name}={storage.format_real(value)}")
    if args.constants_out:
        storage.write_constants(args.constants_out, constants, comment=f"fitted from {args.census}")
        print(f"wrote constants to {args.constants_out}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.sample < 1:
        raise ValueError("--sample must be >= 1")
    table = storage.read_census(args.census)
    if not len(table):
        raise DomainError("census is empty; nothing to verify")
    rng = random.Random(args.seed)
    # Rows are in ascending x, so sorted indices give the rows in x order.
    chosen = sorted(rng.sample(range(len(table)), min(args.sample, len(table))))
    failures = 0
    for x, count in zip(table.x[chosen].tolist(), table.prime_count[chosen].tolist()):
        expected = count_in_range_oracle(x)
        if expected == count:
            print(f"OK x={x} count={count}")
        else:
            failures += 1
            print(f"MISMATCH x={x}: census={count}, oracle={expected}")
    if failures:
        print(f"{failures} of {len(chosen)} sampled rows disagree", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"verified {len(chosen)}/{len(chosen)} sampled rows", file=sys.stderr)
    return EXIT_OK


def _cmd_plot(args) -> int:
    specs = None
    if args.kind == "compare":
        specs = _specs_for(_parse_models(args.models or "all"), args.constants, args.set_constants)
    config = plotting.PlotConfig(
        kind=args.kind,
        x_min=args.x_min,
        x_max=args.x_max,
        width=args.width,
        height=args.height,
        log_y=args.log_y,
        title=args.title,
    )
    plotting.render_to_file(storage.read_census(args.census), config, args.out, models=specs)
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="primecensus", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    census_in = argparse.ArgumentParser(add_help=False)  # options shared by several commands
    census_in.add_argument("--census", required=True)
    constants_in = argparse.ArgumentParser(add_help=False)
    constants_in.add_argument("--constants", help="constants file overriding model defaults")
    constants_in.add_argument("--set", dest="set_constants", action="append", default=[],
                              metavar="MODEL.CONST=VALUE", help="override one constant (repeatable)")

    p = sub.add_parser("census", help="generate the census CSV for x=2..N")
    p.add_argument("--max-x", type=int, default=None, help="largest x to census (omit only with --resume)")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.add_argument("--checkpoint", help=f"checkpoint file, written every {census_mod.CHECKPOINT_EVERY} x, for interruption and resume")
    p.add_argument("--resume", action="store_true", help="continue from the checkpoint")
    # A string default goes through ``type`` only when census is parsed, so
    # a bad $PRIMECENSUS_WORKERS fails the census command, not --help.
    p.add_argument("--workers", type=_workers, default=os.environ.get(WORKERS_ENV) or "1",
                   help=f"sieve workers (default ${WORKERS_ENV} or 1)")
    p.add_argument("--stop-after", type=int, default=None, help="stop cleanly after completing this x")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("pi", help="print the number of primes <= N, for N < 2**62")
    p.add_argument("n", type=int, metavar="N", help="count the primes <= N; N < 2**62")
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("evaluate", help="average relative error and match tallies per model",
                       parents=[census_in, constants_in])
    p.add_argument("--models", default="all", help="comma-separated kinds or 'all'")
    p.add_argument("--out", help="write per-row evaluation CSV here")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("fit", help="recover model constants from census data", parents=[census_in])
    p.add_argument("--target", required=True, choices=_FIT_TARGETS)
    p.add_argument("--x-min", type=int, default=None)
    p.add_argument("--x-max", type=int, default=None)
    p.add_argument("--constants-out", help="write a constants file usable by evaluate/plot")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("matches", help="exact/floor/ceil match tallies per model", parents=[census_in, constants_in])
    p.add_argument("--model", required=True, help="comma-separated kinds or 'all'")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(handler=_cmd_matches)

    p = sub.add_parser("verify", help="cross-check random census rows against the combinatorial counter",
                       parents=[census_in])
    p.add_argument("--sample", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("plot", help="render census series to an SVG file", parents=[census_in, constants_in])
    p.add_argument("--kind", required=True, choices=plotting.PLOT_KINDS)
    p.add_argument("--models", default=None, help="models to overlay on a compare plot")
    p.add_argument("--out", required=True)
    p.add_argument("--x-min", type=int, default=None)
    p.add_argument("--x-max", type=int, default=None)
    p.add_argument("--width", type=int, default=960)
    p.add_argument("--height", type=int, default=600)
    p.add_argument("--log-y", action="store_true", help="decade-scaled y axis")
    p.add_argument("--title", default=None)
    p.set_defaults(handler=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "census" and not args.resume and args.max_x is None:
        parser.error("census needs --max-x (unless resuming)")
    try:
        return args.handler(args)
    except CheckpointIntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (PrimeCensusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
