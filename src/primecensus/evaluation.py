"""Derived series plus relative-error and match statistics for the models.

Three series come off a census: the counts themselves, the ratio
(x**2 - x) / count, and the difference count(x) - count(x-1).  Every
function here loads the census once as int64 columns (x and count) and
scores a model with whole-array operations; per-row EvaluationRow objects
are built only when a caller asks for them.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from math import ceil, floor, fsum, ulp
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .models import DIFFERENCE_LINE, ModelSpec, model_spec, predict, predict_difference

# A prediction within this many units in the last place of the true count
# is exact: equal up to float rounding.  A relative tolerance would not do,
# because at counts near 4e9 it would span neighbouring integers.
EXACT_ULPS = 4


class MatchClass(enum.Enum):
    EXACT = "exact"
    FLOOR = "floor"
    CEIL = "ceil"
    NONE = "none"


# Match classes in precedence order; the vector classifier returns indices
# into this tuple.
_MATCH_CLASSES = tuple(MatchClass)


class SeriesPoint(NamedTuple):
    x: int
    value: float


class EvaluationRow(NamedTuple):
    x: int
    true_count: int
    prediction: float
    relative_error: float
    match_class: MatchClass


@dataclass
class EvaluationSummary:
    kind: str
    constants: dict
    n_rows: int = 0
    average_relative_error: float = 0.0
    exact: int = 0
    floor: int = 0
    ceil: int = 0
    none: int = 0

    def tally(self) -> dict:
        return {"exact": self.exact, "floor": self.floor, "ceil": self.ceil, "none": self.none}


def _columns(census: Iterable):
    """(x, prime_count) of every record as int64 arrays, in census order."""
    cols = np.fromiter(((r[0], r[2]) for r in census), dtype="i8,i8")
    return cols["f0"], cols["f1"]


# ---------------------------------------------------------------------------
# Series derivation
# ---------------------------------------------------------------------------


def _points(xs: np.ndarray, values: np.ndarray) -> List[SeriesPoint]:
    return [SeriesPoint(x, v) for x, v in zip(xs.tolist(), values.tolist())]


def ratio_series(census: Iterable) -> List[SeriesPoint]:
    """(x**2 - x) / prime_count per record; x = 1 is rejected outright."""
    xs, counts = _columns(census)
    if np.any(xs == 1):
        raise DomainError("x=1 has no primes in [1, 1]; the ratio is undefined there")
    for i in np.flatnonzero(counts <= 0):
        warnings.warn(f"skipping x={xs[i]}: prime_count={counts[i]} makes the ratio undefined")
    keep = counts > 0
    xs, counts = xs[keep], counts[keep]
    return _points(xs, (xs * xs - xs) / counts)


def _differences(xs: np.ndarray, counts: np.ndarray):
    """x and count(x) - count(x-1) for every x >= 3 after the first record."""
    gaps = np.flatnonzero(np.diff(xs) != 1)
    if gaps.size:
        i = gaps[0]
        raise DomainError(f"census has a gap: x jumps {xs[i]} -> {xs[i + 1]}")
    keep = xs[1:] >= 3
    return xs[1:][keep], np.diff(counts)[keep]


def difference_series(census: Iterable) -> List[SeriesPoint]:
    """count(x) - count(x-1) for adjacent records, emitted for x >= 3."""
    xs, diffs = _differences(*_columns(census))
    return _points(xs, diffs.astype(np.float64))


# ---------------------------------------------------------------------------
# Relative error and match classification
# ---------------------------------------------------------------------------


def relative_error(prediction: float, true_count: int) -> float:
    """|prediction - true_count| / true_count, as a fraction (not percent)."""
    if true_count <= 0:
        raise DomainError(f"relative error undefined for true count {true_count}")
    return abs(prediction - true_count) / true_count


def average_relative_error(rows: Iterable[EvaluationRow]) -> float:
    errors = [row.relative_error for row in rows]
    if not errors:
        raise DomainError("average of an empty evaluation")
    return fsum(errors) / len(errors)


def classify_match(prediction: float, true_count: int) -> MatchClass:
    """Mutually exclusive classes with precedence exact > floor > ceil > none."""
    if true_count <= 0:
        raise DomainError(f"match class undefined for true count {true_count}")
    if abs(prediction - true_count) <= EXACT_ULPS * ulp(true_count):
        return MatchClass.EXACT
    if floor(prediction) == true_count:
        return MatchClass.FLOOR
    if ceil(prediction) == true_count:
        return MatchClass.CEIL
    return MatchClass.NONE


def _classify(preds: np.ndarray, trues: np.ndarray) -> np.ndarray:
    """classify_match over arrays: each element's index into _MATCH_CLASSES."""
    trues = trues.astype(np.float64)
    conditions = [
        np.abs(preds - trues) <= EXACT_ULPS * np.spacing(trues),
        np.floor(preds) == trues,
        np.ceil(preds) == trues,
    ]
    return np.select(conditions, [0, 1, 2], default=3)


# ---------------------------------------------------------------------------
# Model evaluation
# ---------------------------------------------------------------------------


def _scores(xs: np.ndarray, preds: np.ndarray, trues: np.ndarray):
    """Relative errors and match-class indices; every true value must be positive."""
    bad = np.flatnonzero(trues <= 0)
    if bad.size:
        i = bad[0]
        raise DomainError(f"relative error undefined at x={xs[i]}: true value is {trues[i]}")
    trues_f = trues.astype(np.float64)
    return np.abs(preds - trues_f) / trues_f, _classify(preds, trues)


def _summarize(spec: ModelSpec, rel: np.ndarray, codes: np.ndarray) -> EvaluationSummary:
    if not rel.size:
        raise DomainError("census is empty; nothing to evaluate")
    exact, floors, ceils, none = np.bincount(codes, minlength=len(_MATCH_CLASSES)).tolist()
    return EvaluationSummary(
        kind=spec.kind,
        constants=dict(spec.constants),
        n_rows=int(rel.size),
        average_relative_error=fsum(rel) / rel.size,
        exact=exact,
        floor=floors,
        ceil=ceils,
        none=none,
    )


def _count_scores(census: Iterable, spec: ModelSpec):
    """xs, true counts, predictions, relative errors and match codes of a count model."""
    xs, trues = _columns(census)
    try:
        preds = np.asarray(predict(xs, spec), dtype=np.float64)
    except DomainError as exc:
        raise DomainError(f"{spec.kind} not applicable on this census: {exc}") from exc
    return (xs, trues, preds, *_scores(xs, preds, trues))


def _rows(xs, trues, preds, rel, codes) -> Iterator[EvaluationRow]:
    # Element by element: whole-column lists of Python numbers would be
    # held all at once, next to the census the caller already holds.
    for x, t, p, r, c in zip(xs, trues, preds, rel, codes):
        yield EvaluationRow(int(x), int(t), float(p), float(r), _MATCH_CLASSES[c])


def evaluation_rows(census: Iterable, spec: ModelSpec) -> Iterator[EvaluationRow]:
    """One EvaluationRow per census record for the given model."""
    yield from _rows(*_count_scores(census, spec))


def evaluate_model(
    census: Iterable,
    spec: ModelSpec,
    on_row: Optional[Callable[[EvaluationRow], None]] = None,
) -> EvaluationSummary:
    """Score a count model on a census.

    ``on_row``, when given, sees every EvaluationRow in census order (the
    CLI uses it to write the evaluation CSV).
    """
    xs, trues, preds, rel, codes = _count_scores(census, spec)
    summary = _summarize(spec, rel, codes)
    if on_row is not None:
        for row in _rows(xs, trues, preds, rel, codes):
            on_row(row)
    return summary


def evaluate_difference_model(census: Iterable, spec: Optional[ModelSpec] = None) -> EvaluationSummary:
    """Evaluate the difference line against count(x) - count(x-1)."""
    spec = spec or model_spec(DIFFERENCE_LINE)
    xs, diffs = _differences(*_columns(census))
    if not diffs.size:
        raise DomainError("need at least 2 consecutive census rows for the difference series")
    preds = np.asarray(predict_difference(xs, spec), dtype=np.float64)
    return _summarize(spec, *_scores(xs, preds, diffs))
