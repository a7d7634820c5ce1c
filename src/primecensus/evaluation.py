"""Derived series plus relative-error and match statistics for the models.

Three series come off a census: the counts themselves, the ratio
(x**2 - x) / count, and the difference count(x) - count(x-1).  Every
function here reads the int64 x and prime_count columns of a census table
(any iterable of records is converted to one) and works on whole arrays.
``score`` gives a model's per-row scores as one ``Scores`` value of
arrays; ``evaluate_model`` reduces them to an ``EvaluationSummary``.
SeriesPoint lists are built only on request.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional

import numpy as np

from .census import census_table
from .errors import DomainError
from .fitting import exact_sum
from .models import DIFFERENCE_LINE, ModelSpec, model_spec, predict

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


class Scores(NamedTuple):
    """Per-row scores of a model, one array per field, in census order.

    ``relative_error`` is |prediction - true_count| / true_count, as a
    fraction; ``match`` holds each row's index into MatchClass order.
    """

    x: np.ndarray
    true_count: np.ndarray
    prediction: np.ndarray
    relative_error: np.ndarray
    match: np.ndarray


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


def census_columns(census: Iterable, x_min: Optional[int] = None, x_max: Optional[int] = None):
    """The int64 x and prime_count columns of a census, in census order, for
    the rows with x_min <= x <= x_max (None leaves a side open)."""
    table = census_table(census)
    keep = None if x_min is None else table.x >= x_min
    if x_max is not None:
        keep = table.x <= x_max if keep is None else keep & (table.x <= x_max)
    return (table.x, table.prime_count) if keep is None else (table.x[keep], table.prime_count[keep])


# ---------------------------------------------------------------------------
# Series derivation
# ---------------------------------------------------------------------------


def _points(xs: np.ndarray, values: np.ndarray) -> List[SeriesPoint]:
    return [SeriesPoint(x, v) for x, v in zip(xs.tolist(), values.tolist())]


def ratio_arrays(xs: np.ndarray, counts: np.ndarray):
    """x and (x**2 - x) / count where count > 0; x = 1 is rejected outright."""
    if np.any(xs == 1):
        raise DomainError("x=1 has no primes in [1, 1]; the ratio is undefined there")
    for i in np.flatnonzero(counts <= 0):
        warnings.warn(f"skipping x={xs[i]}: prime_count={counts[i]} makes the ratio undefined")
    keep = counts > 0
    xs, counts = xs[keep], counts[keep]
    return xs, (xs * xs - xs) / counts


def ratio_series(census: Iterable) -> List[SeriesPoint]:
    """(x**2 - x) / prime_count per record; x = 1 is rejected outright."""
    return _points(*ratio_arrays(*census_columns(census)))


def difference_arrays(xs: np.ndarray, counts: np.ndarray):
    """x and count(x) - count(x-1) (int64) for every x >= 3 after the first record."""
    gaps = np.flatnonzero(np.diff(xs) != 1)
    if gaps.size:
        i = gaps[0]
        raise DomainError(f"census has a gap: x jumps {xs[i]} -> {xs[i + 1]}")
    keep = xs[1:] >= 3
    return xs[1:][keep], np.diff(counts)[keep]


def difference_series(census: Iterable) -> List[SeriesPoint]:
    """count(x) - count(x-1) for adjacent records, emitted for x >= 3."""
    xs, diffs = difference_arrays(*census_columns(census))
    return _points(xs, diffs.astype(np.float64))


# ---------------------------------------------------------------------------
# Match classification
# ---------------------------------------------------------------------------


def _classify(preds: np.ndarray, trues: np.ndarray) -> np.ndarray:
    """Each prediction's match class, as an index into _MATCH_CLASSES.

    The classes exclude each other, with precedence exact > floor > ceil >
    none: exact within EXACT_ULPS units in the last place of the true
    count, floor when floor(prediction) equals it, ceil when
    ceil(prediction) does.
    """
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


def _scores(xs: np.ndarray, preds: np.ndarray, trues: np.ndarray) -> Scores:
    """Score predictions against true values; every true value must be positive."""
    bad = np.flatnonzero(trues <= 0)
    if bad.size:
        i = bad[0]
        raise DomainError(f"relative error undefined at x={xs[i]}: true value is {trues[i]}")
    trues_f = trues.astype(np.float64)
    return Scores(xs, trues, preds, np.abs(preds - trues_f) / trues_f, _classify(preds, trues))


def _summarize(spec: ModelSpec, scores: Scores) -> EvaluationSummary:
    rel = scores.relative_error
    if not rel.size:
        raise DomainError("census is empty; nothing to evaluate")
    exact, floors, ceils, none = np.bincount(scores.match, minlength=len(_MATCH_CLASSES)).tolist()
    return EvaluationSummary(
        kind=spec.kind,
        constants=dict(spec.constants),
        n_rows=int(rel.size),
        average_relative_error=exact_sum(rel) / rel.size,
        exact=exact,
        floor=floors,
        ceil=ceils,
        none=none,
    )


def score(census: Iterable, spec: ModelSpec) -> Scores:
    """Score a count model on every census row."""
    xs, trues = census_columns(census)
    try:
        preds = np.asarray(predict(xs, spec), dtype=np.float64)
    except DomainError as exc:
        raise DomainError(f"{spec.kind} not applicable on this census: {exc}") from exc
    return _scores(xs, preds, trues)


def evaluate_model(census: Iterable, spec: ModelSpec, scores: Optional[Scores] = None) -> EvaluationSummary:
    """Average relative error and match tallies of a count model on a
    census, from ``scores`` when they are its ``score(census, spec)``
    already."""
    return _summarize(spec, score(census, spec) if scores is None else scores)


def evaluate_difference_model(census: Iterable, spec: Optional[ModelSpec] = None) -> EvaluationSummary:
    """Evaluate the difference line against count(x) - count(x-1)."""
    spec = spec or model_spec(DIFFERENCE_LINE)
    xs, diffs = difference_arrays(*census_columns(census))
    if not diffs.size:
        raise DomainError("need at least 2 consecutive census rows for the difference series")
    preds = np.asarray(predict(xs, spec), dtype=np.float64)
    return _summarize(spec, _scores(xs, preds, diffs))
