"""Derived series plus relative-error and match statistics for the models.

Three series come off a census: the counts themselves, the ratio
(x**2 - x) / count, and the difference count(x) - count(x-1).  Model
evaluation streams rows in chunks and folds them into a summary, so a
full-scale census never has to sit in memory as row objects.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from itertools import islice
from math import ceil, floor, fsum, ulp
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .models import DIFFERENCE_LINE, ModelSpec, model_spec, predict, predict_difference

# A prediction within this many units in the last place of the true count
# is exact: equal up to float rounding.  A relative tolerance would not do,
# because at counts near 4e9 it would span neighbouring integers.
EXACT_ULPS = 4

_CHUNK = 1 << 15


class MatchClass(enum.Enum):
    EXACT = "exact"
    FLOOR = "floor"
    CEIL = "ceil"
    NONE = "none"


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


class _NeumaierSum:
    """Compensated streaming sum; deterministic for a fixed input order."""

    __slots__ = ("total", "compensation")

    def __init__(self):
        self.total = 0.0
        self.compensation = 0.0

    def add(self, value: float) -> None:
        t = self.total + value
        if abs(self.total) >= abs(value):
            self.compensation += (self.total - t) + value
        else:
            self.compensation += (value - t) + self.total
        self.total = t

    def value(self) -> float:
        return self.total + self.compensation


# ---------------------------------------------------------------------------
# Series derivation
# ---------------------------------------------------------------------------


def ratio_series(census: Iterable) -> List[SeriesPoint]:
    """(x**2 - x) / prime_count per record; x = 1 is rejected outright."""
    points = []
    for x, x_squared, prime_count in census:
        if x == 1:
            raise DomainError("x=1 has no primes in [1, 1]; the ratio is undefined there")
        if prime_count <= 0:
            warnings.warn(f"skipping x={x}: prime_count={prime_count} makes the ratio undefined")
            continue
        points.append(SeriesPoint(x, (x_squared - x) / prime_count))
    return points


def difference_series(census: Iterable) -> List[SeriesPoint]:
    """count(x) - count(x-1) for adjacent records, emitted for x >= 3."""
    points = []
    prev = None
    for record in census:
        x, _, prime_count = record
        if prev is not None:
            if x != prev[0] + 1:
                raise DomainError(f"census has a gap: x jumps {prev[0]} -> {x}")
            if x >= 3:
                points.append(SeriesPoint(x, float(prime_count - prev[2])))
        prev = record
    return points


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


# ---------------------------------------------------------------------------
# Model evaluation
# ---------------------------------------------------------------------------


def _classify_chunk(preds: np.ndarray, trues: np.ndarray) -> list:
    exact = np.abs(preds - trues) <= EXACT_ULPS * np.spacing(trues.astype(np.float64))
    floors = np.floor(preds) == trues
    ceils = np.ceil(preds) == trues
    out = []
    for i in range(len(preds)):
        if exact[i]:
            out.append(MatchClass.EXACT)
        elif floors[i]:
            out.append(MatchClass.FLOOR)
        elif ceils[i]:
            out.append(MatchClass.CEIL)
        else:
            out.append(MatchClass.NONE)
    return out


def evaluation_rows(census: Iterable, spec: ModelSpec) -> Iterator[EvaluationRow]:
    """Stream one EvaluationRow per census record for the given model."""
    it = iter(census)
    while True:
        block = list(islice(it, _CHUNK))
        if not block:
            return
        xs = np.fromiter((r[0] for r in block), dtype=np.int64, count=len(block))
        trues = np.fromiter((r[2] for r in block), dtype=np.int64, count=len(block))
        if np.any(trues <= 0):
            bad = int(xs[np.argmax(trues <= 0)])
            raise DomainError(f"relative error undefined at x={bad}: true count <= 0")
        try:
            preds = np.asarray(predict(xs, spec), dtype=np.float64)
        except DomainError as exc:
            raise DomainError(f"{spec.kind} not applicable on this census: {exc}") from exc
        trues_f = trues.astype(np.float64)
        rel = np.abs(preds - trues_f) / trues_f
        classes = _classify_chunk(preds, trues_f)
        for i in range(len(block)):
            yield EvaluationRow(int(xs[i]), int(trues[i]), float(preds[i]), float(rel[i]), classes[i])


def evaluate_model(
    census: Iterable,
    spec: ModelSpec,
    on_row: Optional[Callable[[EvaluationRow], None]] = None,
) -> EvaluationSummary:
    """Fold a model's evaluation rows into a summary.

    ``on_row`` sees every row as it streams by (the CLI uses it to write
    the evaluation CSV without materializing the rows).
    """
    summary = EvaluationSummary(kind=spec.kind, constants=dict(spec.constants))
    acc = _NeumaierSum()
    for row in evaluation_rows(census, spec):
        if on_row is not None:
            on_row(row)
        acc.add(row.relative_error)
        summary.n_rows += 1
        if row.match_class is MatchClass.EXACT:
            summary.exact += 1
        elif row.match_class is MatchClass.FLOOR:
            summary.floor += 1
        elif row.match_class is MatchClass.CEIL:
            summary.ceil += 1
        else:
            summary.none += 1
    if summary.n_rows == 0:
        raise DomainError("census is empty; nothing to evaluate")
    summary.average_relative_error = acc.value() / summary.n_rows
    return summary


def evaluate_difference_model(census: Iterable, spec: Optional[ModelSpec] = None) -> EvaluationSummary:
    """Evaluate the difference line against count(x) - count(x-1)."""
    spec = spec or model_spec(DIFFERENCE_LINE)
    series = difference_series(census)
    if not series:
        raise DomainError("need at least 2 consecutive census rows for the difference series")
    summary = EvaluationSummary(kind=spec.kind, constants=dict(spec.constants))
    acc = _NeumaierSum()
    for x, value in series:
        if value <= 0:
            raise DomainError(f"difference at x={x} is {value:g}; relative error undefined")
        pred = predict_difference(x, spec)
        acc.add(abs(pred - value) / value)
        cls = classify_match(pred, int(value))
        summary.n_rows += 1
        if cls is MatchClass.EXACT:
            summary.exact += 1
        elif cls is MatchClass.FLOOR:
            summary.floor += 1
        elif cls is MatchClass.CEIL:
            summary.ceil += 1
        else:
            summary.none += 1
    summary.average_relative_error = acc.value() / summary.n_rows
    return summary
