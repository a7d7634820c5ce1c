"""Closed-form estimators for the count of primes in [x, x**2].

Six count models (hyperbolic cosh, power law, clamped quadratic, clamped
conic root, ratio-based, and the Bertrand-descended lower bound) plus the
straight line that predicts the count difference between adjacent ranges.
Each is one formula in ``_FORMULAS``, keyed by kind, with its domain check
beside it.  ``predict(x, spec)`` is the one entry: it accepts a scalar or
an ndarray and returns the same; no rounding happens here -- match
classification lives in ``evaluation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DomainError

HYPERBOLIC = "hyperbolic"
POWER_SERIES = "power_series"
POLYNOMIAL = "polynomial"
CONIC = "conic"
CUSTOM_RATIO = "custom_ratio"
BERTRAND = "bertrand"
DIFFERENCE_LINE = "difference_line"

COUNT_MODEL_KINDS = (HYPERBOLIC, POWER_SERIES, POLYNOMIAL, CONIC, CUSTOM_RATIO, BERTRAND)
ALL_MODEL_KINDS = COUNT_MODEL_KINDS + (DIFFERENCE_LINE,)

# Published defaults.  The hyperbolic slope is 1.9023, the value consistent
# with the reference predictions at x=140001 (the alternative 1.9029 that
# circulates for the same model is reachable via an override).
DEFAULT_CONSTANTS: Mapping[str, Mapping[str, float]] = MappingProxyType(
    {
        HYPERBOLIC: MappingProxyType({"z_slope": 1.9023, "z_intercept": -1.2634}),
        POWER_SERIES: MappingProxyType({"a": 0.141294556371966, "b": 1.90234115616265}),
        POLYNOMIAL: MappingProxyType({"a": 0.0376, "b": 1.2081, "c": -3.0e7}),
        CONIC: MappingProxyType(
            {
                "A": 3.11199927582249e-09,
                "B": -9.33817244194697e-15,
                "C": 3.45730472758733e-21,
                "D": 5.15593800268165e-05,
                "E": -7.63287093993319e-08,
                "F": -1.0,
            }
        ),
        CUSTOM_RATIO: MappingProxyType({"k_slope": 2.0038, "k_intercept": -1.0932}),
        BERTRAND: MappingProxyType({}),
        DIFFERENCE_LINE: MappingProxyType({"slope": 0.0755, "intercept": 1018.8}),
    }
)


@dataclass(frozen=True)
class ModelSpec:
    """An estimator family tag plus the numeric constants it runs with."""

    kind: str
    constants: Mapping[str, float]


def model_spec(kind: str, **overrides: float) -> ModelSpec:
    """Build a ModelSpec with published defaults plus any overrides."""
    if kind not in ALL_MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {ALL_MODEL_KINDS}")
    defaults = DEFAULT_CONSTANTS[kind]
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"{kind} has no constants named {sorted(unknown)}")
    return ModelSpec(kind=kind, constants={**defaults, **overrides})


def _conic(x, c):
    """The "-" root of C*y**2 + (B*x + E)*y + (A*x**2 + D*x + F) = 0, clamped by x.

    Evaluated as 2*(A*x**2 + D*x + F) / (-(B*x + E) + sqrt(disc)): the
    conjugate form adds where the textbook quotient subtracts nearly equal
    magnitudes, which matters here because E**2 dominates the discriminant
    for small x.
    """
    s = c["B"] * x + c["E"]
    g = c["A"] * x * x + c["D"] * x + c["F"]
    disc = s * s - 4.0 * c["C"] * g
    if np.any(disc < 0):
        raise DomainError(f"conic discriminant negative at x={x[disc < 0][0]:g}")
    denom = -s + np.sqrt(disc)
    if np.any(denom == 0):
        raise DomainError(f"conic root undefined at x={x[denom == 0][0]:g}")
    return np.maximum(x, 2.0 * g / denom)


def _custom_ratio(x, c):
    """(x**2 - x) / (k_slope * ln(x) + k_intercept); defined for x >= 2."""
    if np.any(x < 2):
        raise DomainError(f"custom ratio undefined below x=2 (got x={np.min(x):g})")
    return (x * x - x) / (c["k_slope"] * np.log(x) + c["k_intercept"])


def _bertrand(x, c):
    """log2(x), i.e. half of log2(x**2): the iterated-postulate lower bound."""
    if np.any(x <= 0):
        raise DomainError("bertrand bound needs x > 0")
    return np.log2(x)


# Each formula maps x (a float64 array, at least 1-d) and a spec's constants
# to the prediction at every x.
_FORMULAS = {
    # cosh(z_slope * ln(x) + z_intercept)
    HYPERBOLIC: lambda x, c: np.cosh(c["z_slope"] * np.log(x) + c["z_intercept"]),
    # a * x**b
    POWER_SERIES: lambda x, c: c["a"] * x ** c["b"],
    # a*x**2 + b*x + c, clamped from below by x itself: the range [x, x**2]
    # never holds fewer than x primes, so a negative or tiny quadratic value
    # is replaced by x.
    POLYNOMIAL: lambda x, c: np.maximum(x, c["a"] * x * x + c["b"] * x + c["c"]),
    CONIC: _conic,
    CUSTOM_RATIO: _custom_ratio,
    BERTRAND: _bertrand,
    # slope*x + intercept, predicting count(x) - count(x-1)
    DIFFERENCE_LINE: lambda x, c: c["slope"] * x + c["intercept"],
}


def predict(x, spec: ModelSpec):
    """The prediction of ``spec``'s model at x: a float for a scalar x, an
    ndarray of x's shape for an array."""
    arr = np.asarray(x, dtype=np.float64)
    # A prediction too large for a float is inf, which the summaries
    # report as an infinite error; it is not a numpy warning.
    with np.errstate(over="ignore"):
        values = _FORMULAS[spec.kind](np.atleast_1d(arr), spec.constants)
    return float(values[0]) if arr.ndim == 0 else values
