"""Closed-form estimators for the count of primes in [x, x**2].

Six count models (hyperbolic cosh, power law, clamped quadratic, clamped
conic root, ratio-based, and the Bertrand-descended lower bound) plus the
straight line that predicts the count difference between adjacent ranges.
Every predictor is a pure function accepting a scalar or an ndarray; no
rounding happens here -- match classification lives in ``evaluation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

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

    def overrides(self) -> dict:
        """The constants that differ from the published defaults."""
        defaults = DEFAULT_CONSTANTS[self.kind]
        return {k: v for k, v in self.constants.items() if v != defaults.get(k)}


def model_spec(kind: str, **overrides: float) -> ModelSpec:
    """Build a ModelSpec with published defaults plus any overrides."""
    if kind not in ALL_MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {ALL_MODEL_KINDS}")
    defaults = DEFAULT_CONSTANTS[kind]
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"{kind} has no constants named {sorted(unknown)}")
    return ModelSpec(kind=kind, constants={**defaults, **overrides})


def _prepare(x):
    arr = np.asarray(x, dtype=np.float64)
    return arr, arr.ndim == 0


def _finish(values, scalar: bool):
    return float(values) if scalar else values


def predict_hyperbolic(x, spec: Optional[ModelSpec] = None):
    """cosh(z_slope * ln(x) + z_intercept)."""
    c = (spec or model_spec(HYPERBOLIC)).constants
    arr, scalar = _prepare(x)
    return _finish(np.cosh(c["z_slope"] * np.log(arr) + c["z_intercept"]), scalar)


def predict_power(x, spec: Optional[ModelSpec] = None):
    """a * x**b."""
    c = (spec or model_spec(POWER_SERIES)).constants
    arr, scalar = _prepare(x)
    return _finish(c["a"] * arr ** c["b"], scalar)


def predict_polynomial(x, spec: Optional[ModelSpec] = None):
    """a*x**2 + b*x + c, clamped from below by x itself.

    The clamp encodes the premise that the range [x, x**2] never holds
    fewer than x primes, so a negative or tiny quadratic value is replaced
    by x.
    """
    c = (spec or model_spec(POLYNOMIAL)).constants
    arr, scalar = _prepare(x)
    raw = c["a"] * arr * arr + c["b"] * arr + c["c"]
    return _finish(np.maximum(arr, raw), scalar)


def predict_conic(x, spec: Optional[ModelSpec] = None):
    """The "-" root of C*y**2 + (B*x + E)*y + (A*x**2 + D*x + F) = 0, clamped by x.

    Evaluated as 2*(A*x**2 + D*x + F) / (-(B*x + E) + sqrt(disc)): the
    conjugate form adds where the textbook quotient subtracts nearly equal
    magnitudes, which matters here because E**2 dominates the discriminant
    for small x.
    """
    c = (spec or model_spec(CONIC)).constants
    arr, scalar = _prepare(x)
    s = c["B"] * arr + c["E"]
    g = c["A"] * arr * arr + c["D"] * arr + c["F"]
    disc = s * s - 4.0 * c["C"] * g
    if np.any(disc < 0):
        bad = np.atleast_1d(arr)[np.atleast_1d(disc) < 0][0]
        raise DomainError(f"conic discriminant negative at x={bad:g}")
    denom = -s + np.sqrt(disc)
    if np.any(denom == 0):
        bad = np.atleast_1d(arr)[np.atleast_1d(denom) == 0][0]
        raise DomainError(f"conic root undefined at x={bad:g}")
    return _finish(np.maximum(arr, 2.0 * g / denom), scalar)


def predict_custom_ratio(x, spec: Optional[ModelSpec] = None):
    """(x**2 - x) / (k_slope * ln(x) + k_intercept); defined for x >= 2."""
    c = (spec or model_spec(CUSTOM_RATIO)).constants
    arr, scalar = _prepare(x)
    if np.any(arr < 2):
        bad = float(np.min(arr))
        raise DomainError(f"custom ratio undefined below x=2 (got x={bad:g})")
    return _finish((arr * arr - arr) / (c["k_slope"] * np.log(arr) + c["k_intercept"]), scalar)


def predict_bertrand(x):
    """log2(x), i.e. half of log2(x**2): the iterated-postulate lower bound."""
    arr, scalar = _prepare(x)
    if np.any(arr <= 0):
        raise DomainError("bertrand bound needs x > 0")
    return _finish(np.log2(arr), scalar)


def predict_difference(x, spec: Optional[ModelSpec] = None):
    """slope*x + intercept, predicting count(x) - count(x-1)."""
    c = (spec or model_spec(DIFFERENCE_LINE)).constants
    arr, scalar = _prepare(x)
    return _finish(c["slope"] * arr + c["intercept"], scalar)


_PREDICTORS = {
    HYPERBOLIC: predict_hyperbolic,
    POWER_SERIES: predict_power,
    POLYNOMIAL: predict_polynomial,
    CONIC: predict_conic,
    CUSTOM_RATIO: predict_custom_ratio,
    BERTRAND: lambda x, spec=None: predict_bertrand(x),
    DIFFERENCE_LINE: predict_difference,
}


def predict(x, spec: ModelSpec):
    """Dispatch to the predictor for ``spec.kind``."""
    return _PREDICTORS[spec.kind](x, spec)
