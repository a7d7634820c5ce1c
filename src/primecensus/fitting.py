"""Least-squares recovery of model constants from census data.

All fits are ordinary least squares on transformed coordinates (ln x,
ln v, arcosh v), which keeps them deterministic and solver-free.  Every
fit takes (x, v) points, as a sequence of pairs or an (n, 2) array, and
works on float64 arrays; every sum is ``exact_sum``, math.fsum's correctly
rounded sum taken by numpy, so half-million-point regressions stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acosh, exp, fsum, log
from typing import Tuple

import numpy as np

from .errors import DomainError, SingularDesignError


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    domain: Tuple[float, float]  # (x_min, x_max) of the input x values


def exact_sum(values) -> float:
    """math.fsum of a 1-d float array, bit for bit, in numpy: each value's
    53-bit integer mantissa is split into a 27-bit (signed) and a 26-bit
    half, np.bincount sums each half per exponent (exact: with at most
    2**26 values every bucket stays below 2**53), and the buckets fold
    into one Python int, rounded to a float once.  A NaN, an infinity or
    a sum that could reach 2**1000 goes to math.fsum, errors and all."""
    a = np.asarray(values, dtype=np.float64)
    top = max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))  # NaN if any value is
    if not (top * a.size < 2.0**1000 and a.size <= 1 << 26):
        return fsum(a.tolist())
    m, e = np.frexp(a)  # a == m * 2**e, and m * 2**53 is an integer
    base = int(e.min(initial=0))
    high = np.trunc(np.ldexp(m, 27))  # m * 2**53 == high * 2**26 + (the low half)
    halves = (np.bincount(e - base, weights=w).tolist() for w in (high, np.ldexp(m, 53) - np.ldexp(high, 26)))
    total = sum(((int(hi) << 26) + int(lo)) << k for k, (hi, lo) in enumerate(zip(*halves)))  # in 2**(base - 53)
    return float(total << (base - 53)) if base >= 53 else total / (1 << (53 - base))


def _ols(ts: np.ndarray, vs: np.ndarray, xs: np.ndarray) -> FitResult:
    n = len(ts)
    if n < 2:
        raise SingularDesignError(f"need at least 2 points, got {n}")
    t_mean = exact_sum(ts) / n
    v_mean = exact_sum(vs) / n
    dt, dv = ts - t_mean, vs - v_mean
    sxx = exact_sum(dt * dt)
    if sxx == 0.0:
        raise SingularDesignError("all regressors equal; design is singular")
    sxy = exact_sum(dt * dv)
    slope = sxy / sxx
    intercept = v_mean - slope * t_mean
    res = vs - (slope * ts + intercept)
    ss_res = exact_sum(res * res)
    ss_tot = exact_sum(dv * dv)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitResult(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        n_points=n,
        domain=(float(xs.min()), float(xs.max())),
    )


def _split(points) -> Tuple[np.ndarray, np.ndarray]:
    """x and v of (x, v) points, a sequence of pairs or an (n, 2) array, as float64."""
    pairs = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=np.float64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _map(f, values: np.ndarray) -> np.ndarray:
    # The math functions, not np.log/np.arccosh, which differ in the last
    # bit on some inputs and so would move the fitted constants.
    return np.fromiter(map(f, values.tolist()), dtype=np.float64, count=len(values))


def fit_log_linear(points) -> FitResult:
    """OLS of v on ln(x).  Recovers the ratio-curve pair (k_slope, k_intercept)."""
    xs, vs = _split(points)
    if np.any(xs < 2):
        raise DomainError("log-linear fit needs x >= 2")
    return _ols(_map(log, xs), vs, xs)


def fit_line(points) -> FitResult:
    """OLS of v on x.  Recovers the difference-line pair (slope, intercept)."""
    xs, vs = _split(points)
    return _ols(xs, vs, xs)


def fit_power(points) -> FitResult:
    """OLS of ln(v) on ln(x): slope is the exponent b, intercept is ln(a)."""
    xs, vs = _split(points)
    if np.any(xs < 2):
        raise DomainError("power fit needs x >= 2")
    if np.any(vs <= 0):
        raise DomainError("power fit needs positive values")
    return _ols(_map(log, xs), _map(log, vs), xs)


def fit_hyperbolic_z(points) -> FitResult:
    """OLS of arcosh(count) on ln(x): recovers (z_slope, z_intercept)."""
    xs, vs = _split(points)
    if np.any(xs < 2):
        raise DomainError("hyperbolic fit needs x >= 2")
    if np.any(vs < 1):
        raise DomainError("arcosh undefined for counts below 1")
    return _ols(_map(log, xs), _map(acosh, vs), xs)


def power_coefficient(fit: FitResult) -> float:
    """The multiplier a recovered by fit_power (slope holds the exponent b)."""
    return exp(fit.intercept)
