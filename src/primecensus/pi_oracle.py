"""Exact combinatorial prime counting, independent of the sieve engine.

``prime_pi`` evaluates pi(n) in O(n^(3/4)) time and O(sqrt(n)) memory by
running a Legendre-style elimination over the distinct values of n // k,
held as two int64 arrays (``_legendre_sweep``).  It exists to
cross-check the census engine: the two never share sieve code.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import RangeTooLargeError

MAX_64BIT = 2**63 - 1
# Largest x whose square fits in a signed 64-bit integer (3,037,000,499).
MAX_SQUARE_BASE = isqrt(MAX_64BIT)


def _check_width(n: int) -> None:
    if n > MAX_64BIT:
        raise RangeTooLargeError(f"n={n} exceeds the 64-bit guard")


def _legendre_sweep(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate composites from the quotient table of n; returns (small, large).

    The table holds one count per distinct quotient n // k.  ``small[v]``
    is the count for key v (1 <= v <= isqrt(n)); ``large[k-1]`` is the
    count for key n // k (1 <= k <= isqrt(n)).  After the sweep every
    entry equals pi(key).

    Starts every key v at v - 1 (all integers in 2..v) and, for each prime
    p <= sqrt(n) in turn, removes the numbers whose least prime factor is p:
    S(v) -= S(v // p) - pi(p - 1).  Gathering the S(v // p) values before
    scattering keeps the update equivalent to the descending-key loop.
    """
    r = isqrt(n)
    ks = np.arange(1, r + 1, dtype=np.int64)
    large = n // ks - 1
    small = np.arange(-1, r, dtype=np.int64)
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p composite: no change at key p
        sp = int(small[p - 1])
        p2 = p * p
        kmax = min(r, n // p2)
        if kmax >= 1:
            kp = ks[:kmax] * p
            vals = np.empty(kmax, dtype=np.int64)
            in_large = kp <= r
            vals[in_large] = large[kp[in_large] - 1]
            in_small = ~in_large
            vals[in_small] = small[n // kp[in_small]]
            large[:kmax] -= vals - sp
        if p2 <= r:
            vals = small[np.arange(p2, r + 1, dtype=np.int64) // p].copy()
            small[p2:] -= vals - sp
    return small, large


def prime_pi(n: int) -> int:
    """Exact count of primes <= n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_width(n)
    if n < 2:
        return 0
    return int(_legendre_sweep(n)[1][0])


def pi_prefix(limit: int) -> np.ndarray:
    """pi(v) for every v in 0..limit, as one int64 array.

    Runs the elimination at n = limit**2 so that all of 0..limit land in
    the small half of the quotient table; one sweep yields the whole
    prefix without any per-n calls (and without touching a linear sieve).
    """
    if limit < 1:
        return np.zeros(max(limit + 1, 0), dtype=np.int64)
    _check_width(limit * limit)
    small, _ = _legendre_sweep(limit * limit)
    out = small[: limit + 1].copy()
    out[0] = 0
    return out


def count_in_range_oracle(x: int) -> int:
    """Primes in the closed range [x, x*x], via pi(x**2) - pi(x - 1)."""
    if x < 1:
        raise ValueError("x must be positive")
    if x > MAX_SQUARE_BASE:
        raise RangeTooLargeError(f"x={x}: x**2 exceeds the 64-bit guard")
    if x == 1:
        return 0
    return prime_pi(x * x) - prime_pi(x - 1)
