"""Exact combinatorial prime counting, independent of the sieve engine.

``prime_pi`` evaluates pi(n) in O(n^(3/4)) time and O(sqrt(n)) memory by
running a Legendre-style elimination over the distinct values of n // k.
It exists to cross-check the census engine: the two never share sieve code.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import RangeTooLargeError

MAX_64BIT = 2**63 - 1
# Largest x whose square fits in a signed 64-bit integer (3,037,000,499).
MAX_SQUARE_BASE = isqrt(MAX_64BIT)


def _check_width(n: int) -> None:
    if n > MAX_64BIT:
        raise RangeTooLargeError(f"n={n} exceeds the 64-bit guard")


@dataclass
class QuotientTable:
    """Counts indexed by the distinct quotients n // k.

    ``small[v]`` holds the running count for key v (v <= isqrt(n));
    ``large[k-1]`` holds it for key n // k (k <= isqrt(n)).  After the
    elimination sweep every entry equals pi(key).
    """

    n: int
    root: int
    small: np.ndarray
    large: np.ndarray

    def key_count(self) -> int:
        # Keys are 1..root plus the distinct n//k; the two runs overlap in
        # at most one value, so this never exceeds 2*sqrt(n).
        distinct_large = len({self.n // k for k in range(1, self.root + 1)})
        return self.root + distinct_large - (1 if self.n // self.root == self.root else 0)

    def value(self, key: int) -> int:
        if key <= self.root:
            return int(self.small[key])
        k = self.n // key
        if self.n // k != key:
            raise KeyError(f"{key} is not a quotient of {self.n}")
        return int(self.large[k - 1])


def _legendre_sweep(n: int) -> QuotientTable:
    """Eliminate composites from the quotient table of n.

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
    return QuotientTable(n=n, root=r, small=small, large=large)


def prime_pi(n: int) -> int:
    """Exact count of primes <= n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_width(n)
    if n < 2:
        return 0
    return int(_legendre_sweep(n).large[0])


def pi_prefix(limit: int) -> np.ndarray:
    """pi(v) for every v in 0..limit, as one int64 array.

    Runs the elimination at n = limit**2 so that all of 0..limit land in
    the small half of the quotient table; one sweep yields the whole
    prefix without any per-n calls (and without touching a linear sieve).
    """
    if limit < 1:
        return np.zeros(max(limit + 1, 0), dtype=np.int64)
    _check_width(limit * limit)
    table = _legendre_sweep(limit * limit)
    out = table.small[: limit + 1].copy()
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
