"""Exact combinatorial prime counting, independent of the sieve engine.

``prime_pi`` evaluates pi(n) in O(n^(3/4)) time and O(sqrt(n)) memory by
running a Legendre-style elimination over the distinct values of n // k,
held as two int64 arrays (``_legendre_sweep``).  It exists to
cross-check the census engine: the two never share sieve code.

The sweep takes the primes p <= sqrt(n) in three phases; each prime
updates every key v >= p*p from the table as the smaller primes left it.

1. p <= n^(1/4), about 120 primes at 2e11: these are the primes that also
   change the small half (keys <= sqrt(n)).  Each is found on the table
   itself and updated with one strided read of the large half and one
   gather from the small half.
2. n^(1/4) < p <= n^(1/3), about 640 primes: the small half is now exact,
   so it lists every prime <= sqrt(n) and gives pi(p - 1) as the prime's
   index.  Each prime updates the large half as in phase 1.
3. p > n^(1/3), about 36,000 primes: let p0 be the smallest of them, so
   p0**3 > n.  Each writes only entries large[k-1] with
   k <= n // p**2 <= n // p0**2 < p0, and reads only the exact small half
   and large entries at index k*p - 1 >= p0 - 1.  No prime of this phase
   reads an entry another one writes, so their updates commute: one loop
   over the keys k = 1 .. n // p0**2 (about 5,800 at 2e11) applies each
   key's terms from all primes at once, and the pi(p - 1) terms sum as
   an arithmetic series.
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
    S(v) -= S(v // p) - pi(p - 1), for every key v >= p*p, in the three
    phases of the module docstring.
    """
    r = isqrt(n)
    keys = n // np.arange(1, r + 1, dtype=np.int64)
    large = keys - 1
    small = np.arange(-1, r, dtype=np.int64)

    def sieve_large(p: int, sp: int) -> None:
        # Keys n // k >= p*p, i.e. k <= n // p**2.  For k <= r // p the key
        # n // (k*p) is a large key; otherwise it is small, n // k // p.
        kmax = min(r, n // (p * p))
        a = min(kmax, r // p)
        large[:a] -= large[p - 1 : a * p : p] - sp
        large[a:kmax] -= small[keys[a:kmax] // p] - sp

    # Phase 1, p <= n**(1/4): the only primes that also change the small half.
    for p in range(2, isqrt(r) + 1):
        if small[p] == small[p - 1]:
            continue  # p composite: no change at key p
        sp = int(small[p - 1])
        sieve_large(p, sp)
        small[p * p :] -= np.repeat(small[p : r // p + 1], p)[: r - p * p + 1] - sp

    # The small half is now exact, so it lists the primes <= r, and the
    # i-th of them (from 0) has pi(p - 1) = i.
    primes = np.flatnonzero(np.diff(small[1:])) + 2
    first = int(np.searchsorted(primes, isqrt(r), side="right"))
    tail = int(np.count_nonzero(primes * primes <= n // primes))  # p**3 <= n

    # Phase 2, n**(1/4) < p <= n**(1/3): large half only, prime by prime.
    for i in range(first, tail):
        sieve_large(int(primes[i]), i)

    # Phase 3, p > n**(1/3): the updates commute (module docstring), so
    # they go key by key, each summed over the primes with p*p <= n // k.
    ps = primes[tail:]
    if ps.size:
        kmax = min(r, n // int(ps[0]) ** 2)
        ps_less1 = ps - 1
        counts = np.searchsorted(ps * ps, keys[:kmax], side="right").tolist()
        splits = np.searchsorted(ps, r // np.arange(1, kmax + 1), side="right").tolist()
        for k, key, c, m in zip(range(1, kmax + 1), keys[:kmax].tolist(), counts, splits):
            m = min(m, c)  # primes with k*p <= r read large[k*p - 1], i.e. large[k-1::k][p-1]
            total = large[k - 1 :: k][ps_less1[:m]].sum() + small[key // ps[m:c]].sum()
            large[k - 1] -= total - (c * tail + c * (c - 1) // 2)
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
    """Primes in the closed range [x, x*x], via pi(x**2) - pi(x - 1).

    Both terms come from the one sweep at x**2.
    """
    if x < 1:
        raise ValueError("x must be positive")
    if x > MAX_SQUARE_BASE:
        raise RangeTooLargeError(f"x={x}: x**2 exceeds the 64-bit guard")
    if x == 1:
        return 0
    small, large = _legendre_sweep(x * x)
    return int(large[0] - small[x - 1])  # x - 1 <= isqrt(x**2): a small key
