"""Test-side reference for prime counting, independent of the package."""

from math import isqrt

import numpy as np


def naive_pi_table(n: int) -> np.ndarray:
    """Brute-force cumulative pi(0..n) by trial sieve; the test-side oracle."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    p = 2
    while p * p <= n:
        if flags[p]:
            flags[p * p :: p] = False
        p += 1
    return np.cumsum(flags, dtype=np.int64)


def legendre_sweep_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-loop Legendre sweep the package used before it was split into phases.

    Same (small, large) contract as ``primecensus.pi_oracle._legendre_sweep``:
    ``small[v]`` = pi(v) for 1 <= v <= isqrt(n), ``large[k-1]`` = pi(n // k).
    Every p in 2..isqrt(n) is visited and tested for primality on the
    table itself; each prime updates every key >= p*p from a gather.
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
