"""Test-side reference for prime counting, independent of the package."""

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
