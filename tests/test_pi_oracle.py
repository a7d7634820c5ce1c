import os
import subprocess
import sys
import tracemalloc
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from primecensus import RangeTooLargeError, count_in_range_oracle, pi_prefix, prime_pi
from primecensus import pi_oracle
from primecensus.pi_oracle import _CHUNK, _legendre_sweep

from pi_reference import legendre_sweep_reference, naive_pi_table


# pi(0..20,000) by trial sieve: the reference tables of every n up to it.
_NAIVE_LIMIT = 20_000
_NAIVE_PI = naive_pi_table(_NAIVE_LIMIT)


def _reference_tables(n):
    """(small, large) as the sweep must leave them: from the trial sieve's
    pi table for n <= _NAIVE_LIMIT, from the one-loop sweep above it."""
    if n > _NAIVE_LIMIT:
        return legendre_sweep_reference(n)
    keys = np.arange(1, isqrt(n) + 1)
    return np.concatenate(([-1], _NAIVE_PI[keys])), _NAIVE_PI[n // keys]


def _assert_tables_match_reference(n):
    small, large = _legendre_sweep(n)
    ref_small, ref_large = _reference_tables(n)
    assert small.dtype == np.int32 and large.dtype == np.int64
    assert np.array_equal(small, ref_small), f"small half differs at n={n}"
    assert np.array_equal(large, ref_large), f"large half differs at n={n}"


def _phase_boundaries():
    """n at which a prime enters a phase's edge: m**2, m**3, m**4 (and one
    below each) for small m, and p**2 for primes p of every size."""
    ns = set()
    for m in (*range(2, 32), 97, 101, 127, 210, 211):
        for e in (2, 3, 4):
            ns.update((m**e, m**e - 1))
    ns.update(p * p for p in (2, 3, 5, 7, 1009, 9973, 31607, 99991))
    return sorted(n for n in ns if n >= 2)


# One seeded n per decade from 1e6 to 1e12.
_SEEDED_N = [int(10 ** (d + u)) for d, u in zip(range(6, 12), np.random.default_rng(1).uniform(0, 1, 6))]


def test_small_values():
    assert prime_pi(0) == 0
    assert prime_pi(1) == 0
    assert prime_pi(2) == 1
    assert prime_pi(10) == 4
    assert prime_pi(100) == 25


def test_pointwise_agrees_with_trial_sieve_up_to_3000():
    table = naive_pi_table(3000)
    for n in range(3001):
        assert prime_pi(n) == int(table[n]), f"pi({n})"


@pytest.mark.parametrize("n", [10**4, 123_456, 10**6])
def test_spot_values_against_trial_sieve(n):
    assert prime_pi(n) == int(naive_pi_table(n)[n])


def test_prefix_matches_pointwise():
    prefix = pi_prefix(500)
    for n in (0, 1, 2, 3, 499, 500):
        assert int(prefix[n]) == prime_pi(n)


def test_non_decreasing_steps_of_at_most_one():
    prefix = pi_prefix(2000)
    steps = np.diff(prefix)
    assert np.all(steps >= 0)
    assert np.all(steps <= 1)


def test_quotient_table_shape_and_final_value():
    for n in (10, 97, 1000, 99_991):
        small, large = _legendre_sweep(n)
        r = isqrt(n)
        assert small.shape == (r + 1,) and large.shape == (r,)
        reference = naive_pi_table(n)
        keys = np.arange(1, r + 1)
        assert np.array_equal(small[1:], reference[keys]), n  # small[v] = pi(v)
        assert np.array_equal(large, reference[n // keys]), n  # large[k-1] = pi(n // k)
        assert large[0] == prime_pi(n)


def test_count_in_range_oracle_values():
    assert count_in_range_oracle(1) == 0
    assert count_in_range_oracle(5) == 7
    assert count_in_range_oracle(731) == 44026
    for x in (2, 3, 4, 97, 100, 1000, 65_521):
        assert count_in_range_oracle(x) == prime_pi(x * x) - prime_pi(x - 1), x


def test_width_guards():
    with pytest.raises(RangeTooLargeError):
        prime_pi(2**63)
    with pytest.raises(RangeTooLargeError):
        count_in_range_oracle(3_037_000_500)
    with pytest.raises(ValueError):
        prime_pi(-1)
    with pytest.raises(ValueError):
        count_in_range_oracle(0)


def test_sweep_matches_reference_for_every_n_to_20000():
    for n in range(2, 20_001):
        _assert_tables_match_reference(n)


@pytest.mark.parametrize("n", _phase_boundaries())
def test_sweep_matches_reference_at_phase_boundaries(n):
    _assert_tables_match_reference(n)


@pytest.mark.parametrize("n", _SEEDED_N)
def test_sweep_matches_reference_at_seeded_n(n):
    _assert_tables_match_reference(n)


# Chunk sizes for the work buffers, each with the largest phase boundary
# it is checked at: with a few entries per chunk, a sweep at n = 1e10
# would run millions of chunks.
_SMALL_CHUNKS = {1: 10**5, 7: 10**7, 64: 10**9}


@pytest.mark.parametrize("chunk", sorted(_SMALL_CHUNKS))
def test_sweep_matches_reference_with_small_chunks(monkeypatch, chunk):
    # Tiny buffers cut every update into many chunks and every phase-3
    # row into many pieces.
    monkeypatch.setattr(pi_oracle, "_CHUNK", chunk)
    for n in range(2, 3001):
        _assert_tables_match_reference(n)
    for n in _phase_boundaries():
        if n <= _SMALL_CHUNKS[chunk]:
            _assert_tables_match_reference(n)


@pytest.mark.parametrize("r", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK])
def test_sweep_matches_reference_where_r_meets_the_chunk(r):
    _assert_tables_match_reference(r * r)


@pytest.mark.parametrize(
    "n, expected", [(10**10, 455_052_511), (10**11, 4_118_054_813), (10**12, 37_607_912_018)]
)
def test_published_prime_counts(n, expected):
    assert prime_pi(n) == expected


def test_small_half_is_int32_below_2_to_the_62():
    for n in (2, 10**6, 2**31, 10**12):
        small, large = _legendre_sweep(n)
        assert small.dtype == np.int32 and large.dtype == np.int64, n
    assert pi_prefix(1000).dtype == np.int64
    assert pi_prefix(0).dtype == np.int64
    # From n = 2**62 on, isqrt(n) >= 2**31 would not fit in int32: every
    # entry point refuses such an n before it allocates anything.
    pi_oracle._check_width(2**62 - 1)
    tracemalloc.start()
    try:
        for call, arg in ((prime_pi, 2**62), (pi_prefix, 2**31), (count_in_range_oracle, 2**31)):
            with pytest.raises(RangeTooLargeError, match=r"n < 2\*\*62"):
                call(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, f"{peak} bytes allocated before the refusal"


@pytest.mark.skipif(
    os.environ.get("PRIMECENSUS_FULL_SCALE") != "1",
    reason="opt-in with PRIMECENSUS_FULL_SCALE=1: about 30 s and 250 MB on a 2-core Xeon",
)
def test_prime_pi_1e14_within_256_mib():
    # A fresh process, so ru_maxrss is this call's peak and nothing else's.
    code = (
        "import resource; from primecensus import prime_pi; "
        "print(prime_pi(10**14), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pi_oracle.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    count, maxrss_kib = map(int, done.stdout.split())
    assert count == 3_204_941_750_802
    assert maxrss_kib < 256 * 1024, f"ru_maxrss {maxrss_kib} KiB"
