import numpy as np
import pytest

from primecensus import RangeTooLargeError, count_in_range_oracle, pi_prefix, prime_pi
from primecensus.pi_oracle import _legendre_sweep

from pi_reference import naive_pi_table


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
        table = _legendre_sweep(n)
        assert table.key_count() <= 2 * int(np.sqrt(n)) + 1
        assert table.value(n) == prime_pi(n)


def test_count_in_range_oracle_values():
    assert count_in_range_oracle(1) == 0
    assert count_in_range_oracle(5) == 7
    assert count_in_range_oracle(731) == 44026


def test_width_guards():
    with pytest.raises(RangeTooLargeError):
        prime_pi(2**63)
    with pytest.raises(RangeTooLargeError):
        count_in_range_oracle(3_037_000_500)
    with pytest.raises(ValueError):
        prime_pi(-1)
    with pytest.raises(ValueError):
        count_in_range_oracle(0)
