import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecensus import (
    DomainError,
    SingularDesignError,
    fit_hyperbolic_z,
    fit_line,
    fit_log_linear,
    fit_power,
    power_coefficient,
)
from primecensus import fitting
from primecensus.census import CENSUS_DTYPE
from primecensus.evaluation import score
from primecensus.fitting import exact_sum
from primecensus.models import COUNT_MODEL_KINDS, model_spec


def test_log_linear_exact_recovery():
    points = [(x, 2.0 * math.log(x) - 1.0) for x in range(2, 101)]
    fit = fit_log_linear(points)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 99
    assert fit.domain == (2.0, 100.0)


def test_log_linear_two_points():
    fit = fit_log_linear([(2, 1.0), (4, 3.0)])
    assert fit.slope == pytest.approx(2.0 / math.log(2), rel=1e-12)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-12)


def test_log_linear_rejects_small_x_and_singular_design():
    with pytest.raises(DomainError):
        fit_log_linear([(1, 0.0), (2, 1.0)])
    with pytest.raises(SingularDesignError):
        fit_log_linear([(5, 1.0), (5, 2.0)])
    with pytest.raises(SingularDesignError):
        fit_log_linear([(5, 1.0)])


def test_line_exact_recovery():
    fit = fit_line([(x, 3.0 * x + 7.0) for x in range(1, 50)])
    assert fit.slope == pytest.approx(3.0, abs=1e-9)
    assert fit.intercept == pytest.approx(7.0, abs=1e-9)


def test_line_collinear_points():
    fit = fit_line([(1, 1.0), (2, 2.0), (3, 3.0)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_power_exact_recovery():
    fit = fit_power([(x, 2.0 * x**3) for x in range(2, 40)])
    assert fit.slope == pytest.approx(3.0, abs=1e-9)
    assert power_coefficient(fit) == pytest.approx(2.0, rel=1e-9)


def test_power_single_decade():
    fit = fit_power([(x, 5.0 * x**2) for x in range(2, 21)])
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert power_coefficient(fit) == pytest.approx(5.0, rel=1e-9)


def test_power_rejects_nonpositive_values():
    with pytest.raises(DomainError):
        fit_power([(2, 1.0), (3, -1.0)])


def test_hyperbolic_z_exact_recovery():
    points = [(x, math.cosh(2.0 * math.log(x) - 1.0)) for x in range(2, 200)]
    fit = fit_hyperbolic_z(points)
    assert fit.slope == pytest.approx(2.0, abs=1e-6)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-6)


def test_hyperbolic_z_domain_and_singular():
    with pytest.raises(DomainError):
        fit_hyperbolic_z([(2, 0.5), (3, 2.0)])
    with pytest.raises(SingularDesignError):
        fit_hyperbolic_z([(7, 2.0), (7, 3.0)])


def test_residuals_orthogonal_to_design(census_1347):
    points = [(r.x, (r.x_squared - r.x) / r.prime_count) for r in census_1347]
    fit = fit_log_linear(points)
    ts = [math.log(x) for x, _ in points]
    residuals = [v - (fit.slope * t + fit.intercept) for (_, v), t in zip(points, ts)]
    scale = max(abs(v) for _, v in points) * len(points)
    assert abs(math.fsum(residuals)) / scale < 1e-8
    assert abs(math.fsum(r * t for r, t in zip(residuals, ts))) / scale < 1e-8


def test_round_trip_from_own_result():
    fit = fit_log_linear([(x, 0.75 * math.log(x) + 4.25) for x in range(2, 300, 3)])
    regenerated = [(x, fit.slope * math.log(x) + fit.intercept) for x in range(2, 300, 3)]
    again = fit_log_linear(regenerated)
    assert again.slope == pytest.approx(fit.slope, rel=1e-12)
    assert again.intercept == pytest.approx(fit.intercept, rel=1e-12)


@given(scale=st.floats(min_value=0.125, max_value=64.0), shift=st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=40, deadline=None)
def test_line_fit_is_linear_in_v(scale, shift):
    base = [(x, 1.5 * x + shift) for x in range(1, 30)]
    fit = fit_line(base)
    scaled = fit_line([(x, scale * v) for x, v in base])
    assert scaled.slope == pytest.approx(scale * fit.slope, rel=1e-9, abs=1e-12)
    assert scaled.intercept == pytest.approx(scale * fit.intercept, rel=1e-9, abs=1e-9)


def _reference_ols(ts, vs):
    """The scalar least-squares loop the array fit replaced: (slope, intercept, r_squared)."""
    n = len(ts)
    t_mean, v_mean = math.fsum(ts) / n, math.fsum(vs) / n
    slope = math.fsum((t - t_mean) * (v - v_mean) for t, v in zip(ts, vs)) / math.fsum((t - t_mean) ** 2 for t in ts)
    intercept = v_mean - slope * t_mean
    ss_res = math.fsum((v - (slope * t + intercept)) ** 2 for t, v in zip(ts, vs))
    ss_tot = math.fsum((v - v_mean) ** 2 for v in vs)
    return slope, intercept, max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


@given(
    st.lists(
        st.tuples(st.integers(min_value=2, max_value=10**6), st.floats(min_value=1.0, max_value=1e9)),
        min_size=3,
        max_size=60,
        unique_by=lambda p: p[0],
    )
)
@settings(max_examples=60, deadline=None)
def test_array_fits_agree_with_the_scalar_loop(points):
    # Squares are d*d on arrays against d**2 (libm pow) in the loop, which
    # can differ in the last bit, so agreement is to a relative 1e-9.
    xs = [float(x) for x, _ in points]
    vs = [v for _, v in points]
    logs = [math.log(x) for x in xs]
    cases = [
        (fit_log_linear, logs, vs),
        (fit_line, xs, vs),
        (fit_power, logs, [math.log(v) for v in vs]),
        (fit_hyperbolic_z, logs, [math.acosh(v) for v in vs]),
    ]
    for fit_fn, ts, us in cases:
        fit = fit_fn(points)
        assert fit_fn(np.array(points)) == fit  # an (n, 2) array is the same input
        if max(us) == min(us):
            continue  # r_squared is pinned to 1.0 there
        slope, intercept, r_squared = _reference_ols(ts, us)
        scale = max(abs(slope), abs(intercept), 1.0)
        assert fit.slope == pytest.approx(slope, rel=1e-9, abs=1e-9 * scale)
        assert fit.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9 * scale)
        assert fit.r_squared == pytest.approx(r_squared, rel=1e-9, abs=1e-9)
        assert fit.n_points == len(points) and fit.domain == (min(xs), max(xs))


# ---------------------------------------------------------------------------
# exact_sum against math.fsum
# ---------------------------------------------------------------------------


def assert_same_as_fsum(values):
    """exact_sum gives math.fsum's float bit for bit, or raises its error
    with its message; only input off the exact path (a NaN or infinity, or
    a sum that could reach 2**1000) reaches math.fsum."""
    a = np.asarray(values, dtype=np.float64)
    try:
        expected = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        expected = exc
    with np.errstate(over="ignore"):
        in_range = bool(np.isfinite(a).all()) and float(np.abs(a).max(initial=0.0)) * a.size < 2.0**1000
    with mock.patch.object(fitting, "fsum", wraps=math.fsum) as fallback:
        if isinstance(expected, Exception):
            with pytest.raises(type(expected), match=re.escape(str(expected))):
                exact_sum(a)
        else:
            assert struct.pack("<d", exact_sum(a)) == struct.pack("<d", expected)
    assert fallback.called == (not in_range)


@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=80))
@settings(max_examples=300, deadline=None)
def test_exact_sum_is_fsum_from_subnormal_to_1e300(values):
    assert_same_as_fsum(values)


@given(
    st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=40),
    st.lists(st.floats(min_value=-1e-300, max_value=1e-300), max_size=10),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_exact_sum_is_fsum_under_heavy_cancellation(values, crumbs, rng):
    # Each value cancels against its negation and its neighbours in ulps,
    # so the sum is made of the smallest bits of every value.
    mixed = values + [-v for v in values] + [math.nextafter(v, 0.0) - v for v in values] + crumbs
    rng.shuffle(mixed)
    assert_same_as_fsum(mixed)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [-0.0],
        [-0.0, -0.0, -0.0],
        [0.0, -0.0],
        [0.0] * 1000,
        [5e-324],
        [5e-324] * 7 + [-5e-324],
        [5e-324, 1e300, -1e300],
        [2.0**-1022, -(2.0**-1074)],
        [1.0, 1e100, 1.0, -1e100],
        [0.1] * 10,
        [float("nan")],
        [1.0, float("nan"), 2.0],
        [float("inf"), 1.0],
        [float("-inf"), -1e308],
        [float("inf"), float("-inf")],
        [float("inf"), 1e308, 1e308],
        [1e308, 1e308],
        [1e308, 1e308, -1e308],
        [-1.7976931348623157e308, -1.7976931348623157e308],
        [1.7976931348623157e308, 9.9e291],
        [2.0**1000, -(2.0**1000), 1.0],
        [2.0**999, 2.0**999, 3.0],
        [2.0**998] * 3,
    ],
)
def test_exact_sum_is_fsum_at_the_edges(values):
    assert_same_as_fsum(values)


def test_exact_sum_reads_columns_and_sequences():
    points = np.arange(12.0).reshape(6, 2) / 7.0
    assert exact_sum(points[:, 1]) == math.fsum(points[:, 1].tolist())  # a strided column
    assert exact_sum([1, 2, 3]) == 6.0


@pytest.fixture(scope="module")
def scores_450k():
    """The six count models' scores on a seeded census of x = 2..449,999
    whose counts follow the custom_ratio curve within +-5%."""
    x = np.arange(2, 450_000)
    curve = (x * x - x) / (2.0038 * np.log(x) - 1.0932)
    table = np.empty(x.size, dtype=CENSUS_DTYPE)
    table["x"], table["x_squared"] = x, x * x
    table["prime_count"] = np.rint(curve * np.random.default_rng(11).uniform(0.95, 1.05, x.size))
    return [score(table, model_spec(kind)) for kind in COUNT_MODEL_KINDS]


def test_exact_sum_is_fsum_on_the_450k_scores(scores_450k):
    for scores in scores_450k:
        assert_same_as_fsum(scores.relative_error)
        assert_same_as_fsum(scores.prediction)
