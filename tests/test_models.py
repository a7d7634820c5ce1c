import math

import numpy as np
import pytest

from primecensus import (
    DomainError,
    model_spec,
    predict,
)
from primecensus.models import ALL_MODEL_KINDS, COUNT_MODEL_KINDS, DEFAULT_CONSTANTS


def test_model_spec_defaults_and_overrides():
    spec = model_spec("hyperbolic")
    assert spec.constants == {"z_slope": 1.9023, "z_intercept": -1.2634}
    spec = model_spec("hyperbolic", z_slope=1.9029)
    assert spec.constants == {"z_slope": 1.9029, "z_intercept": -1.2634}
    with pytest.raises(ValueError):
        model_spec("hyperbolic", bogus=1.0)
    with pytest.raises(ValueError):
        model_spec("not_a_model")


# Expected values below were computed by direct arithmetic on the published
# constants (math.cosh / math.log / math.log2 on scalars) and frozen.


def test_hyperbolic_values():
    assert predict(1, model_spec("hyperbolic")) == pytest.approx(1.9100597804727628, rel=1e-12)
    assert predict(10, model_spec("hyperbolic")) == pytest.approx(11.309248741600815, rel=1e-12)
    assert predict(140001, model_spec("hyperbolic")) == pytest.approx(870497682.6, rel=1e-3)


def test_power_values():
    assert predict(1, model_spec("power_series")) == 0.141294556371966
    assert predict(10, model_spec("power_series")) == pytest.approx(11.284091169146153, rel=1e-12)
    assert predict(140001, model_spec("power_series")) == pytest.approx(870607669.3, rel=1e-6)


def test_polynomial_clamps_to_x():
    # Raw quadratic is about -3e7 at both x=10 and x=100.
    assert predict(10, model_spec("polynomial")) == 10.0
    assert predict(100, model_spec("polynomial")) == 100.0
    assert predict(140001, model_spec("polynomial")) == pytest.approx(707139663.2457, abs=0.0001)


def test_conic_values():
    # Unclamped root is about -1.31e7 at both x=1 and x=10: clamp wins.
    assert predict(1, model_spec("conic")) == 1.0
    assert predict(10, model_spec("conic")) == 10.0
    assert predict(140001, model_spec("conic")) == pytest.approx(865796268.5, rel=1e-6)


def test_custom_ratio_values():
    assert predict(2, model_spec("custom_ratio")) == pytest.approx(6.762964051782773, rel=1e-12)
    assert predict(731, model_spec("custom_ratio")) == pytest.approx(44026.3870890, abs=1e-3)
    assert predict(140001, model_spec("custom_ratio")) == pytest.approx(865323992, rel=1e-6)


def test_custom_ratio_domain():
    with pytest.raises(DomainError):
        predict(1, model_spec("custom_ratio"))
    with pytest.raises(DomainError):
        predict(np.array([5.0, 1.0]), model_spec("custom_ratio"))


def test_bertrand_values():
    assert predict(2, model_spec("bertrand")) == 1.0
    assert predict(1024, model_spec("bertrand")) == 10.0
    assert predict(140001, model_spec("bertrand")) == pytest.approx(17.09507761, abs=1e-6)


def test_bertrand_is_half_of_log2_square():
    for x in (2, 17, 1024, 140001, 449999):
        assert 2.0 * predict(x, model_spec("bertrand")) == pytest.approx(math.log2(x * x), rel=1e-15)


def test_difference_line_values():
    assert predict(0, model_spec("difference_line")) == pytest.approx(1018.8, rel=1e-12)
    assert predict(10000, model_spec("difference_line")) == pytest.approx(1773.8, rel=1e-12)
    assert predict(140001, model_spec("difference_line")) == pytest.approx(11588.8755, rel=1e-9)


def test_predict_dispatch_and_vectorization():
    xs = np.array([2.0, 10.0, 731.0])
    for kind in ALL_MODEL_KINDS:
        spec = model_spec(kind)
        vec = predict(xs, spec)
        assert vec.shape == (3,)
        for i, x in enumerate(xs):
            assert vec[i] == predict(float(x), spec)


def test_clamped_models_never_fall_below_x():
    xs = np.arange(1, 200001, dtype=np.float64)
    assert np.all(predict(xs, model_spec("polynomial")) >= xs)
    assert np.all(predict(xs, model_spec("conic")) >= xs)


def test_conic_discriminant_nonnegative_over_published_domain():
    c = DEFAULT_CONSTANTS["conic"]
    xs = np.arange(2, 450000, dtype=np.float64)
    s = c["B"] * xs + c["E"]
    g = c["A"] * xs * xs + c["D"] * xs + c["F"]
    disc = s * s - 4.0 * c["C"] * g
    assert np.all(disc >= 0)


def test_conic_domain_error_reports_x():
    # Force a negative discriminant with a hostile constant set.
    spec = model_spec("conic", A=1.0, B=0.0, C=1.0, D=0.0, E=0.0, F=1.0)
    with pytest.raises(DomainError, match="x=3"):
        predict(3, spec)


def test_five_predictors_strictly_increasing_from_2():
    xs = np.arange(2, 100001, dtype=np.float64)
    for kind in COUNT_MODEL_KINDS:
        if kind == "custom_ratio":
            continue  # see test below: its first step goes down
        values = predict(xs, model_spec(kind))
        assert np.all(np.diff(values) > 0), kind


def test_custom_ratio_strictly_increasing_from_3():
    xs = np.arange(3, 100001, dtype=np.float64)
    values = predict(xs, model_spec("custom_ratio"))
    assert np.all(np.diff(values) > 0)


@pytest.mark.xfail(
    strict=True,
    reason="stated property is false at one point: the ratio model decreases "
    "from x=2 (6.7630) to x=3 (5.4142) before climbing monotonically",
)
def test_all_predictors_strictly_increasing_from_2_as_stated():
    xs = np.arange(2, 100001, dtype=np.float64)
    for kind in COUNT_MODEL_KINDS:
        values = predict(xs, model_spec(kind))
        assert np.all(np.diff(values) > 0), kind


def test_hyperbolic_alternate_slope_reachable():
    spec = model_spec("hyperbolic", z_slope=1.9029)
    assert predict(140001, spec) == pytest.approx(876708663.0, rel=1e-6)
