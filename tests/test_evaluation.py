import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecensus import (
    DomainError,
    EvaluationRow,
    MatchClass,
    average_relative_error,
    classify_match,
    difference_series,
    evaluate_difference_model,
    evaluate_model,
    model_spec,
    ratio_series,
    relative_error,
)
from primecensus.census import CensusRecord
from primecensus.evaluation import _classify


def _rec(x, count):
    return CensusRecord(x, x * x, count)


def _classes(preds, trues):
    return [list(MatchClass)[code] for code in _classify(preds, trues)]


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


def test_ratio_series_values():
    points = ratio_series([_rec(2, 2), _rec(10, 21)])
    assert points[0] == (2, 1.0)
    assert points[1].value == pytest.approx(90 / 21, rel=1e-15)


def test_ratio_series_rejects_x_equal_1():
    with pytest.raises(DomainError):
        ratio_series([CensusRecord(1, 1, 0), _rec(2, 2)])


def test_ratio_series_warns_on_zero_count():
    with pytest.warns(UserWarning):
        points = ratio_series([_rec(2, 2), _rec(3, 0)])
    assert [p.x for p in points] == [2]


def test_difference_series_values():
    points = difference_series([_rec(2, 2), _rec(3, 3)])
    assert points == [(3, 1.0)]
    points = difference_series([_rec(9, 18), _rec(10, 21)])
    assert points == [(10, 3.0)]


def test_difference_series_single_row_empty():
    assert difference_series([_rec(5, 7)]) == []


def test_difference_series_gap_error():
    with pytest.raises(DomainError, match="5 -> 7"):
        difference_series([_rec(5, 7), _rec(7, 12)])


def test_ratio_series_grows_across_decades(census_10k):
    by_x = {p.x: p.value for p in ratio_series(census_10k)}
    assert by_x[10] < by_x[100] < by_x[1000] < by_x[10000]


@pytest.mark.xfail(
    strict=True,
    reason="stated property is false on real counts: e.g. ratio(4)=3.0 but "
    "ratio(5)=20/7, and such dips recur sporadically up to 1e4",
)
def test_ratio_series_strictly_increasing_at_desk_scale(census_10k):
    values = [p.value for p in ratio_series(census_10k)]
    diffs = np.diff(values)
    violations = [census_10k[i + 1].x for i in np.flatnonzero(diffs <= 0)]
    assert not violations, f"ratio decreases at x={violations[:10]}"


# ---------------------------------------------------------------------------
# Relative error and match classes
# ---------------------------------------------------------------------------


def test_relative_error_examples():
    assert relative_error(21, 21) == 0.0
    assert relative_error(870497682.6, 865334106) == pytest.approx(0.0059671, abs=1e-7)
    assert relative_error(17.09507761, 865334106) == pytest.approx(0.99999998, abs=1e-8)
    with pytest.raises(DomainError):
        relative_error(1.0, 0)


def test_average_relative_error():
    rows = [
        EvaluationRow(2, 2, 2.0, 0.01, MatchClass.NONE),
        EvaluationRow(3, 3, 3.0, 0.03, MatchClass.NONE),
    ]
    assert average_relative_error(rows) == pytest.approx(0.02, rel=1e-15)
    zero = [EvaluationRow(2, 2, 2.0, 0.0, MatchClass.EXACT)] * 3
    assert average_relative_error(zero) == 0.0
    with pytest.raises(DomainError):
        average_relative_error([])


def test_average_is_additive_over_concatenation():
    # Dyadic errors keep the arithmetic exact.
    a = [EvaluationRow(2, 2, 0.0, 0.25, MatchClass.NONE)] * 4
    b = [EvaluationRow(3, 3, 0.0, 0.75, MatchClass.NONE)] * 12
    combined = average_relative_error(a + b)
    weighted = (4 * average_relative_error(a) + 12 * average_relative_error(b)) / 16
    assert combined == weighted


def test_classify_match_examples():
    assert classify_match(44026.3870890, 44026) is MatchClass.FLOOR
    assert classify_match(44026.0, 44026) is MatchClass.EXACT
    assert classify_match(44025.3, 44026) is MatchClass.CEIL
    assert classify_match(44030.0, 44026) is MatchClass.NONE


def test_classify_match_integer_prediction_prefers_exact():
    # floor and ceil both match an integer prediction; exact takes precedence.
    assert classify_match(7.0, 7) is MatchClass.EXACT


def test_classify_match_exact_means_equal_at_full_scale():
    # A 1e-9 relative tolerance would call anything within about 4 of a 4e9
    # count exact, pre-empting floor and ceil.
    true = 4_023_029_104
    cases = {
        4_023_029_104.0: MatchClass.EXACT,
        4_023_029_103.6: MatchClass.CEIL,
        4_023_029_104.3: MatchClass.FLOOR,
        4_023_029_101.2: MatchClass.NONE,
    }
    for prediction, expected in cases.items():
        assert classify_match(prediction, true) is expected, prediction
    preds = np.array(list(cases), dtype=np.float64)
    assert _classes(preds, np.full(len(cases), true, dtype=np.int64)) == list(cases.values())


def test_vector_classify_agrees_with_classify_match():
    rng = np.random.default_rng(7)
    trues = rng.integers(1, 5 * 10**9, size=2000)
    offsets = rng.choice([0.0, 1e-7, -1e-7, 0.3, -0.3, 0.99, -0.99, 2.5], size=trues.size)
    preds = trues.astype(np.float64) + offsets
    expected = [classify_match(float(p), int(t)) for p, t in zip(preds, trues)]
    assert _classes(preds, trues) == expected


@given(
    prediction=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    true_count=st.integers(min_value=1, max_value=10**12),
)
@settings(max_examples=200, deadline=None)
def test_classify_match_is_total_and_consistent(prediction, true_count):
    cls = classify_match(prediction, true_count)
    if cls is MatchClass.EXACT:
        assert abs(prediction - true_count) < 1e-9 * true_count
    elif cls is MatchClass.FLOOR:
        assert math.floor(prediction) == true_count
    elif cls is MatchClass.CEIL:
        assert math.ceil(prediction) == true_count
    else:
        assert math.floor(prediction) != true_count and math.ceil(prediction) != true_count


# ---------------------------------------------------------------------------
# Model evaluation
# ---------------------------------------------------------------------------


def test_bertrand_errors_on_small_census(census_1347):
    """Frozen from direct arithmetic: the bound is worthless even at small x.

    Note the commonly assumed 'all rows above one half' is narrowly false:
    x=2 and x=4 sit at exactly 0.5 and x=3 at about 0.4717.
    """
    summary = evaluate_model(census_1347[:21], model_spec("bertrand"))
    errors = {
        x: relative_error(math.log2(x), count)
        for x, _, count in census_1347[:21]
    }
    assert min(errors.values()) == pytest.approx(0.4716791664262813, rel=1e-12)  # x=3
    assert errors[2] == 0.5 and errors[4] == 0.5
    assert all(err > 0.5 for x, err in errors.items() if x >= 5)
    assert summary.average_relative_error == pytest.approx(
        math.fsum(errors.values()) / 21, rel=1e-12
    )


def test_custom_ratio_rounds_to_zero_percent_at_140001(reference_140k_rows):
    summary = evaluate_model(reference_140k_rows[:1], model_spec("custom_ratio"))
    assert summary.average_relative_error < 0.00005  # formats as 0.00%


def test_custom_ratio_floor_match_at_731(census_1347):
    row = [r for r in census_1347 if r.x == 731]
    summary = evaluate_model(row, model_spec("custom_ratio"))
    assert summary.tally() == {"exact": 0, "floor": 1, "ceil": 0, "none": 0}


def test_golden_error_band_at_140k(reference_140k_rows):
    """Every model except bertrand and polynomial stays within 0.61% here."""
    from primecensus.evaluation import evaluation_rows

    for kind in ("hyperbolic", "power_series", "conic", "custom_ratio"):
        summary = evaluate_model(reference_140k_rows, model_spec(kind))
        assert summary.average_relative_error <= 0.0061, kind
        worst = max(r.relative_error for r in evaluation_rows(reference_140k_rows, model_spec(kind)))
        assert worst <= 0.0061, kind


def test_evaluate_model_propagates_domain_error_with_x():
    with pytest.raises(DomainError, match="custom_ratio"):
        evaluate_model([CensusRecord(1, 1, 1)], model_spec("custom_ratio"))


def test_evaluate_model_streams_rows_to_sink(census_1347):
    seen = []
    summary = evaluate_model(census_1347[:50], model_spec("power_series"), on_row=seen.append)
    assert len(seen) == summary.n_rows == 50
    assert seen[0].x == 2


def test_evaluate_difference_model_exact_line():
    counts = [100]
    for x in range(3, 60):
        counts.append(counts[-1] + 3 * x + 7)
    census = [_rec(x, c) for x, c in zip(range(2, 60), counts)]
    spec = model_spec("difference_line", slope=3.0, intercept=7.0)
    summary = evaluate_difference_model(census, spec)
    assert summary.average_relative_error == 0.0
    assert summary.exact == summary.n_rows


def test_evaluate_difference_model_two_rows():
    summary = evaluate_difference_model([_rec(2, 2), _rec(3, 3)])
    expected = relative_error(0.0755 * 3 + 1018.8, 1)
    assert summary.n_rows == 1
    assert summary.average_relative_error == pytest.approx(expected, rel=1e-12)


def test_evaluate_difference_model_gap_error():
    with pytest.raises(DomainError, match="5 -> 7"):
        evaluate_difference_model([_rec(4, 5), _rec(5, 7), _rec(7, 12)])


def test_evaluate_difference_model_needs_two_rows():
    with pytest.raises(DomainError):
        evaluate_difference_model([_rec(2, 2)])
