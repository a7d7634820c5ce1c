import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecensus import DomainError, PlotConfig, model_spec, render
from primecensus.evaluation import ratio_series
from primecensus.models import COUNT_MODEL_KINDS
from primecensus.plotting import _decimate

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}


def _polylines(document):
    root = ET.fromstring(document)
    return root.findall(".//svg:polyline", SVG_NS)


def _points(polyline):
    return [tuple(float(c) for c in pair.split(",")) for pair in polyline.get("points").split()]


@pytest.fixture(scope="module")
def census_1000(census_1347):
    return census_1347[:999]


def test_count_plot_structure(census_1000):
    document = render(census_1000, PlotConfig(kind="count"))
    polylines = _polylines(document)  # also proves the XML is well-formed
    assert len(polylines) == 1
    assert len(_points(polylines[0])) == 999


def test_ratio_and_difference_plot_structure(census_1000):
    for kind, expected_points in (("ratio", 999), ("difference", 998)):
        document = render(census_1000, PlotConfig(kind=kind))
        polylines = _polylines(document)
        assert len(polylines) == 1
        assert len(_points(polylines[0])) == expected_points


def test_compare_plot_has_truth_plus_models_and_legend(census_1000):
    specs = [model_spec(kind) for kind in COUNT_MODEL_KINDS]
    document = render(census_1000, PlotConfig(kind="compare"), models=specs)
    polylines = _polylines(document)
    assert len(polylines) == 1 + len(specs)
    root = ET.fromstring(document)
    legend_groups = [g for g in root.findall(".//svg:g", SVG_NS) if g.findall("svg:text", SVG_NS)]
    legend_texts = [t.text for t in legend_groups[0].findall("svg:text", SVG_NS)]
    assert legend_texts == ["census"] + list(COUNT_MODEL_KINDS)


def test_repeated_renders_are_byte_identical(census_1000):
    config = PlotConfig(kind="compare")
    specs = [model_spec("custom_ratio"), model_spec("bertrand")]
    first = render(census_1000, config, models=specs)
    second = render(census_1000, config, models=specs)
    assert first == second
    assert render(census_1000, PlotConfig(kind="count", log_y=True)) == render(
        census_1000, PlotConfig(kind="count", log_y=True)
    )


def test_ratio_polyline_tracks_series_ordering(census_1000):
    """Pixel y runs opposite to value: whenever the ratio rises, y must drop."""
    document = render(census_1000, PlotConfig(kind="ratio"))
    points = _points(_polylines(document)[0])
    values = [p.value for p in ratio_series(census_1000)]
    assert len(points) == len(values)
    for (_, y0), (_, y1), v0, v1 in zip(points, points[1:], values, values[1:]):
        if v1 > v0:
            assert y1 <= y0 + 0.011  # one rounding step of slack at 2 decimals
        elif v1 < v0:
            assert y1 >= y0 - 0.011


def test_x_range_selection_and_empty_selection(census_1000):
    document = render(census_1000, PlotConfig(kind="count", x_min=100, x_max=200))
    assert len(_points(_polylines(document)[0])) == 101
    with pytest.raises(DomainError):
        render(census_1000, PlotConfig(kind="count", x_min=5000))
    with pytest.raises(DomainError):
        render(census_1000, PlotConfig(kind="compare"), models=[])


def test_decimation_keeps_envelope_and_endpoints():
    xs = np.arange(10_000, dtype=np.float64)
    rng = np.random.default_rng(7)
    vs = rng.normal(size=10_000)
    dxs, dvs = _decimate(xs, vs, 200)
    assert len(dxs) <= 2 * 200 + 2
    assert dxs[0] == xs[0] and dxs[-1] == xs[-1]
    assert dvs.min() == vs.min() and dvs.max() == vs.max()
    assert set(dvs.tolist()) <= set(vs.tolist())  # never fabricates values
    assert np.all(np.diff(dxs) > 0)


def _decimate_indices_per_column(xs, vs, columns):
    """The indices _decimate keeps, one argmin and one argmax call per column."""
    n = len(xs)
    if n <= 2 * columns:
        return np.arange(n)
    span = xs[-1] - xs[0]
    cols = ((xs - xs[0]) * (columns / span)).astype(np.int64).clip(0, columns - 1)
    keep = {0, n - 1}
    boundaries = np.flatnonzero(np.diff(cols)) + 1
    start = 0
    for end in list(boundaries) + [n]:
        chunk = vs[start:end]
        keep.add(start + int(np.argmin(chunk)))
        keep.add(start + int(np.argmax(chunk)))
        start = end
    return np.array(sorted(keep), dtype=np.int64)


_DECIMATE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(
    gaps=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=300),
    values=st.data(),
    columns=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_decimation_keeps_the_per_column_argmin_and_argmax(gaps, values, columns):
    # Strictly rising xs, so the kept xs name the kept indices; few distinct
    # values, so columns hold ties, NaNs and infinities.
    xs = np.cumsum([0] + gaps).astype(np.float64)
    vs = np.array(values.draw(st.lists(_DECIMATE_VALUES, min_size=len(xs), max_size=len(xs))), dtype=np.float64)
    idx = _decimate_indices_per_column(xs, vs, columns)
    dxs, dvs = _decimate(xs, vs, columns)
    assert np.array_equal(dxs, xs[idx])
    assert np.array_equal(dvs.view(np.uint64), vs[idx].view(np.uint64))  # same bits: -0.0 and NaN too


def test_decimation_skipped_for_short_series():
    xs = np.arange(300, dtype=np.float64)
    vs = xs * 2.0
    dxs, dvs = _decimate(xs, vs, 800)
    assert np.array_equal(dxs, xs) and np.array_equal(dvs, vs)


def test_large_series_renders_with_decimation(census_10k):
    document = render(census_10k, PlotConfig(kind="count", width=400))
    points = _points(_polylines(document)[0])
    assert len(points) <= 2 * (400 - 78 - 24) + 2


def test_log_y_rejects_nonpositive_and_renders_counts(census_1000):
    document = render(census_1000, PlotConfig(kind="count", log_y=True))
    assert len(_polylines(document)) == 1
    from primecensus.census import CensusRecord

    # A flat pair makes the difference series hit zero, which log-y cannot show.
    flat = [CensusRecord(2, 4, 5), CensusRecord(3, 9, 5)]
    with pytest.raises(DomainError):
        render(flat, PlotConfig(kind="difference", log_y=True))


def test_title_escapes_markup_and_leaves_quotes_literal(census_1000):
    title = 'A & B <i>"x"</i> \'q\' &amp;'
    document = render(census_1000, PlotConfig(kind="count", title=title))
    line = next(line for line in document.splitlines() if 'font-size="15"' in line)
    assert line.endswith(f">{sax_escape(title)}</text>")
    assert line.endswith('>A &amp; B &lt;i&gt;"x"&lt;/i&gt; \'q\' &amp;amp;</text>')
    assert ET.fromstring(document).find("svg:text", SVG_NS).text == title
