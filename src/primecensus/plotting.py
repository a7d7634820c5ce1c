"""Standalone SVG renderings of census data: count, ratio, difference, compare.

The output is deterministic (no timestamps, fixed number formatting), so
repeated renders of the same data are byte-identical and diffable.  Each
data series is exactly one <polyline>; axes, ticks and legend swatches use
<line>/<rect> elements so structural checks can count series reliably.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape
from math import ceil, floor, log10
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .evaluation import census_columns, difference_arrays, ratio_arrays
from .models import ModelSpec, predict

PLOT_KINDS = ("count", "ratio", "difference", "compare")

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)

_MARGIN_LEFT = 78
_MARGIN_RIGHT = 24
_MARGIN_TOP = 42
_MARGIN_BOTTOM = 48

_TITLES = {
    "count": "Prime-range count vs x",
    "ratio": "Range-to-count ratio vs x",
    "difference": "Count difference vs x",
    "compare": "Prime-range count vs x, census and models",
}


@dataclass
class PlotConfig:
    kind: str
    x_min: Optional[int] = None
    x_max: Optional[int] = None
    width: int = 960
    height: int = 600
    log_y: bool = False
    title: Optional[str] = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** floor(log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw)
    first = ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> List[float]:
    """Tick positions for a log axis: powers of ten inside [lo, hi]."""
    ticks = [10.0**k for k in range(ceil(log10(lo) - 1e-9), floor(log10(hi) + 1e-9) + 1)]
    return ticks or [lo, hi]


def _decimate(xs: np.ndarray, vs: np.ndarray, columns: int) -> Tuple[np.ndarray, np.ndarray]:
    """Min-max decimation per pixel column, keeping first and last points.

    Only applied when the series has more than two points per column, so
    short series pass through untouched.  Every kept value is a member of
    the input series.  A column keeps the indices np.argmin and np.argmax
    would give: the first occurrence of its extreme, or its first NaN.
    """
    n = len(xs)
    if n <= 2 * columns:
        return xs, vs
    span = xs[-1] - xs[0]
    cols = ((xs - xs[0]) * (columns / span)).astype(np.int64).clip(0, columns - 1)
    starts = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
    sizes = np.diff(starts, append=n)
    nan_at = np.isnan(vs)
    keep = [np.array([0, n - 1])]
    for reduce in (np.minimum, np.maximum):
        # Both ufuncs propagate NaN, as argmin and argmax do: a column with
        # a NaN has a NaN extreme, which no value equals, so its hits are its
        # NaNs; a column without one has no NaN to add.
        extremes = reduce.reduceat(vs, starts)
        hits = vs == np.repeat(extremes, sizes)
        hits |= nan_at
        hit_at = np.flatnonzero(hits)
        # Every column holds a hit, so the first hit at or past its start is its own.
        keep.append(hit_at[np.searchsorted(hit_at, starts)])
    idx = np.unique(np.concatenate(keep))
    return xs[idx], vs[idx]


def _series_for(census: Sequence, config: PlotConfig, models: Optional[Sequence[ModelSpec]]):
    columns = census_columns(census, config.x_min, config.x_max)
    if not columns[0].size:
        raise DomainError("empty selection: no census rows in the requested x range")
    xs, counts = (column.astype(np.float64) for column in columns)
    if config.kind == "count":
        return [("prime count", xs, counts)]
    if config.kind == "ratio":
        ratio_xs, ratios = ratio_arrays(*columns)
        return [("ratio", ratio_xs.astype(np.float64), ratios)]
    if config.kind == "difference":
        diff_xs, diffs = difference_arrays(*columns)
        if not diffs.size:
            raise DomainError("difference plot needs at least two consecutive rows")
        return [("difference", diff_xs.astype(np.float64), diffs.astype(np.float64))]
    if config.kind == "compare":
        if not models:
            raise DomainError("compare plot needs at least one model")
        series = [("census", xs, counts)]
        for spec in models:
            series.append((spec.kind, xs, np.asarray(predict(xs, spec), dtype=np.float64)))
        return series
    raise DomainError(f"unknown plot kind {config.kind!r}; expected one of {PLOT_KINDS}")


def render(census: Sequence, config: PlotConfig, models: Optional[Sequence[ModelSpec]] = None) -> str:
    """Render census data (and optional model overlays) to an SVG document."""
    series = _series_for(census, config, models)

    inner_w = config.width - _MARGIN_LEFT - _MARGIN_RIGHT
    inner_h = config.height - _MARGIN_TOP - _MARGIN_BOTTOM
    if inner_w < 50 or inner_h < 50:
        raise DomainError(f"plot area {config.width}x{config.height} is too small")

    if config.log_y:
        for name, _, vs in series:
            if np.any(vs <= 0):
                raise DomainError(f"log-y plot impossible: series {name!r} has non-positive values")

    x_lo = min(float(xs[0]) for _, xs, _ in series)
    x_hi = max(float(xs[-1]) for _, xs, _ in series)
    v_lo = min(float(vs.min()) for _, _, vs in series)
    v_hi = max(float(vs.max()) for _, _, vs in series)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if v_hi == v_lo:
        v_hi = v_lo + 1.0

    def tx(v: float) -> float:
        return log10(v) if config.log_y else v

    t_lo, t_hi = tx(v_lo), tx(v_hi)
    pad = (t_hi - t_lo) * 0.04 or 0.5
    t_lo -= pad
    t_hi += pad

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(v: float) -> float:
        return _MARGIN_TOP + inner_h - (tx(v) - t_lo) / (t_hi - t_lo) * inner_h

    title = config.title or _TITLES[config.kind]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{config.width}" height="{config.height}" '
        f'viewBox="0 0 {config.width} {config.height}">',
        f'<rect x="0" y="0" width="{config.width}" height="{config.height}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{config.width // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#111111">{escape(title, quote=False)}</text>',
    ]

    # Axis ticks and grid.
    bottom = _MARGIN_TOP + inner_h
    for t in _nice_ticks(x_lo, x_hi):
        xpix = px(t)
        parts.append(
            f'<line x1="{_fmt(xpix)}" y1="{bottom}" x2="{_fmt(xpix)}" y2="{bottom + 5}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(xpix)}" y="{bottom + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#333333">{t:g}</text>'
        )
    y_ticks = _decade_ticks(v_lo, v_hi) if config.log_y else _nice_ticks(t_lo, t_hi)
    for t in y_ticks:
        ypix = py(t)
        if ypix < _MARGIN_TOP - 1 or ypix > bottom + 1:
            continue
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{_fmt(ypix)}" x2="{_MARGIN_LEFT}" y2="{_fmt(ypix)}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{_fmt(ypix + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#333333">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + inner_w // 2}" y="{config.height - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12" fill="#111111">x</text>'
    )

    # Data series: exactly one polyline each.
    for i, (name, xs, vs) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        dxs, dvs = _decimate(xs, vs, inner_w)
        points = " ".join(f"{_fmt(px(float(x)))},{_fmt(py(float(v)))}" for x, v in zip(dxs, dvs))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>')

    if config.kind == "compare":
        parts.append('<g font-family="sans-serif" font-size="11">')
        ly = _MARGIN_TOP + 14
        for i, (name, _, _) in enumerate(series):
            color = _PALETTE[i % len(_PALETTE)]
            y = ly + 15 * i
            parts.append(
                f'<line x1="{_MARGIN_LEFT + 8}" y1="{y - 4}" x2="{_MARGIN_LEFT + 30}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(f'<text x="{_MARGIN_LEFT + 35}" y="{y}" fill="#111111">{escape(name, quote=False)}</text>')
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_to_file(census: Sequence, config: PlotConfig, path, models: Optional[Sequence[ModelSpec]] = None) -> None:
    document = render(census, config, models)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
