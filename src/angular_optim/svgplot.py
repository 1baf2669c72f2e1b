"""Self-contained SVG charts: axes, optional log scales, legend.

No plotting dependency: the figures are acceptance artifacts and must render
identically from a clean checkout.  Both renderers share one chart layout
(`_chart`) at fixed sizes: `render_line_chart` draws a 720x480 line chart,
`render_overlay` a 720x560 heat map of a surface under trajectories.  Every
data series maps to exactly one <polyline> element (chrome like axes, ticks,
legend swatches, and heatmap cells uses <line>, <rect>, and <text> only),
which makes the output easy to assert against.  All coordinates are
formatted with fixed precision so the bytes are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape  # not xml.sax.saxutils, which imports urllib.request

import numpy as np

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 160.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 48.0


@dataclass(frozen=True)
class Series:
    label: str
    xs: np.ndarray
    ys: np.ndarray


def _transform(values: np.ndarray, log: bool) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if log:
        out = np.full_like(values, np.nan)
        pos = values > 0
        out[pos] = np.log10(values[pos])
        return out
    return values


def _finite_range(arrays) -> tuple[float, float]:
    lo, hi = math.inf, -math.inf
    for a in arrays:
        finite = a[np.isfinite(a)]
        if finite.size:
            lo = min(lo, float(finite.min()))
            hi = max(hi, float(finite.max()))
    if lo > hi:  # nothing plottable; pick an arbitrary fixed window
        return 0.0, 1.0
    if lo == hi:
        return lo - 0.5, hi + 0.5
    return lo, hi


def _tick_label(value: float, log: bool) -> str:
    if log:
        return f"{10.0 ** value:.3g}"
    return f"{value:.6g}"


def _text(x, y, s, size=12, anchor="start") -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" font-family="sans-serif" '
        f'text-anchor="{anchor}" fill="#222222">{escape(s, quote=False)}</text>'
    )


def _line(xa, ya, xb, yb, color="#444444", width=1) -> str:
    return (
        f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
        f'stroke="{color}" stroke-width="{width}"/>'
    )


def _chart(series, x_range, y_range, log_x, log_y, title, xlabel, ylabel,
           width, height, background=()) -> str:
    """The one chart layout: title, background, axes with five ticks each,
    one polyline per series and the legend, around the plot area
    [x0, x1] x [y0, y1] px.  Series hold axis values (log10 ones on a log
    axis); a point with a non-finite coordinate is dropped."""
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP
    x1, y1 = width - _MARGIN_RIGHT, height - _MARGIN_BOTTOM
    (xlo, xhi), (ylo, yhi) = x_range, y_range

    def px(v):  # floats and arrays alike, so ticks and points round the same
        return x0 + (v - xlo) / (xhi - xlo) * (x1 - x0)

    def py(v):
        return y1 - (v - ylo) / (yhi - ylo) * (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    if title:
        parts.append(_text(x0, 20, title, size=14))
    parts.extend(background)
    parts += [_line(x0, y1, x1, y1), _line(x0, y0, x0, y1)]
    for tv in (xlo + (xhi - xlo) * i / 4 for i in range(5)):
        parts += [_line(px(tv), y1, px(tv), y1 + 4),
                  _text(px(tv), y1 + 18, _tick_label(tv, log_x), 10, "middle")]
    for tv in (ylo + (yhi - ylo) * i / 4 for i in range(5)):
        parts += [_line(x0 - 4, py(tv), x0, py(tv)),
                  _text(x0 - 8, py(tv) + 3, _tick_label(tv, log_y), 10, "end")]
    if xlabel:
        parts.append(_text((x0 + x1) / 2, y1 + 36, xlabel, anchor="middle"))
    if ylabel:
        parts.append(_text(14, (y0 + y1) / 2, ylabel, anchor="middle"))
    for i, s in enumerate(series):
        n = min(np.size(s.xs), np.size(s.ys))
        tx, ty = np.asarray(s.xs, dtype=np.float64)[:n], np.asarray(s.ys, dtype=np.float64)[:n]
        finite = np.isfinite(tx) & np.isfinite(ty)
        xy = zip(px(tx[finite]).tolist(), py(ty[finite]).tolist())
        points = " ".join(map("%.2f,%.2f".__mod__, xy))
        parts.append(
            f'<polyline fill="none" stroke="{PALETTE[i % len(PALETTE)]}" '
            f'stroke-width="1.5" points="{points}"/>'
        )
    lx = x1 + 16
    for i, s in enumerate(series):
        ly = y0 + 14 + 18 * i
        parts += [_line(lx, ly - 4, lx + 22, ly - 4, PALETTE[i % len(PALETTE)], 2),
                  _text(lx + 28, ly, s.label, size=11)]
    return "\n".join(parts + ["</svg>"]) + "\n"


def render_line_chart(
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """One polyline per series on a 720x480 chart; log axes drop non-positive points."""
    series = [Series(s.label, _transform(s.xs, log_x), _transform(s.ys, log_y)) for s in series]
    x_range = _finite_range([s.xs for s in series])
    y_range = _finite_range([s.ys for s in series])
    return _chart(series, x_range, y_range, log_x, log_y, title, xlabel, ylabel, 720.0, 480.0)


def render_overlay(
    xs: np.ndarray,
    ys: np.ndarray,
    Z: np.ndarray,
    series: list[Series],
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Grayscale value map of Z with one trajectory polyline per series, 720x560.

    Cell shade is the normalized log of (Z - min(Z) + tiny), darker = lower,
    which renders valley structure without contour tracing.
    """
    width, height = 720.0, 560.0
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP
    x1, y1 = width - _MARGIN_RIGHT, height - _MARGIN_BOTTOM
    xlo, xhi = float(xs[0]), float(xs[-1])
    ylo, yhi = float(ys[0]), float(ys[-1])
    if xlo == xhi or ylo == yhi:
        raise ValueError("degenerate grid")
    shifted = np.log10(Z - float(Z.min()) + 1e-12)
    if not np.isfinite(shifted).all():
        raise ValueError("heat map values must be finite")
    lo, hi = float(shifted.min()), float(shifted.max())
    span = hi - lo if hi > lo else 1.0
    ny, nx = Z.shape
    cell_w = (x1 - x0) / nx
    cell_h = (y1 - y0) / ny
    # dark valleys, light ridges; rint rounds half to even
    shades = np.rint(60 + 195 * ((shifted - lo) / span)).astype(int).tolist()
    grays = [f"#{s:02x}{s:02x}{s:02x}" for s in range(256)]
    cols = [f"{x0 + j * cell_w:.2f}" for j in range(nx)]
    size = f'width="{cell_w + 0.1:.2f}" height="{cell_h + 0.1:.2f}"'
    cells = []
    for i, row in enumerate(shades):
        tail = f'" y="{y1 - (i + 1) * cell_h:.2f}" {size} fill="'
        cells.extend(f'<rect x="{x}{tail}{grays[s]}"/>' for x, s in zip(cols, row))
    return _chart(series, (xlo, xhi), (ylo, yhi), False, False, title, xlabel, ylabel,
                  width, height, cells)
