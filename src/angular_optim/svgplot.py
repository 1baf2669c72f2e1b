"""Self-contained SVG line charts: axes, optional log scales, legend.

No plotting dependency: the figures are acceptance artifacts and must render
identically from a clean checkout.  Every data series maps to exactly one
<polyline> element (chrome like axes, ticks, legend swatches, and heatmap
cells uses <line>, <rect>, and <text> only), which makes the output easy to
assert against.  All coordinates are formatted with fixed precision so the
bytes are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape  # not xml.sax.saxutils, which imports urllib.request

import numpy as np

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
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
    return values.copy()


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


def _ticks(lo: float, hi: float, n: int = 5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _tick_label(value: float, log: bool) -> str:
    if log:
        return f"{10.0 ** value:.3g}"
    return f"{value:.6g}"


def _px(v: float) -> str:
    return f"{v:.2f}"


class _SvgBuilder:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
            f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
            f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        ]

    def text(self, x, y, s, size=12, anchor="start", color="#222222"):
        self.parts.append(
            f'<text x="{_px(x)}" y="{_px(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{color}">{escape(s, quote=False)}</text>'
        )

    def line(self, x1, y1, x2, y2, color="#444444", width=1.0):
        self.parts.append(
            f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            f'stroke="{color}" stroke-width="{width:g}"/>'
        )

    def polyline(self, points: str, color: str):
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _plot_frame(svg, x0, y0, x1, y1, xlo, xhi, ylo, yhi, log_x, log_y, xlabel, ylabel):
    """Axes, ticks, and labels around the plot area [x0,x1] x [y0,y1] px."""
    svg.line(x0, y1, x1, y1)  # x axis
    svg.line(x0, y0, x0, y1)  # y axis
    for tv in _ticks(xlo, xhi):
        px = x0 + (tv - xlo) / (xhi - xlo) * (x1 - x0)
        svg.line(px, y1, px, y1 + 4)
        svg.text(px, y1 + 18, _tick_label(tv, log_x), size=10, anchor="middle")
    for tv in _ticks(ylo, yhi):
        py = y1 - (tv - ylo) / (yhi - ylo) * (y1 - y0)
        svg.line(x0 - 4, py, x0, py)
        svg.text(x0 - 8, py + 3, _tick_label(tv, log_y), size=10, anchor="end")
    if xlabel:
        svg.text((x0 + x1) / 2, y1 + 36, xlabel, anchor="middle")
    if ylabel:
        svg.text(14, (y0 + y1) / 2, ylabel, anchor="middle")


def _legend(svg, series, x, y):
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        yy = y + 18 * i
        svg.line(x, yy - 4, x + 22, yy - 4, color=color, width=2.0)
        svg.text(x + 28, yy, s.label, size=11)


def _series_polyline(svg, s, color, x0, y0, x1, y1, xlo, xhi, ylo, yhi, log_x, log_y):
    tx = _transform(s.xs, log_x)
    ty = _transform(s.ys, log_y)
    n = min(tx.size, ty.size)
    tx, ty = tx[:n], ty[:n]
    finite = np.isfinite(tx) & np.isfinite(ty)
    px = x0 + (tx[finite] - xlo) / (xhi - xlo) * (x1 - x0)
    py = y1 - (ty[finite] - ylo) / (yhi - ylo) * (y1 - y0)
    svg.polyline(
        " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px.tolist(), py.tolist())), color
    )


def render_line_chart(
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_x: bool = False,
    log_y: bool = False,
    width: float = 720.0,
    height: float = 480.0,
) -> str:
    """One polyline per series; log axes drop non-positive points."""
    svg = _SvgBuilder(width, height)
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP
    x1, y1 = width - _MARGIN_RIGHT, height - _MARGIN_BOTTOM
    txs = [_transform(s.xs, log_x) for s in series]
    tys = [_transform(s.ys, log_y) for s in series]
    xlo, xhi = _finite_range(txs)
    ylo, yhi = _finite_range(tys)
    if title:
        svg.text(x0, 20, title, size=14)
    _plot_frame(svg, x0, y0, x1, y1, xlo, xhi, ylo, yhi, log_x, log_y, xlabel, ylabel)
    for i, s in enumerate(series):
        _series_polyline(
            svg, s, PALETTE[i % len(PALETTE)],
            x0, y0, x1, y1, xlo, xhi, ylo, yhi, log_x, log_y,
        )
    _legend(svg, series, x1 + 16, y0 + 14)
    return svg.finish()


def render_overlay(
    xs: np.ndarray,
    ys: np.ndarray,
    Z: np.ndarray,
    series: list[Series],
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "y",
    width: float = 720.0,
    height: float = 560.0,
) -> str:
    """Grayscale value map of Z with one trajectory polyline per series.

    Cell shade is the normalized log of (Z - min(Z) + tiny), darker = lower,
    which renders valley structure without contour tracing.
    """
    svg = _SvgBuilder(width, height)
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP
    x1, y1 = width - _MARGIN_RIGHT, height - _MARGIN_BOTTOM
    xlo, xhi = float(xs[0]), float(xs[-1])
    ylo, yhi = float(ys[0]), float(ys[-1])
    if xlo == xhi or ylo == yhi:
        raise ValueError("degenerate grid")
    if title:
        svg.text(x0, 20, title, size=14)

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
    cols = [_px(x0 + j * cell_w) for j in range(nx)]
    size = f'width="{_px(cell_w + 0.1)}" height="{_px(cell_h + 0.1)}"'
    for i, row in enumerate(shades):
        tail = f'" y="{_px(y1 - (i + 1) * cell_h)}" {size} fill="'
        svg.parts.extend(f'<rect x="{x}{tail}{grays[s]}"/>' for x, s in zip(cols, row))

    _plot_frame(svg, x0, y0, x1, y1, xlo, xhi, ylo, yhi, False, False, xlabel, ylabel)
    for i, s in enumerate(series):
        _series_polyline(
            svg, s, PALETTE[i % len(PALETTE)],
            x0, y0, x1, y1, xlo, xhi, ylo, yhi, False, False,
        )
    _legend(svg, series, x1 + 16, y0 + 14)
    return svg.finish()
