"""Minimal deterministic SVG line charts.

Charts are plain text built with fixed number formats from the data alone, so
re-rendering from the same CSV reproduces the file byte for byte. Only what a
static figure needs: axes, ticks, series with markers, a legend.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf"]

WIDTH, HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 46.0


def _finite_points(xs, ys, logx, logy):
    pts = []
    for x, y in zip(xs, ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        if (logx and x <= 0) or (logy and y <= 0):
            continue
        pts.append((math.log10(x) if logx else float(x),
                    math.log10(y) if logy else float(y)))
    return pts


def _widen(v: float) -> tuple[float, float]:
    """(lo, hi) around a flat value v: v -+ 0.5, or -+ one ulp where that is wider.

    From |v| = 2^52 on, v + 0.5 rounds back to v and one ulp is at least 1; the
    ends are clipped to the largest finite float.
    """
    half = max(0.5, math.ulp(v))
    return max(v - half, -sys.float_info.max), min(v + half, sys.float_info.max)


# Spans and tick offsets are taken on values scaled by this power of two: a
# span then stays below max/8 and a tick offset (span * i, i <= 5) finite for
# any finite data. Scaling by a power of two is exact above the subnormal
# range, so each coordinate keeps the bits of the unscaled formula wherever
# that formula is finite.
_SCALE = 2.0 ** -4


def _padded(lo: float, hi: float, frac: float) -> tuple[float, float]:
    """(lo, hi) widened by frac of their span at each end, clipped to finite floats."""
    pad = frac * (hi * _SCALE - lo * _SCALE) / _SCALE
    return max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)


def _fmt_tick(value: float, log: bool) -> str:
    v = 10.0 ** value if log else value
    return format(v, ".3g")


def line_chart(series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
               xlabel: str, ylabel: str, title: str = "",
               logx: bool = False, logy: bool = False) -> str:
    """Render labeled (xs, ys) series as a WIDTH x HEIGHT SVG document string.

    Non-finite points (and nonpositive ones on log axes) are dropped from
    display. Raises ValueError when nothing is plottable.
    """
    data = [(label, _finite_points(xs, ys, logx, logy)) for label, xs, ys in series]
    all_pts = [p for _, pts in data for p in pts]
    if not all_pts:
        raise ValueError("no plottable points")
    x_lo = min(p[0] for p in all_pts)
    x_hi = max(p[0] for p in all_pts)
    y_lo = min(p[1] for p in all_pts)
    y_hi = max(p[1] for p in all_pts)
    if x_hi == x_lo:
        x_lo, x_hi = _widen(x_lo)
    if y_hi == y_lo:
        y_lo, y_hi = _widen(y_lo)
    x_lo, x_hi = _padded(x_lo, x_hi, 0.04)
    y_lo, y_hi = _padded(y_lo, y_hi, 0.06)
    x_lo_s, x_span = x_lo * _SCALE, x_hi * _SCALE - x_lo * _SCALE
    y_lo_s, y_span = y_lo * _SCALE, y_hi * _SCALE - y_lo * _SCALE

    plot_w = WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x * _SCALE - x_lo_s) / x_span * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h - (y * _SCALE - y_lo_s) / y_span * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13">{_esc(title)}</text>')

    ax_y = _MARGIN_T + plot_h
    out.append(f'<line x1="{_MARGIN_L:.1f}" y1="{ax_y:.1f}" x2="{_MARGIN_L + plot_w:.1f}" '
               f'y2="{ax_y:.1f}" stroke="#000000" stroke-width="1"/>')
    out.append(f'<line x1="{_MARGIN_L:.1f}" y1="{_MARGIN_T:.1f}" x2="{_MARGIN_L:.1f}" '
               f'y2="{ax_y:.1f}" stroke="#000000" stroke-width="1"/>')

    n_ticks = 5
    for i in range(n_ticks + 1):
        tx = (x_lo_s + x_span * i / n_ticks) / _SCALE
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{ax_y:.1f}" x2="{px:.2f}" '
                   f'y2="{ax_y + 5:.1f}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{ax_y + 18:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt_tick(tx, logx)}</text>')
        ty = (y_lo_s + y_span * i / n_ticks) / _SCALE
        py = sy(ty)
        out.append(f'<line x1="{_MARGIN_L - 5:.1f}" y1="{py:.2f}" x2="{_MARGIN_L:.1f}" '
                   f'y2="{py:.2f}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN_L - 8:.1f}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt_tick(ty, logy)}</text>')

    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 8:.1f}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12">'
               f'{_esc(xlabel)}</text>')
    out.append(f'<text x="14" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 14 {_MARGIN_T + plot_h / 2:.1f})">{_esc(ylabel)}</text>')

    for si, (label, pts) in enumerate(data):
        color = PALETTE[si % len(PALETTE)]
        if len(pts) >= 2:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')

    legend_x = _MARGIN_L + plot_w - 150.0
    legend_y = _MARGIN_T + 8.0
    for si, (label, _) in enumerate(data):
        color = PALETTE[si % len(PALETTE)]
        ly = legend_y + 16.0 * si
        out.append(f'<line x1="{legend_x:.1f}" y1="{ly:.1f}" x2="{legend_x + 18:.1f}" '
                   f'y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{legend_x + 24:.1f}" y="{ly + 4:.1f}" '
                   f'font-family="sans-serif" font-size="11">{_esc(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
