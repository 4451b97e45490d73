"""Minimal static SVG line charts of rate bounds on a log10 x axis, written
directly (no plotting backend).

Coordinates are formatted with fixed precision so identical inputs always
produce byte-identical files; the path data can be hashed for visual
regression checks.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 480
MARGIN = 56
PALETTE = ("#1f6fb2", "#b23a1f", "#3a8f3a", "#7a4fb2", "#b2871f", "#555555")
TICKS = 5


def _fmt(v: float) -> str:
    return format(v, ".3f")


def _ticks(lo: float, hi: float):
    step = (hi - lo) / (TICKS - 1)
    return [lo + i * step for i in range(TICKS)]


def line_chart(series, x_label: str = "", y_label: str = "") -> str:
    """Render named (x, y) series to an SVG document string, x on a log10 axis.

    series: list of (name, xs, ys); non-finite y values break the polyline.
    """
    xs_all, ys_all = [], []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                xs_all.append(math.log10(x))
                ys_all.append(y)
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(y: float) -> float:
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="15">rate bounds</text>',
    ]
    # axes
    parts.append(f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
                 f'y2="{HEIGHT - MARGIN}" stroke="black"/>')
    parts.append(f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
                 f'y2="{HEIGHT - MARGIN}" stroke="black"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<text x="{_fmt(px(tx))}" y="{HEIGHT - MARGIN + 18}" '
                     f'text-anchor="middle" font-size="10">1e{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<text x="{MARGIN - 6}" y="{_fmt(py(ty) + 3)}" '
                     f'text-anchor="end" font-size="10">{_fmt(ty)}</text>')
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
                 f'font-size="12">{x_label}</text>')
    parts.append(f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 16 {HEIGHT // 2})">{y_label}</text>')

    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        cmds, pen_down = [], False
        for x, y in zip(xs, ys):
            if not math.isfinite(y):
                pen_down = False
                continue
            cmds.append(f'{"L" if pen_down else "M"}{_fmt(px(math.log10(x)))},{_fmt(py(y))}')
            pen_down = True
        if cmds:
            parts.append(f'<path d="{" ".join(cmds)}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        ly = MARGIN + 16 * idx + 12
        parts.append(f'<line x1="{WIDTH - MARGIN - 120}" y1="{ly}" '
                     f'x2="{WIDTH - MARGIN - 96}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{WIDTH - MARGIN - 90}" y="{ly + 4}" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
