"""Dependency-free SVG line plots for quick visual smoke checks.

Not a plotting library: fixed margins, linear axes, a handful of colors.
Meant for eyeballing convergence curves without pulling in matplotlib.
"""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")
_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 40


def _ticks(lo: float, hi: float) -> np.ndarray:
    """About five round-numbered ticks over a finite range with hi > lo."""
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min((s for s in (1, 2, 5, 10) if s * mag >= raw), default=10) * mag
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + 0.5 * step, step)


def write_line_svg(path, curves, title: str, xlabel: str, ylabel: str) -> None:
    """curves: iterable of (label, xs, ys); non-finite points are dropped."""
    cleaned = []
    for label, xs, ys in curves:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if keep.any():
            cleaned.append((str(label), xs[keep], ys[keep]))
    if not cleaned:
        raise ValueError("nothing to plot")

    x_lo = min(c[1].min() for c in cleaned)
    x_hi = max(c[1].max() for c in cleaned)
    y_lo = min(c[2].min() for c in cleaned)
    y_hi = max(c[2].max() for c in cleaned)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    inner_w = _WIDTH - _MARGIN_L - _MARGIN_R
    inner_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="13">{_esc(title)}</text>',
    ]
    for x in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{_MARGIN_T + inner_h}" x2="{px(x):.1f}" '
            f'y2="{_MARGIN_T + inner_h + 4}" stroke="#333"/>'
            f'<text x="{px(x):.1f}" y="{_MARGIN_T + inner_h + 16}" '
            f'text-anchor="middle">{x:g}</text>'
        )
    for y in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{py(y):.1f}" x2="{_MARGIN_L}" '
            f'y2="{py(y):.1f}" stroke="#333"/>'
            f'<text x="{_MARGIN_L - 7}" y="{py(y) + 3.5:.1f}" '
            f'text-anchor="end">{y:g}</text>'
        )
    parts += [
        f'<text x="{_MARGIN_L + inner_w / 2:.1f}" y="{_HEIGHT - 8}" '
        f'text-anchor="middle">{_esc(xlabel)}</text>',
        f'<text x="14" y="{_MARGIN_T + inner_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_T + inner_h / 2:.1f})">{_esc(ylabel)}</text>',
    ]
    for i, (label, xs, ys) in enumerate(cleaned):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 14 * i
        parts.append(
            f'<line x1="{_MARGIN_L + inner_w - 110}" y1="{ly - 4}" '
            f'x2="{_MARGIN_L + inner_w - 90}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{_MARGIN_L + inner_w - 85}" y="{ly}">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
