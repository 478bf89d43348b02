"""Minimal deterministic SVG line plots (polylines plus axes).

CSV files are the data contract; these plots are a convenience for eyeballing
sweep results without a plotting stack.  Output is plain SVG 1.1 with fixed
formatting so identical data produces identical bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

_COLORS = ("#c0392b", "#2457a8", "#20803c", "#8e44ad", "#b8860b", "#16808c")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 44.0
_WIDTH, _HEIGHT = 720, 480
_N_TICKS = 5  # per axis


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (_N_TICKS - 1)
    return [lo + i * step for i in range(_N_TICKS)]


def line_plot(
    path: str | Path,
    curves: Sequence[tuple[Sequence[float], Sequence[float], str]],
    xlabel: str,
    ylabel: str,
    title: str = "",
    logy: bool = False,
) -> Path:
    """Write polyline curves with axes and tick labels to ``path``.

    Each curve is (x values, y values, label), the values as sequences or
    arrays of equal length (:class:`ValueError` otherwise).  Non-finite
    samples are dropped from the display; with ``logy`` the y axis is log10,
    non-positive samples are dropped too, and each tick is labelled with its
    value, not its exponent.
    """
    display = []
    for cx, cy, label in curves:
        x, y = np.asarray(cx, dtype=float), np.asarray(cy, dtype=float)
        if x.shape != y.shape:
            raise ValueError(f"curve {label!r}: {x.size} x values but {y.size} y values")
        keep = np.isfinite(x) & np.isfinite(y)
        if logy:
            keep &= y > 0
        x, y = x[keep], y[keep]
        display.append((x, np.log10(y) if logy else y, label))

    if not any(x.size for x, _, _ in display):
        raise ValueError("nothing to plot: no finite samples")
    xs_all = np.concatenate([x for x, _, _ in display])
    ys_all = np.concatenate([y for _, y, _ in display])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>'
        )

    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_MARGIN_T + plot_h)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(_MARGIN_T + plot_h + 5)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_MARGIN_T + plot_h + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        label = _fmt(10**yv) if logy else _fmt(yv)
        parts.append(
            f'<line x1="{_fmt(_MARGIN_L - 5)}" y1="{_fmt(py)}" x2="{_fmt(_MARGIN_L)}" '
            f'y2="{_fmt(py)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_L - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(_HEIGHT - 8)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_fmt(_MARGIN_T + plot_h / 2)})">{ylabel}</text>'
    )

    for i, (x, y, label) in enumerate(display):
        color = _COLORS[i % len(_COLORS)]
        if x.size:
            xy = np.column_stack([sx(x), sy(y)]).ravel().tolist()
            coords = " ".join(["%.6g,%.6g"] * x.size) % tuple(xy)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        if label:
            ly = _MARGIN_T + 16 + 16 * i
            parts.append(
                f'<line x1="{_fmt(_MARGIN_L + 8)}" y1="{_fmt(ly - 4)}" '
                f'x2="{_fmt(_MARGIN_L + 30)}" y2="{_fmt(ly - 4)}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_fmt(_MARGIN_L + 36)}" y="{_fmt(ly)}" '
                f'font-family="sans-serif" font-size="11">{label}</text>'
            )

    parts.append("</svg>")
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(parts) + "\n", encoding="ascii")
    return out
