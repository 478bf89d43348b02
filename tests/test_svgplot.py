"""SVG line plots: the array writer against the point-by-point reference."""

import math
import re
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polariton_lab.svgplot import line_plot

_COLORS = ("#c0392b", "#2457a8", "#20803c", "#8e44ad", "#b8860b", "#16808c")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 44.0


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def oracle_line_plot(
    path: str | Path,
    curves: Sequence[tuple[Sequence[float], Sequence[float], str]],
    xlabel: str,
    ylabel: str,
    title: str = "",
    logy: bool = False,
    width: int = 720,
    height: int = 480,
) -> Path:
    """``line_plot`` as it was written point by point, kept as the reference."""
    xs_all: list[float] = []
    ys_all: list[float] = []
    display: list[tuple[list[float], list[float], str]] = []
    for cx, cy, label in curves:
        px, py = [], []
        for x, y in zip(cx, cy):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if logy:
                if y <= 0:
                    continue
                y = math.log10(y)
            px.append(float(x))
            py.append(float(y))
        display.append((px, py, label))
        xs_all.extend(px)
        ys_all.extend(py)

    if not xs_all:
        raise ValueError("nothing to plot: no finite samples")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(width / 2)}" y="18" text-anchor="middle" '
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
        f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(height - 8)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_fmt(_MARGIN_T + plot_h / 2)})">{ylabel}</text>'
    )

    for i, (px, py, label) in enumerate(display):
        color = _COLORS[i % len(_COLORS)]
        if px:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(px, py))
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


def _both(curves, logy):
    """[new bytes, reference bytes], with ValueError in place of a writer that raised it."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, plot in enumerate((line_plot, oracle_line_plot)):
            try:
                out = plot(Path(tmp) / f"{i}.svg", curves, "x", "y", title="t", logy=logy)
                results.append(out.read_bytes())
            except ValueError:
                results.append(ValueError)
    return results


_SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, -1.0, 1e-300])
_VALUE = st.one_of(st.floats(-1e9, 1e9), st.floats(1e-12, 1e12), _SPECIAL)


@st.composite
def _curve(draw):
    n = draw(st.integers(1, 12))
    x = draw(st.lists(_VALUE, min_size=n, max_size=n))
    if draw(st.booleans()):
        y = [draw(_VALUE)] * n  # a constant curve
    else:
        y = draw(st.lists(_VALUE, min_size=n, max_size=n))
    if draw(st.booleans()):
        x, y = np.array(x), np.array(y)
    return x, y, draw(st.sampled_from(["", "a", "gamma_m/gamma_e=1e-05"]))


@settings(max_examples=200, deadline=None)
@given(curves=st.lists(_curve(), min_size=1, max_size=4), logy=st.booleans())
def test_array_writer_equals_reference(curves, logy):
    new, ref = _both(curves, logy)
    assert new == ref


@pytest.mark.parametrize("logy", [False, True])
@pytest.mark.parametrize(
    "xs",
    [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, -0.0, 0.0], [-1.0, -0.0, 0.0, -1.0]],
)
def test_signed_zero_extremes_follow_the_reference(xs, logy):
    # numpy's min and max may pick the other one of two equal zeros than
    # min() and max() do; no byte may depend on which
    ys = [1.0] + [0.0 if v == 0 else 2.0 for v in xs[1:]]
    for curve in ((xs, ys, "a"), (ys, xs, "b"), (np.array(xs), np.array(ys), "c")):
        new, ref = _both([curve], logy)
        assert new == ref


def test_shipped_plot_shapes_match_reference():
    # 512-point log-y curves, as fig_losses.svg and fig_lossmap.svg draw them
    x = np.linspace(0.3, 0.5, 512)
    curves = [(x, np.abs(np.sin(40 * x + k)) * 10.0**-k, f"c{k}") for k in range(3)]
    new, ref = _both(curves, True)
    assert new == ref


@pytest.mark.parametrize("lo, hi", [(1e-3, 10.0), (2.5e-7, 3.1e4), (0.5, 0.7)])
def test_log_axis_labels_are_the_tick_values(tmp_path, lo, hi):
    out = line_plot(tmp_path / "p.svg", [([0.0, 1.0], [lo, hi], "a")], "x", "y", logy=True)
    labels = re.findall(r'text-anchor="end" [^>]*>([^<]*)<', out.read_text())
    pad = 0.05 * (math.log10(hi) - math.log10(lo))
    ticks = np.linspace(math.log10(lo) - pad, math.log10(hi) + pad, 5)
    assert len(labels) == len(ticks)
    for label, tick in zip(labels, ticks):
        assert math.isclose(float(label), 10**tick, rel_tol=5e-6), (label, tick)


@pytest.mark.parametrize(
    "curves, logy",
    [
        ([], False),
        ([([1.0, 2.0], [math.nan, math.inf], "a")], False),
        ([([1.0, 2.0], [0.0, -3.0], "a"), (np.array([math.nan]), np.array([1.0]), "")], True),
    ],
)
def test_nothing_to_plot_raises(tmp_path, curves, logy):
    with pytest.raises(ValueError, match="nothing to plot"):
        line_plot(tmp_path / "p.svg", curves, "x", "y", logy=logy)


def test_unequal_curve_lengths_raise(tmp_path):
    # the reference truncated the longer sequence to the shorter one
    with pytest.raises(ValueError, match="3 x values but 2 y values"):
        line_plot(tmp_path / "p.svg", [([1.0, 2.0, 3.0], [1.0, 2.0], "a")], "x", "y")
