"""Dependency-free SVG emitters for series plots and labeled scatter maps.

Output is a standalone SVG document built by pure string assembly, so the
same spec always produces byte-identical markup and every chart stays
diffable in tests.  For any finite values :func:`emit_svg` returns a
document or raises :class:`~diachrona.corpus.CorpusError`; it never hangs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .corpus import CorpusError

__all__ = ["PlotSpec", "emit_svg"]

_PALETTE = ("#1f6f8b", "#c84b31", "#4d7c0f", "#7c3aed", "#b45309", "#0f766e")
_MARGIN = 56.0
_WIDTH = 880
_HEIGHT = 560
# plot area corners: (_X0, _Y0) bottom left, (_X1, _Y1) top right
_X0, _Y0 = _MARGIN, _HEIGHT - _MARGIN
_X1, _Y1 = _WIDTH - _MARGIN, _MARGIN
_AXIS = 'stroke="#333333" stroke-width="1"'
_ZERO = 'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"'


@dataclass
class PlotSpec:
    """Declarative chart description consumed by :func:`emit_svg`.

    ``kind`` is "series" (one polyline per labeled curve) or "scatter"
    (one marker plus one text label per point).
    """

    kind: str
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    curves: list[tuple[str, list[tuple[float, float]]]] = field(default_factory=list)
    points: list[tuple[float, float]] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _line(x1: float, y1: float, x2: float, y2: float, style: str = _AXIS) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'


def _text(x: float, y: float, body: str, size: int, anchor: str = "", extra: str = "") -> str:
    """A sans-serif text element; ``extra`` holds attributes that follow its font size."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{body}</text>'
    )


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick values from ``lo`` to ``hi`` (lo < hi), about ``target`` of them."""
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    step = next((mult * mag for mult in (1.0, 2.0, 5.0, 10.0) if raw <= mult * mag), 0.0)
    if not step:  # subnormal rounding can leave a step under 1e-320 without a decade
        raise CorpusError(f"cannot draw an axis from {lo!r} to {hi!r}: its span is too small")
    top = min(hi + 1e-9 * span, sys.float_info.max)  # a tick past the largest float is inf
    ticks = []
    value = math.ceil(lo / step) * step
    # the cap bounds the loop whatever the rounding of the sums
    while value <= top and len(ticks) < 4 * target:
        ticks.append(value)
        if value + step == value:  # a step below the float spacing: each value once
            break
        value += step
    return ticks


def _bounds(points: list[tuple[float, float]], pad: float = 0.0) -> list[float]:
    """xlo, xhi, ylo, yhi of the axes through ``points``, each end moved out by
    ``pad`` times its axis's span.  An axis through a single value is widened
    by 1.0, or from 2**53 up by the value's float spacing."""
    if not all(math.isfinite(v) for p in points for v in p):
        raise CorpusError("cannot plot a NaN or infinite value")
    ends = []
    for values in zip(*points):
        lo, hi = min(values), max(values)
        if hi == lo:
            lo, hi = lo - max(1.0, math.ulp(lo)), hi + max(1.0, math.ulp(hi))
        margin = pad * (hi - lo)
        lo, hi = lo - margin, hi + margin
        if not math.isfinite(hi - lo):
            raise CorpusError(f"cannot plot {min(values)!r} to {max(values)!r}: the span overflows")
        ends += [lo, hi]
    return ends


def _scale(lo: float, hi: float, p0: float, p1: float):
    """The map from data values lo..hi to pixel positions p0..p1."""
    return lambda v: p0 + (v - lo) / (hi - lo) * (p1 - p0)


def _series(spec: PlotSpec, points: list[tuple[float, float]]) -> list[str]:
    xlo, xhi, ylo, yhi = _bounds(points)
    ylo = min(ylo, 0.0)
    sx, sy = _scale(xlo, xhi, _X0, _X1), _scale(ylo, yhi, _Y0, _Y1)
    parts = []
    for tick in _nice_ticks(xlo, xhi):
        x = sx(tick)
        parts += [_line(x, _Y0, x, _Y0 + 4), _text(x, _Y0 + 18, _fmt(tick), 11, "middle")]
    for tick in _nice_ticks(ylo, yhi):
        y = sy(tick)
        parts += [_line(_X0 - 4, y, _X0, y), _text(_X0 - 8, y + 4, _fmt(tick), 11, "end")]
    for i, (label, pts) in enumerate(spec.curves):
        if pts:
            color = _PALETTE[i % len(_PALETTE)]
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            parts.append(_text(_X1 - 6, _Y1 + 14 + 16 * i, label, 12, "end", f' fill="{color}"'))
    return parts


def _scatter(spec: PlotSpec, points: list[tuple[float, float]]) -> list[str]:
    xlo, xhi, ylo, yhi = _bounds(points, pad=0.08)
    sx, sy = _scale(xlo, xhi, _X0, _X1), _scale(ylo, yhi, _Y0, _Y1)
    parts = []
    if xlo < 0 < xhi:
        parts.append(_line(sx(0), _Y1, sx(0), _Y0, _ZERO))
    if ylo < 0 < yhi:
        parts.append(_line(_X0, sy(0), _X1, sy(0), _ZERO))
    for (x, y), label in zip(points, spec.labels):
        parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="#1f6f8b"/>')
        parts.append(_text(sx(x) + 5, sy(y) - 4, label, 11))
    return parts


def emit_svg(spec: PlotSpec) -> str:
    """Render a spec as a standalone SVG document string; raise ``CorpusError`` for an
    unknown kind, a scatter without one label per point, or a value or span floats cannot plot."""
    if spec.kind == "series":
        draw, points = _series, [p for _, pts in spec.curves for p in pts]
    elif spec.kind == "scatter":
        if len(spec.labels) != len(spec.points):
            raise CorpusError(f"scatter has {len(spec.labels)} labels for {len(spec.points)} points")
        draw, points = _scatter, spec.points
    else:
        raise CorpusError(f"unknown plot kind: {spec.kind!r}")
    mid_y = (_Y0 + _Y1) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if spec.title:
        parts.append(_text(_WIDTH / 2, 24, spec.title, 16, "middle"))
    parts += [_line(_X0, _Y0, _X1, _Y0), _line(_X0, _Y0, _X0, _Y1)]
    if spec.x_label:
        parts.append(_text((_X0 + _X1) / 2, _HEIGHT - 12, spec.x_label, 12, "middle"))
    if spec.y_label:
        rotate = f' transform="rotate(-90 14 {_fmt(mid_y)})"'
        parts.append(_text(14, mid_y, spec.y_label, 12, "middle", rotate))
    if points:
        parts += draw(spec, points)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
