"""Dependency-free SVG emitters for series plots and labeled scatter maps.

Output is a standalone SVG document built by pure string assembly, so the
same spec always produces byte-identical markup and every chart stays
diffable in tests.
"""

from __future__ import annotations

import math
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


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(value)
        value += step
    return ticks


def _bounds(xs: list[float], ys: list[float]) -> tuple[float, float, float, float]:
    if not all(map(math.isfinite, xs + ys)):
        raise CorpusError("cannot plot a NaN or infinite value")
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xlo -= 1.0
        xhi += 1.0
    if yhi == ylo:
        ylo -= 1.0
        yhi += 1.0
    return xlo, xhi, ylo, yhi


def emit_svg(spec: PlotSpec) -> str:
    """Render a spec as a standalone SVG document string."""
    if spec.kind == "series":
        return _emit_series(spec)
    if spec.kind == "scatter":
        if len(spec.labels) != len(spec.points):
            raise CorpusError(
                f"scatter needs one label per point: {len(spec.labels)} labels, "
                f"{len(spec.points)} points"
            )
        return _emit_scatter(spec)
    raise CorpusError(f"unknown plot kind: {spec.kind!r}")


def _open_svg(spec: PlotSpec) -> list[str]:
    """Opening markup: canvas, title, the plot area's axes and their labels."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_esc(spec.title)}</text>'
        )
    parts.append(
        f'<line x1="{_fmt(_X0)}" y1="{_fmt(_Y0)}" x2="{_fmt(_X1)}" y2="{_fmt(_Y0)}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(_X0)}" y1="{_fmt(_Y0)}" x2="{_fmt(_X0)}" y2="{_fmt(_Y1)}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    if spec.x_label:
        parts.append(
            f'<text x="{_fmt((_X0 + _X1) / 2)}" y="{_fmt(_HEIGHT - 12)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{_esc(spec.x_label)}</text>"
        )
    if spec.y_label:
        parts.append(
            f'<text x="14" y="{_fmt((_Y0 + _Y1) / 2)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {_fmt((_Y0 + _Y1) / 2)})">{_esc(spec.y_label)}</text>'
        )
    return parts


def _scales(xlo: float, xhi: float, ylo: float, yhi: float):
    """Maps from data x and y to pixel positions in the plot area."""
    return (
        lambda x: _X0 + (x - xlo) / (xhi - xlo) * (_X1 - _X0),
        lambda y: _Y0 - (y - ylo) / (yhi - ylo) * (_Y0 - _Y1),
    )


def _emit_series(spec: PlotSpec) -> str:
    parts = _open_svg(spec)
    all_pts = [p for _, pts in spec.curves for p in pts]
    if all_pts:
        xlo, xhi, ylo, yhi = _bounds([p[0] for p in all_pts], [p[1] for p in all_pts])
        ylo = min(ylo, 0.0)
        sx, sy = _scales(xlo, xhi, ylo, yhi)
        for tick in _nice_ticks(xlo, xhi):
            parts.append(
                f'<line x1="{_fmt(sx(tick))}" y1="{_fmt(_Y0)}" x2="{_fmt(sx(tick))}" '
                f'y2="{_fmt(_Y0 + 4)}" stroke="#333333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(sx(tick))}" y="{_fmt(_Y0 + 18)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
            )
        for tick in _nice_ticks(ylo, yhi):
            parts.append(
                f'<line x1="{_fmt(_X0 - 4)}" y1="{_fmt(sy(tick))}" x2="{_fmt(_X0)}" '
                f'y2="{_fmt(sy(tick))}" stroke="#333333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(_X0 - 8)}" y="{_fmt(sy(tick) + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
            )
        for i, (label, pts) in enumerate(spec.curves):
            if not pts:
                continue
            color = _PALETTE[i % len(_PALETTE)]
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{_fmt(_X1 - 6)}" y="{_fmt(_Y1 + 14 + 16 * i)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12" fill="{color}">{_esc(label)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _emit_scatter(spec: PlotSpec) -> str:
    parts = _open_svg(spec)
    if spec.points:
        xlo, xhi, ylo, yhi = _bounds([p[0] for p in spec.points], [p[1] for p in spec.points])
        xpad = 0.08 * (xhi - xlo)
        ypad = 0.08 * (yhi - ylo)
        xlo, xhi = xlo - xpad, xhi + xpad
        ylo, yhi = ylo - ypad, yhi + ypad
        sx, sy = _scales(xlo, xhi, ylo, yhi)
        if xlo < 0 < xhi:
            parts.append(
                f'<line x1="{_fmt(sx(0))}" y1="{_fmt(_Y1)}" x2="{_fmt(sx(0))}" y2="{_fmt(_Y0)}" '
                'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"/>'
            )
        if ylo < 0 < yhi:
            parts.append(
                f'<line x1="{_fmt(_X0)}" y1="{_fmt(sy(0))}" x2="{_fmt(_X1)}" y2="{_fmt(sy(0))}" '
                'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"/>'
            )
        for (x, y), label in zip(spec.points, spec.labels):
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="#1f6f8b"/>'
            )
            parts.append(
                f'<text x="{_fmt(sx(x) + 5)}" y="{_fmt(sy(y) - 4)}" '
                f'font-family="sans-serif" font-size="11">{_esc(label)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
