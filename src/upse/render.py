"""Deterministic SVG rendering of point sets and drawings.

The affine fit from data coordinates to the canvas is computed once, in exact
rational arithmetic: one scale for both axes and one offset per axis. Each
coordinate then becomes one float, which is written into the SVG text as a
decimal of 6 significant digits. Arrowheads are serialization-stage cosmetics
and use floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .digraph import Digraph
from .embedder import Mapping
from .geometry import PointSet


class RenderSpec(Record):
    __slots__ = ("width", "height", "margin", "vertex_radius", "arrow_size", "labels")

    def __init__(self, width: int = 800, height: int = 600, margin: int = 40,
                 vertex_radius: int = 4, arrow_size: int = 10, labels: bool = False):
        self._init(width, height, margin, vertex_radius, arrow_size, labels)
        sizes = (width, height, margin, vertex_radius, arrow_size)
        # the exact fit takes Fraction(width, 2), which refuses a float; a
        # bool is an int to isinstance, and a string such as "no" is truthy
        if not all(type(d) is int for d in sizes) or type(labels) is not bool:
            raise ValueError("render dimensions must be integers and labels a bool")
        if min(sizes) <= 0:
            raise ValueError("render dimensions must be positive")
        if 2 * margin >= min(width, height):
            raise ValueError("margin leaves no drawing area")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape does the same, but importing it pulls in
    # urllib.request: about 7 MB and 30 ms more at every start-up
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(S: PointSet, G: Digraph | None = None,
               m: Mapping | None = None,
               spec: RenderSpec | None = None) -> str:
    """Render the points, plus straight arrows for the arcs when a graph and a
    mapping are supplied; the mapping must place every vertex on a point of S
    (SizeMismatch otherwise)."""
    spec = spec or RenderSpec()
    drawing = G is not None and m is not None
    if drawing:
        m.require_fit(G, S)
    xs = [p.x for p in S.points]
    ys = [p.y for p in S.points]
    lox, hix, loy, hiy = min(xs), max(xs), min(ys), max(ys)
    # the largest scale that fits the bounding box into the margins, centred;
    # SVG y grows downward
    spans = [(spec.width - 2 * spec.margin, hix - lox),
             (spec.height - 2 * spec.margin, hiy - loy)]
    scale = min((Fraction(avail) / span for avail, span in spans if span),
                default=Fraction(1))
    offx = Fraction(spec.width, 2) - Fraction(lox + hix, 2) * scale
    offy = Fraction(spec.height, 2) + Fraction(loy + hiy, 2) * scale
    fitted = [(float(x * scale + offx), float(offy - y * scale))
              for x, y in zip(xs, ys)]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="white"/>',
    ]

    if drawing:
        for t, h in G.arcs:
            x1, y1 = fitted[m[t]]
            x2, y2 = fitted[m[h]]
            dx, dy = x2 - x1, y2 - y1
            norm = math.hypot(dx, dy) or 1.0
            ux, uy = dx / norm, dy / norm
            # pull the tip back to the vertex circle's edge
            tipx = x2 - ux * spec.vertex_radius
            tipy = y2 - uy * spec.vertex_radius
            bx = tipx - ux * spec.arrow_size
            by = tipy - uy * spec.arrow_size
            half = spec.arrow_size / 2.5
            px, py = -uy * half, ux * half
            lines.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(tipx)}" y2="{_fmt(tipy)}" '
                'stroke="#333333" stroke-width="1.5"/>')
            lines.append(
                f'<polygon points="{_fmt(tipx)},{_fmt(tipy)} '
                f'{_fmt(bx + px)},{_fmt(by + py)} {_fmt(bx - px)},{_fmt(by - py)}" '
                'fill="#333333"/>')

    for cx, cy in fitted:
        lines.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{spec.vertex_radius}" fill="#4682b4" stroke="#1c3d5a"/>')

    if spec.labels:
        names = [str(i) for i in range(len(S))]
        if drawing:
            for v, p in enumerate(m.assignment):
                names[p] = G.vertices[v]
        for (cx, cy), name in zip(fitted, names):
            lines.append(
                f'<text x="{_fmt(cx + spec.vertex_radius + 2)}" '
                f'y="{_fmt(cy - spec.vertex_radius)}" '
                f'font-size="11" font-family="sans-serif">{_escape(name)}</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
