"""Deterministic SVG rendering of point sets and drawings.

The affine fit from data coordinates to the canvas is computed in exact
rational arithmetic; numbers become decimals (6 significant digits) only when
written into the SVG text. Arrowheads are serialization-stage cosmetics and
use floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .digraph import Digraph
from .embedder import Mapping
from .geometry import PointSet


@dataclass(frozen=True)
class RenderSpec:
    width: int = 800
    height: int = 600
    margin: int = 40
    vertex_radius: int = 4
    arrow_size: int = 10
    labels: bool = False

    def __post_init__(self):
        if min(self.width, self.height, self.margin, self.vertex_radius,
               self.arrow_size) <= 0:
            raise ValueError("render dimensions must be positive")
        if 2 * self.margin >= min(self.width, self.height):
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
    mapping are supplied."""
    spec = spec or RenderSpec()
    xs = [p.x for p in S.points]
    ys = [p.y for p in S.points]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    spanx = maxx - minx
    spany = maxy - miny
    availw = Fraction(spec.width - 2 * spec.margin)
    availh = Fraction(spec.height - 2 * spec.margin)
    scales = [availw / spanx if spanx else None, availh / spany if spany else None]
    candidates = [s for s in scales if s is not None]
    scale = min(candidates) if candidates else Fraction(1)

    def place(p) -> tuple[Fraction, Fraction]:
        # center the fitted bounding box; SVG y grows downward
        cx = Fraction(spec.width) / 2 + (p.x - (minx + maxx) / 2) * scale
        cy = Fraction(spec.height) / 2 - (p.y - (miny + maxy) / 2) * scale
        return cx, cy

    fitted = [place(p) for p in S.points]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="white"/>',
    ]

    if G is not None and m is not None:
        for t, h in G.arcs:
            x1, y1 = fitted[m[t]]
            x2, y2 = fitted[m[h]]
            fx1, fy1, fx2, fy2 = map(float, (x1, y1, x2, y2))
            dx, dy = fx2 - fx1, fy2 - fy1
            norm = math.hypot(dx, dy) or 1.0
            ux, uy = dx / norm, dy / norm
            # pull the tip back to the vertex circle's edge
            tipx = fx2 - ux * spec.vertex_radius
            tipy = fy2 - uy * spec.vertex_radius
            bx = tipx - ux * spec.arrow_size
            by = tipy - uy * spec.arrow_size
            half = spec.arrow_size / 2.5
            px, py = -uy * half, ux * half
            lines.append(
                f'<line x1="{_fmt(fx1)}" y1="{_fmt(fy1)}" '
                f'x2="{_fmt(tipx)}" y2="{_fmt(tipy)}" '
                'stroke="#333333" stroke-width="1.5"/>')
            lines.append(
                f'<polygon points="{_fmt(tipx)},{_fmt(tipy)} '
                f'{_fmt(bx + px)},{_fmt(by + py)} {_fmt(bx - px)},{_fmt(by - py)}" '
                'fill="#333333"/>')

    for cx, cy in fitted:
        lines.append(
            f'<circle cx="{_fmt(float(cx))}" cy="{_fmt(float(cy))}" '
            f'r="{spec.vertex_radius}" fill="#4682b4" stroke="#1c3d5a"/>')

    if spec.labels:
        names = [str(i) for i in range(len(S))]
        if G is not None and m is not None:
            for v, p in enumerate(m.assignment):
                names[p] = G.vertices[v]
        for (cx, cy), name in zip(fitted, names):
            lines.append(
                f'<text x="{_fmt(float(cx) + spec.vertex_radius + 2)}" '
                f'y="{_fmt(float(cy) - spec.vertex_radius)}" '
                f'font-size="11" font-family="sans-serif">{_escape(name)}</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
