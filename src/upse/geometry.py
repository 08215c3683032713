"""Exact rational plane geometry.

All predicates compute with ``fractions.Fraction`` and are decided by exact
sign tests; no floating point is used anywhere. Point sets are ordered
containers of distinct points with cached classification queries (hull,
general position, convexity), since the embedding algorithms ask the same
questions repeatedly.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import NotConvex, NotGeneralPosition

Rational = Fraction


class Point(NamedTuple):
    x: Fraction
    y: Fraction


def pt(x, y) -> Point:
    """Build a point, coercing ints / strings / fractions to exact rationals."""
    return Point(Fraction(x), Fraction(y))


class Orientation(enum.IntEnum):
    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


class Sidedness(enum.Enum):
    TWO_SIDED = "two_sided"
    LEFT_HEAVY = "left_heavy"
    RIGHT_HEAVY = "right_heavy"


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed cross product of (a - o) and (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    c = cross(p, q, r)
    if c > 0:
        return Orientation.COUNTERCLOCKWISE
    if c < 0:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    # assumes a, b, p collinear
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments ab and cd share a point that is not a shared endpoint.

    Meeting exactly at a common endpoint does not count as a crossing; any other
    shared point does, including an endpoint of one segment interior to the
    other and collinear overlap of positive length.
    """
    if a == b or c == d:
        raise ValueError("degenerate segment")
    d1 = orientation(c, d, a)
    d2 = orientation(c, d, b)
    d3 = orientation(a, b, c)
    d4 = orientation(a, b, d)
    if d1 != d2 and d3 != d4 and 0 not in (d1, d2, d3, d4):
        return True  # proper interior crossing
    touches = set()
    if d1 == 0 and _on_segment(c, d, a):
        touches.add(a)
    if d2 == 0 and _on_segment(c, d, b):
        touches.add(b)
    if d3 == 0 and _on_segment(a, b, c):
        touches.add(c)
    if d4 == 0 and _on_segment(a, b, d):
        touches.add(d)
    if not touches:
        return False
    if len(touches) > 1:
        return True  # collinear overlap of positive length
    p = touches.pop()
    # single contact point: harmless iff it is an endpoint of both segments
    return not (p in (a, b) and p in (c, d))


class PointSet:
    """Ordered collection of pairwise-distinct points with cached queries."""

    def __init__(self, points: Iterable[Point]):
        pts = tuple(points)
        if not pts:
            raise ValueError("point set must be non-empty")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        self.points: tuple[Point, ...] = pts
        self._hull: tuple[int, ...] | None = None
        self._general: bool | None = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __repr__(self) -> str:
        return f"PointSet({list(self.points)!r})"


def convex_hull(S: PointSet) -> tuple[int, ...]:
    """Indices of strict hull vertices in counterclockwise order from the lowest point.

    Collinear boundary points are not hull vertices. For one or two points the
    result is all of them.
    """
    if S._hull is not None:
        return S._hull
    pts = S.points
    n = len(pts)
    if n == 1:
        S._hull = (0,)
        return S._hull
    order = sorted(range(n), key=lambda i: pts[i])
    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(pts[lower[-2]], pts[lower[-1]], pts[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(pts[upper[-2]], pts[upper[-1]], pts[i]) <= 0:
            upper.pop()
        upper.append(i)
    hull = lower[:-1] + upper[:-1]
    low = min(range(n), key=lambda i: (pts[i].y, pts[i].x))
    if low in hull:
        k = hull.index(low)
        hull = hull[k:] + hull[:k]
    S._hull = tuple(hull)
    return S._hull


def is_general_position(S: PointSet) -> bool:
    """No two points share a y-coordinate and no three points are collinear."""
    if S._general is not None:
        return S._general
    pts = S.points
    ys = {p.y for p in pts}
    if len(ys) != len(pts):
        S._general = False
        return False
    # duplicate slope around a common point means a collinear triple
    for i, p in enumerate(pts):
        slopes = set()
        for q in pts[i + 1:]:
            dx = q.x - p.x
            dy = q.y - p.y
            key = Fraction(dy, dx) if dx else None
            if key in slopes:
                S._general = False
                return False
            slopes.add(key)
    S._general = True
    return True


def _convex_including_small(S: PointSet) -> bool:
    if len(S) < 3:
        return True
    return len(convex_hull(S)) == len(S)


def is_convex_position(S: PointSet) -> bool:
    """True iff no point lies in the convex hull of the others (|S| >= 3)."""
    if len(S) < 3:
        raise ValueError("is_convex_position requires at least 3 points")
    return len(convex_hull(S)) == len(S)


class SideSplit(NamedTuple):
    left: tuple[int, ...]   # indices on the left of the bottom-top line, ascending y
    right: tuple[int, ...]  # indices on the right, ascending y
    bottom: int
    top: int


def _side_of_line(p: Point, a: Point, b: Point) -> Fraction:
    """Horizontal-ray side test against the non-horizontal line through a and b.

    The result has the sign of x(p) minus the line's x at height y(p): positive
    when p is right of the line, negative when left, zero on it.
    """
    if a.y == b.y:
        raise ValueError("line through a and b must not be horizontal")
    lo, hi = (a, b) if a.y < b.y else (b, a)
    # cleared of the positive denominator (hi.y - lo.y)
    return (p.x - lo.x) * (hi.y - lo.y) - (hi.x - lo.x) * (p.y - lo.y)


def point_right_of_line(p: Point, a: Point, b: Point) -> bool:
    return _side_of_line(p, a, b) > 0


def point_left_of_line(p: Point, a: Point, b: Point) -> bool:
    return _side_of_line(p, a, b) < 0


def classify_sides(S: PointSet) -> SideSplit:
    """Split a convex, general-position set at its bottom and top points.

    Every other point lies strictly left or strictly right of the line through
    bottom and top; each side is reported in ascending y order.
    """
    if len(S) < 2:
        raise ValueError("classify_sides requires at least 2 points")
    if not _convex_including_small(S):
        raise NotConvex("point set is not in convex position")
    if not is_general_position(S):
        raise NotGeneralPosition("point set is not in general position")
    pts = S.points
    bottom = min(range(len(pts)), key=lambda i: pts[i].y)
    top = max(range(len(pts)), key=lambda i: pts[i].y)
    left: list[int] = []
    right: list[int] = []
    for i in range(len(pts)):
        if i in (bottom, top):
            continue
        if point_right_of_line(pts[i], pts[bottom], pts[top]):
            right.append(i)
        else:
            # general position rules out a third point on the line
            left.append(i)
    left.sort(key=lambda i: pts[i].y)
    right.sort(key=lambda i: pts[i].y)
    return SideSplit(tuple(left), tuple(right), bottom, top)


def is_one_sided(S: PointSet) -> Sidedness:
    """Classify a convex set by whether its bottom and top are hull-adjacent.

    Equivalently: one of the two sides of the bottom-top line is empty. An
    empty-empty split (|S| = 2) counts as left-heavy by convention.
    """
    split = classify_sides(S)
    if split.right and split.left:
        return Sidedness.TWO_SIDED
    if split.right:
        return Sidedness.RIGHT_HEAVY
    return Sidedness.LEFT_HEAVY


def convex_depth(S: PointSet) -> int:
    """Number of rounds of strict-hull peeling needed to exhaust the set."""
    remaining = list(range(len(S)))
    pts = S.points
    depth = 0
    while remaining:
        sub = PointSet(pts[i] for i in remaining)
        shell = set(convex_hull(sub))
        remaining = [idx for k, idx in enumerate(remaining) if k not in shell]
        depth += 1
    return depth


def is_consecutive(subset: Iterable[int], S: PointSet) -> bool:
    """True iff the subset occupies a contiguous arc of the hull cycle of a convex set."""
    if not _convex_including_small(S):
        raise NotConvex("point set is not in convex position")
    hull = convex_hull(S)
    pos = {idx: k for k, idx in enumerate(hull)}
    chosen = set()
    for i in subset:
        if i not in pos:
            raise ValueError(f"index {i} is not a point of the set")
        chosen.add(pos[i])
    n = len(hull)
    if len(chosen) in (0, n):
        return True
    gaps = sum(1 for k in chosen if (k + 1) % n not in chosen)
    return gaps == 1
