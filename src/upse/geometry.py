"""Exact rational plane geometry: floats only rule cases out, and exact
integers decide every tie.

Points have ``fractions.Fraction`` coordinates. Every predicate is one exact
integer sign test: a point becomes homogeneous integers (X, Y, W), x = X/W and
y = Y/W, and an orientation is the sign of one 3x3 integer determinant. This
module is the only one that looks inside a homogeneous point: the other
modules pass them around whole and ask it for a point's side of a line
(_side, one dot product with a line computed once by _wedge), which of two
points is higher (_rise), a point's exact (y, x) (_yx), or a whole mask of
sides (_left_mask). Point sets are ordered containers of distinct points
with cached queries, since the embedding algorithms ask the same questions
repeatedly. A point set reads its Fractions once, when it builds its
homogeneous integers; after that only the tie-break of its (y, x) order
compares them, and every other comparison of coordinates, here and in the
modules that use a set, reads the integers or the cached queries:

- one order of the indices by (y, x), sorted once with an exact float filter
  (a correctly rounded float decides unless two floats tie), which every
  caller that needs points in y order reads instead of sorting again;
- one hull cycle, Andrew's monotone chains run along that order: the strict
  hull counterclockwise from the top point, down the left chain and up the
  right chain, with the position of the lowest point in it. convex_hull is
  its rotation to the lowest point; the side split, the convex embedder and
  the solver's window rule read the cycle itself;
- general position: distinct y by adjacent pairs of the order, as
  Y_i * W_j != Y_j * W_i; then, when the strict hull holds every point, no
  three can be collinear (the middle point of a collinear triple is never a
  strict hull vertex), so a convex set costs O(n log n); any other set keeps
  the O(n^2) test on directions, keyed by correctly rounded floats that only
  rule ties out and by reduced integer directions wherever the floats tie;
- the homogeneous coordinates of every point, built once by the constructor,
  which tests distinctness on them.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, inf
from typing import Iterable, NamedTuple, Sequence

from .errors import NotConvex, NotGeneralPosition

Hom = tuple[int, int, int]


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


_ORIENTATIONS = tuple(map(Orientation, (0, 1, -1)))  # indexed by _orient's sign


class Sidedness(enum.Enum):
    TWO_SIDED = "two_sided"
    LEFT_HEAVY = "left_heavy"
    RIGHT_HEAVY = "right_heavy"


def _hom(p: Point) -> Hom:
    """Homogeneous integer coordinates (X, Y, W) of p, with W > 0; p may be
    any (x, y) pair of ints or Fractions. PointSet caches it per point, and
    every comparison of a set's coordinates reads that cache; the predicates
    on single Points call it directly."""
    x, y = p
    xd, yd = x.denominator, y.denominator
    return (x.numerator * yd, y.numerator * xd, xd * yd)


def _det(a: Hom, b: Hom, c: Hom) -> int:
    """det [a; b; c] of the homogeneous rows: W_a * W_b * W_c * cross(a, b, c)."""
    (ax, ay, aw), (bx, by, bw), (cx, cy, cw) = a, b, c
    return (ax * (by * cw - cy * bw) - ay * (bx * cw - cx * bw)
            + aw * (bx * cy - cx * by))


def _orient(a: Hom, b: Hom, c: Hom) -> int:
    """1 for a counterclockwise turn a -> b -> c, -1 for clockwise, 0 if collinear."""
    d = _det(a, b, c)
    return (d > 0) - (d < 0)


def _wedge(u: Hom, v: Hom) -> Hom:
    # the line through two points, or two lines' common point;
    # as a line, _wedge(a, b) . p == _det(a, b, p) for every point p
    (ux, uy, uw), (vx, vy, vw) = u, v
    return (uy * vw - uw * vy, uw * vx - ux * vw, ux * vy - uy * vx)


def _meet(a: Hom, b: Hom, c: Hom, d: Hom) -> Hom:
    """The point where line ab meets line cd, which must not be parallel."""
    x, y, w = _wedge(_wedge(a, b), _wedge(c, d))
    return (x, y, w) if w > 0 else (-x, -y, -w)


def _side(line: Hom, p: Hom) -> int:
    """1 when p lies left of the line, -1 right, 0 on it, for a line
    _wedge(a, b) directed from a to b: _orient(a, b, p) by one dot product."""
    (lx, ly, lw), (x, y, w) = line, p
    d = lx * x + ly * y + lw * w
    return (d > 0) - (d < 0)


def _rise(a: Hom, b: Hom) -> int:
    """(y(b) - y(a)) * W_a * W_b: positive iff b lies above a, 0 at equal heights."""
    return b[1] * a[2] - a[1] * b[2]


def _yx(h: Hom) -> tuple[Fraction, Fraction]:
    """The exact (y, x) of a homogeneous point, the key of the cached order."""
    x, y, w = h
    return Fraction(y, w), Fraction(x, w)


def _left_mask(H: tuple[Hom, ...], a: int, b: int) -> int:
    """Bit k set iff point H[k] lies strictly left of the line a -> b:
    one 3-term dot product per point. This is the solver's hot loop, so the
    dot product of _side stays inline."""
    lx, ly, lw = _wedge(H[a], H[b])
    mask = 0
    for k, (x, y, w) in enumerate(H):
        if lx * x + ly * y + lw * w > 0:
            mask |= 1 << k
    return mask


def _on_segment(a: Hom, b: Hom, p: Hom) -> bool:
    # for collinear a != b and p: (a - p).(b - p) <= 0, times W_a W_b W_p^2 > 0
    (ax, ay, aw), (bx, by, bw), (px, py, pw) = a, b, p
    return ((ax * pw - px * aw) * (bx * pw - px * bw)
            + (ay * pw - py * aw) * (by * pw - py * bw)) <= 0


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed cross product of (a - o) and (b - o)."""
    ho, ha, hb = _hom(o), _hom(a), _hom(b)
    return Fraction(_det(ho, ha, hb), ho[2] * ha[2] * hb[2])


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    return _ORIENTATIONS[_orient(_hom(p), _hom(q), _hom(r))]


def _segments_cross(a: Hom, b: Hom, c: Hom, d: Hom) -> bool:
    # segments_cross on homogeneous coordinates; equal points have equal tuples
    if a == b or c == d:
        raise ValueError("degenerate segment")
    d1, d2 = _orient(c, d, a), _orient(c, d, b)
    d3, d4 = _orient(a, b, c), _orient(a, b, d)
    if d1 or d2 or d3 or d4:
        # two lines: the segments meet in at most one point, harmless iff it
        # is a shared endpoint
        return d1 * d2 <= 0 and d3 * d4 <= 0 and not {a, b} & {c, d}
    # one line: they cross iff they share more than one point
    return len({p for s, t, p in ((c, d, a), (c, d, b), (a, b, c), (a, b, d))
                if _on_segment(s, t, p)}) > 1


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments ab and cd share a point that is not a shared endpoint.

    Meeting exactly at a common endpoint does not count as a crossing; any other
    shared point does, including an endpoint of one segment interior to the
    other and collinear overlap of positive length.
    """
    return _segments_cross(_hom(a), _hom(b), _hom(c), _hom(d))


class PointSet:
    """Ordered collection of pairwise-distinct points with cached queries.
    An entry may be a Point or any (x, y) pair of ints or Fractions; the set
    keeps it as a Point."""

    def __init__(self, points: Iterable[Point]):
        # the type test keeps the common case, a Point already, off the slow path
        pts = tuple(p if type(p) is Point else _as_point(p) for p in points)
        if not pts:
            raise ValueError("point set must be non-empty")
        # _hom is injective, and a tuple of ints hashes far faster than a
        # Fraction, which takes a modular inverse
        try:
            h = tuple(map(_hom, pts))
        except AttributeError:
            bad = next(p for p in pts if not all(hasattr(c, "denominator") for c in p))
            raise ValueError(f"point {bad!r} has a non-rational coordinate; "
                             "build points with pt()") from None
        if len(set(h)) != len(h):
            raise ValueError("points must be pairwise distinct")
        self.points: tuple[Point, ...] = pts
        self._hom: tuple[Hom, ...] = h
        self._by_y: tuple[int, ...] | None = None
        self._cycle: tuple[tuple[int, ...], int] | None = None
        self._general: bool | None = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet({list(self.points)!r})"


def _as_point(p) -> Point:
    try:
        return Point(*p)
    except TypeError:
        raise ValueError(f"point {p!r} is not an (x, y) pair") from None


def _approx(q: Fraction) -> float:
    # int / int is correctly rounded, hence monotone: it never reverses an
    # order, only ties; beyond float range it is +-inf
    try:
        return q.numerator / q.denominator
    except OverflowError:
        return inf if q > 0 else -inf


def _by_y(S: PointSet) -> tuple[int, ...]:
    """The indices of S sorted by (y, x), lowest first.

    The floats decide every comparison they can; where they tie, the exact
    Fraction does, so the order is the one a sort by Fraction gives.
    """
    if S._by_y is None:
        pts = S.points
        keys = [(_approx(y), y, _approx(x), x) for x, y in pts]
        S._by_y = tuple(sorted(range(len(pts)), key=keys.__getitem__))
    return S._by_y


def _cycle(S: PointSet) -> tuple[tuple[int, ...], int]:
    """The hull cycle: the strict hull vertices counterclockwise from the top
    point, the last in the (y, x) order, and the position in it of the
    lowest point, the first in that order.

    Collinear boundary points are not hull vertices. For one or two points the
    cycle is all of them.
    """
    if S._cycle is None:
        order, h = _by_y(S), S._hom

        def chain(seq) -> list[int]:  # one monotone chain, left turns only
            out: list[int] = []
            for i in seq:
                while len(out) >= 2 and _orient(h[out[-2]], h[out[-1]], h[i]) <= 0:
                    out.pop()
                out.append(i)
            return out

        # down the left chain from the top point, then up the right chain
        # from the lowest; each chain ends where the other starts, and one
        # point is a chain of itself
        left = chain(reversed(order))
        S._cycle = (tuple(left[:-1] + chain(order)[:-1]) or order), len(left) - 1
    return S._cycle


def convex_hull(S: PointSet) -> tuple[int, ...]:
    """Indices of strict hull vertices in counterclockwise order from the lowest point.

    Collinear boundary points are not hull vertices. For one or two points the
    result is all of them.
    """
    cycle, lowest = _cycle(S)
    return cycle[lowest:] + cycle[:lowest]


def is_general_position(S: PointSet) -> bool:
    """No two points share a y-coordinate and no three points are collinear."""
    if S._general is not None:
        return S._general
    h, order = S._hom, _by_y(S)
    S._general = all(_rise(h[i], h[j]) for i, j in zip(order, order[1:])) \
        and (_convex_including_small(S) or _no_collinear_triple(h))
    return S._general


def _no_collinear_triple(h: Sequence[Hom], first: int = 0) -> bool:
    """No collinear triple among the points h with a point at index >= first:
    the points before first are taken to be free of one.

    A repeated direction around a common point means a collinear triple, so
    each fresh point i compares its directions to every point before first
    and every point after i; a triple is caught at its lowest fresh point.
    A direction (dx, dy) = (q - p) * W_p * W_q is keyed first by the float
    dx / dy, which int division rounds correctly: equal ratios give equal
    floats, so distinct floats rule every triple through i out. Only when a
    float repeats, or dy == 0, or the ratio is beyond float range, do the
    exact reduced directions of _distinct_directions decide point i.
    """
    base = h[:first]
    for i in range(first, len(h)):
        px, py, pw = h[i]
        others = base + h[i + 1:]
        try:
            keys = {(qx * pw - px * qw) / (qy * pw - py * qw) for qx, qy, qw in others}
        except (ZeroDivisionError, OverflowError):
            keys = ()
        if len(keys) < len(others) and not _distinct_directions(h[i], others):
            return False
    return True


def _distinct_directions(p: Hom, others: Sequence[Hom]) -> bool:
    """Whether the directions from p to the points others are pairwise
    distinct, exactly: each is (q - p) * W_p * W_q reduced by its gcd and
    signed so that dy > 0, or dy == 0 and dx > 0."""
    px, py, pw = p
    directions = set()
    for qx, qy, qw in others:
        dx = qx * pw - px * qw
        dy = qy * pw - py * qw
        g = gcd(dx, dy) if dy > 0 or dy == 0 and dx > 0 else -gcd(dx, dy)
        key = (dx // g, dy // g)
        if key in directions:
            return False
        directions.add(key)
    return True


def _convex_including_small(S: PointSet) -> bool:
    return len(S) < 3 or len(_cycle(S)[0]) == len(S)


def is_convex_position(S: PointSet) -> bool:
    """True iff no point lies in the convex hull of the others (|S| >= 3)."""
    if len(S) < 3:
        raise ValueError("is_convex_position requires at least 3 points")
    return _convex_including_small(S)


class SideSplit(NamedTuple):
    left: tuple[int, ...]   # indices on the left of the bottom-top line, ascending y
    right: tuple[int, ...]  # indices on the right, ascending y
    bottom: int
    top: int


def _side_of_line(p: Point, a: Point, b: Point) -> int:
    """Horizontal-ray side test against the non-horizontal line through a and b:
    1 when p is right of the line, -1 when left, 0 on it."""
    ha, hb = _hom(a), _hom(b)
    rise = _rise(ha, hb)
    if not rise:
        raise ValueError("line through a and b must not be horizontal")
    return -_orient(ha, hb, _hom(p)) if rise > 0 else _orient(ha, hb, _hom(p))


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
    # the cycle runs down the left side from the top point to the lowest,
    # then up the right side
    cycle, lowest = _cycle(S)
    return SideSplit(cycle[lowest - 1:0:-1], cycle[lowest + 1:], cycle[lowest], cycle[0])


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
        shell = set(_cycle(sub)[0])
        remaining = [idx for k, idx in enumerate(remaining) if k not in shell]
        depth += 1
    return depth


def is_consecutive(subset: Iterable[int], S: PointSet) -> bool:
    """True iff the subset occupies a contiguous arc of the hull cycle of a convex set."""
    if not _convex_including_small(S):
        raise NotConvex("point set is not in convex position")
    cycle, _ = _cycle(S)
    pos = {idx: k for k, idx in enumerate(cycle)}
    chosen = set()
    for i in subset:
        # type, not isinstance: True would be read as point 1
        if type(i) is not int or i not in pos:
            raise ValueError(f"index {i!r} is not a point of the set")
        chosen.add(pos[i])
    n = len(cycle)
    if len(chosen) in (0, n):
        return True
    gaps = sum(1 for k in chosen if (k + 1) % n not in chosen)
    return gaps == 1
