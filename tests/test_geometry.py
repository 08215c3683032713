import collections
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from upse import (Digraph, Mapping, NotConvex, NotGeneralPosition,
                  Orientation, PartitionInstance, PartitionSolution, Point,
                  PointSet, Sidedness, ViolationKind, classify_sides,
                  convex_depth, convex_hull, cross, decide_upse,
                  embed_switch_tree, embedding_to_solution,
                  gen_binucci_pointset, gen_binucci_tree, gen_gadget,
                  is_consecutive, is_convex_position, is_general_position,
                  is_one_sided, orientation, point_left_of_line,
                  point_right_of_line, pt, render_svg, segments_cross,
                  solution_to_embedding, verify_upse)
from upse import fileio
from upse import geometry as geo
from upse.geometry import _by_y

from helpers import (circle_point, frac_cross, frac_segments_cross,
                     frac_side_of_line, gcd_no_collinear_triple, jarvis_hull,
                     naive_depth, random_convex, random_general,
                     random_switch_tree, side_test_split,
                     slope_general_position, xsort_hull)


def square(side=2):
    return PointSet([pt(0, 0), pt(side, 0), pt(side, side), pt(0, side)])


class TestPointSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^point set must be non-empty$"):
            PointSet([])

    def test_rejects_duplicates(self):
        for pts in ([pt(1, 1), pt(1, 1)], [pt(0, 3), pt("1/2", 1), pt(Fraction(2, 4), 1)]):
            with pytest.raises(ValueError, match="^points must be pairwise distinct$"):
                PointSet(pts)

    @pytest.mark.parametrize("bad", [Point(Fraction(1), 1.5), Point("1/2", 0), Point(None, 1)])
    def test_rejects_non_rational_coordinates(self, bad):
        with pytest.raises(ValueError, match=r"^point .* has a non-rational coordinate; "
                                             r"build points with pt\(\)$"):
            PointSet([pt(0, 0), bad])

    def test_indexing_and_len(self):
        S = square()
        assert len(S) == 4
        assert S[2] == pt(2, 2)

    @pytest.mark.parametrize("pairs", [
        [(0, 0), (2, 1), (0, 2), (2, 3)],
        [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(1, 2)),
         (Fraction(-1, 3), Fraction(2)), (Fraction(5, 2), Fraction(3))],
    ])
    def test_plain_pairs_become_points(self, pairs):
        S = PointSet(pairs)
        assert all(type(p) is Point for p in S)
        assert S == PointSet([pt(x, y) for x, y in pairs])
        G = Digraph(["a", "b", "c", "d"], [(0, 3), (1, 2)])
        m = Mapping((0, 1, 2, 3))
        assert [v.kind for v in verify_upse(G, S, m)] == [ViolationKind.ARCS_CROSS]
        assert render_svg(S, G, m) == render_svg(PointSet(map(pt, *zip(*pairs))), G, m)
        assert fileio.points_to_obj(S)["points"] == [
            [fileio.rational_to_json(Fraction(c)) for c in p] for p in pairs]

    @pytest.mark.parametrize("bad", [(1, 2, 3), (1,), 5, None])
    def test_rejects_an_entry_that_is_not_a_pair(self, bad):
        with pytest.raises(ValueError, match=r"^point .* is not an \(x, y\) pair$"):
            PointSet([pt(0, 0), bad])


class TestOrientation:
    def test_basic_turns(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(1, 1)) is Orientation.COUNTERCLOCKWISE
        assert orientation(pt(0, 0), pt(1, 0), pt(1, -1)) is Orientation.CLOCKWISE
        assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) is Orientation.COLLINEAR

    def test_cross_value_is_signed_area(self):
        assert cross(pt(0, 0), pt(2, 0), pt(0, 3)) == 6
        assert cross(pt(0, 0), pt(0, 3), pt(2, 0)) == -6


class TestSegmentsCross:
    def test_proper_crossing(self):
        assert segments_cross(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))

    def test_disjoint(self):
        assert not segments_cross(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))

    def test_shared_endpoint_is_not_a_crossing(self):
        assert not segments_cross(pt(0, 0), pt(1, 1), pt(1, 1), pt(2, 0))

    def test_endpoint_in_interior_counts(self):
        # touch point is an endpoint of only one of the segments
        assert segments_cross(pt(0, 0), pt(2, 0), pt(1, 0), pt(1, 5))

    def test_collinear_overlap_counts(self):
        assert segments_cross(pt(0, 0), pt(3, 0), pt(1, 0), pt(4, 0))

    def test_collinear_sharing_only_an_endpoint(self):
        assert not segments_cross(pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 0))

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            segments_cross(pt(0, 0), pt(0, 0), pt(1, 0), pt(2, 0))


class TestConvexHull:
    def test_unit_circle_points(self):
        # hand-checked: parameters 0,1,2,3 hit angles 0, 90, ~127, ~143 degrees
        S = PointSet([circle_point(Fraction(t)) for t in range(4)])
        assert convex_hull(S) == (0, 1, 2, 3)

    def test_starts_at_lowest_and_runs_ccw(self):
        S = PointSet([pt(0, 1), pt(1, 0), pt(2, 1), pt(1, 2)])
        assert convex_hull(S) == (1, 2, 3, 0)

    def test_strict_hull_excludes_collinear_boundary(self):
        S = PointSet([pt(0, 0), pt(1, 0), pt(2, 0), pt(1, 1)])
        assert set(convex_hull(S)) == {0, 2, 3}

    def test_interior_point_excluded(self):
        S = PointSet([pt(0, 0), pt(4, 0), pt(2, 4), pt(2, 1)])
        assert set(convex_hull(S)) == {0, 1, 2}

    def test_tiny_sets(self):
        assert convex_hull(PointSet([pt(5, 5)])) == (0,)
        assert convex_hull(PointSet([pt(1, 2), pt(0, 0)])) == (1, 0)


class TestGeneralPosition:
    def test_duplicate_y_fails(self):
        assert not is_general_position(PointSet([pt(0, 0), pt(5, 0)]))

    def test_collinear_triple_fails(self):
        assert not is_general_position(PointSet([pt(0, 0), pt(1, 1), pt(2, 2)]))
        # middle point first: its directions to the other two are opposite
        assert not is_general_position(PointSet([pt(1, 1), pt(0, 0), pt(2, 2)]))

    def test_good_set(self):
        assert is_general_position(PointSet([pt(0, 0), pt(3, 1), pt(1, 2), pt(-2, 5)]))

    def test_vertical_collinear_triple_fails(self):
        assert not is_general_position(PointSet([pt(0, 0), pt(0, 1), pt(0, 2)]))

    def test_ten_thousand_convex_points_under_a_second(self):
        S = random_convex(random.Random(2), 10_000, "mixed")
        start = time.perf_counter()
        assert is_general_position(S)
        assert time.perf_counter() - start < 1.0


class TestConvexPosition:
    def test_small_sets_rejected(self):
        with pytest.raises(ValueError):
            is_convex_position(PointSet([pt(0, 0), pt(1, 1)]))

    def test_square_is_convex(self):
        assert is_convex_position(square())

    def test_interior_point_breaks_it(self):
        S = PointSet([pt(0, 0), pt(4, 0), pt(2, 4), pt(2, 1)])
        assert not is_convex_position(S)

    def test_collinear_boundary_point_breaks_it(self):
        # strict notion: a point on a hull edge is not a hull vertex
        S = PointSet([pt(0, 0), pt(2, 0), pt(4, 0), pt(2, 3)])
        assert not is_convex_position(S)


class TestSides:
    def build(self):
        # b at the bottom, t at the top, one point each side
        return PointSet([pt(0, -5), pt(0, 5), pt(-3, 1), pt(4, -1)])

    def test_classify(self):
        split = classify_sides(self.build())
        assert split.bottom == 0 and split.top == 1
        assert split.left == (2,) and split.right == (3,)

    def test_sides_sorted_by_y(self):
        S = PointSet([pt(0, -5), pt(0, 5), pt(-3, 4), pt(-4, 0), pt(-3, -4)])
        split = classify_sides(S)
        assert split.left == (4, 3, 2)
        assert split.right == ()

    def test_rejects_non_general(self):
        with pytest.raises(NotGeneralPosition):
            classify_sides(PointSet([pt(0, 0), pt(1, 0), pt(2, 5)]))

    def test_rejects_non_convex(self):
        with pytest.raises(NotConvex):
            classify_sides(PointSet([pt(0, 0), pt(4, 1), pt(2, 4), pt(2, 1)]))

    def test_rejects_one_point(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            classify_sides(PointSet([pt(0, 0)]))

    def test_one_sided(self):
        S = self.build()
        assert is_one_sided(S) is Sidedness.TWO_SIDED
        left = PointSet([pt(0, -5), pt(0, 5), pt(-3, 1)])
        assert is_one_sided(left) is Sidedness.LEFT_HEAVY
        right = PointSet([pt(0, -5), pt(0, 5), pt(3, 1)])
        assert is_one_sided(right) is Sidedness.RIGHT_HEAVY

    def test_two_points_count_as_left_heavy(self):
        assert is_one_sided(PointSet([pt(0, 0), pt(1, 1)])) is Sidedness.LEFT_HEAVY

    def test_hull_split_matches_side_tests(self):
        rng = random.Random(21)
        for two in (PointSet([pt(0, 0), pt(1, 1)]), PointSet([pt(3, 2), pt(-1, -4)])):
            assert classify_sides(two) == side_test_split(two)
        for sidedness in ("left", "right", "mixed"):
            for n in range(3, 14):
                S = random_convex(rng, n, sidedness)
                split = classify_sides(S)
                assert split == side_test_split(S)
                if sidedness == "left":
                    assert split.right == ()
                if sidedness == "right":
                    assert split.left == ()

    def test_point_side_predicates(self):
        a, b = pt(0, 0), pt(0, 10)
        assert point_left_of_line(pt(-1, 5), a, b)
        assert point_right_of_line(pt(1, 5), a, b)
        assert not point_left_of_line(pt(1, 5), a, b)
        with pytest.raises(ValueError):
            point_left_of_line(pt(1, 1), pt(0, 0), pt(5, 0))


class TestConvexDepth:
    def test_convex_set_has_depth_one(self):
        assert convex_depth(square()) == 1

    def test_nested_squares(self):
        outer = [pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10)]
        inner = [pt(4, 4), pt(6, 4), pt(6, 6), pt(4, 6)]
        assert convex_depth(PointSet(outer + inner)) == 2

    def test_matches_reference_on_random_sets(self):
        rng = random.Random(7)
        for _ in range(40):
            S = random_general(rng, rng.randrange(1, 25))
            assert convex_depth(S) == naive_depth(S)

    def test_depth_one_iff_convex_position(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randrange(3, 15)
            S = random_general(rng, n)
            assert (convex_depth(S) == 1) == is_convex_position(S)


class TestConsecutive:
    def setup_method(self):
        self.S = random_convex(random.Random(3), 8)

    def test_empty_and_full(self):
        assert is_consecutive([], self.S)
        assert is_consecutive(list(range(8)), self.S)

    def test_arc_and_wraparound(self):
        hull = list(convex_hull(self.S))
        assert is_consecutive(hull[2:5], self.S)
        assert is_consecutive(hull[6:] + hull[:2], self.S)

    def test_gap_is_rejected(self):
        hull = list(convex_hull(self.S))
        assert not is_consecutive([hull[0], hull[2]], self.S)

    @pytest.mark.parametrize("i", [8, -1])
    def test_index_outside_the_set_is_rejected(self, i):
        with pytest.raises(ValueError, match=f"index {i} is not a point of the set"):
            is_consecutive([0, i], self.S)

    @pytest.mark.parametrize("i", [True, False, 1.0])
    def test_an_index_that_is_not_an_int_is_rejected(self, i):
        # True would read as point 1, as Mapping and the vertex tests refuse
        with pytest.raises(ValueError, match=f"index {i!r} is not a point of the set"):
            is_consecutive([i], self.S)


class TestPredicateFuzz:
    def test_orientation_antisymmetry_and_invariance(self):
        rng = random.Random(11)
        for _ in range(500):
            p, q, r = (pt(rng.randrange(-20, 21), rng.randrange(-20, 21))
                       for _ in range(3))
            o = orientation(p, q, r)
            assert orientation(q, p, r) is Orientation(-o)
            assert orientation(p, r, q) is Orientation(-o)
            # cyclic shifts preserve it
            assert orientation(q, r, p) is o
            dx, dy = rng.randrange(-9, 10), rng.randrange(-9, 10)
            shift = lambda a: pt(a.x + dx, a.y + dy)
            assert orientation(shift(p), shift(q), shift(r)) is o


# Points of every representation the package meets: rational-circle points
# (embed), integers above 10^12 (the reduction gadget), mixed denominators,
# and a small grid where collinear and equal-y triples are common.
circle_points = st.builds(lambda k, left: circle_point(Fraction(k, 1000), left),
                          st.integers(-999, 999), st.booleans())
huge = st.integers(10 ** 12, 10 ** 15).flatmap(lambda v: st.sampled_from((v, -v)))
huge_points = st.builds(Point, huge.map(Fraction), huge.map(Fraction))
mixed = st.fractions(min_value=-50, max_value=50, max_denominator=60)
mixed_points = st.builds(Point, mixed, mixed)
grid_points = st.builds(pt, st.integers(-3, 3), st.integers(-3, 3))
points = st.one_of(circle_points, huge_points, mixed_points, grid_points)


@st.composite
def degenerate(draw, a, b):
    """A point collinear with a and b, or at the height of a, or a fresh one."""
    kind = draw(st.sampled_from(("collinear", "equal_y", "free")))
    if kind == "collinear":
        t = draw(st.fractions(min_value=-2, max_value=3, max_denominator=7))
        return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    if kind == "equal_y":
        return Point(draw(points).x, a.y)
    return draw(points)


@st.composite
def triples(draw):
    a, b = draw(points), draw(points)
    return a, b, draw(degenerate(a, b))


@st.composite
def point_lists(draw, points=points):
    pts = draw(st.lists(points, min_size=1, max_size=9))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, len(pts) - 1))
        pts.append(draw(degenerate(pts[i], pts[j])))
    return draw(st.permutations(list(dict.fromkeys(pts))))


# Coordinates beyond float range, below float resolution (floats tie where
# the exact values differ) and with mixed denominators, for the float filter
# of the cached (y, x) order.
TINY = Fraction(1, 10 ** 400)
extreme = st.sampled_from((10 ** 400, -10 ** 400, TINY, -TINY, Fraction(1, 3),
                           Fraction(1, 3) + Fraction(1, 10 ** 40), 10 ** 30,
                           10 ** 30 + 1, 0, 1)).map(Fraction)
extreme_points = st.one_of(st.builds(Point, extreme, extreme),
                           st.builds(Point, extreme, mixed),
                           st.builds(Point, mixed, extreme))


@st.composite
def convex_sets(draw):
    """A rational-circle set, perhaps with one extra point on a hull edge or at
    the height of another point, scaled and shifted to extreme coordinates."""
    ks = draw(st.lists(st.integers(-999, 999), min_size=1, max_size=10, unique=True))
    pts = [circle_point(Fraction(k, 1000), draw(st.booleans())) for k in ks]
    defect = draw(st.sampled_from(("none", "on_edge", "equal_y")))
    if defect == "on_edge" and len(pts) >= 2:
        hull = jarvis_hull(pts)
        i = draw(st.integers(0, len(hull) - 1))
        a, b = pts[hull[i]], pts[hull[(i + 1) % len(hull)]]
        t = Fraction(draw(st.integers(1, 8)), 9)
        pts.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    elif defect == "equal_y":  # its mirror image, also on the circle
        p = draw(st.sampled_from(pts))
        pts.append(Point(-p.x, p.y))
    scale = draw(st.sampled_from((1, -1, 10 ** 400, TINY, Fraction(7, 3))))
    shift = draw(st.sampled_from((0, 10 ** 30, Fraction(1, 3))))
    pts = [Point(p.x * scale + shift, p.y * scale + shift) for p in pts]
    return draw(st.permutations(list(dict.fromkeys(pts))))


@st.composite
def collinear_sets(draw):
    """Points on one horizontal, vertical or slanted line."""
    a = draw(st.one_of(points, extreme_points))
    d = draw(st.sampled_from((Point(Fraction(1), Fraction(0)),
                              Point(Fraction(0), Fraction(1)), None)))
    d = d or draw(points)
    ts = draw(st.lists(st.fractions(-5, 5, max_denominator=9), min_size=1,
                       max_size=8, unique=True))
    return list(dict.fromkeys(Point(a.x + t * d.x, a.y + t * d.y) for t in ts))


@st.composite
def one_sided_sets(draw):
    """Rational-circle points all on its left half, or all on its right."""
    ks = draw(st.lists(st.integers(-999, 999), min_size=1, max_size=10, unique=True))
    left = draw(st.booleans())
    return draw(st.permutations([circle_point(Fraction(k, 1000), left) for k in ks]))


point_sets = st.one_of(point_lists(st.one_of(points, extreme_points)),
                       convex_sets(), collinear_sets())
SQUARE = [pt(0, 0), pt(4, 1), pt(5, 5), pt(1, 4)]  # convex, distinct y
NAMED_SETS = (
    [pt(0, 0)],
    [pt(0, 0), pt(3, 0)],
    [pt(0, 1), pt(0, 0)],
    SQUARE + [pt(2, Fraction(1, 2))],              # on the hull edge (0,0)-(4,1)
    SQUARE + [pt(9, 5)],                           # two equal y on the hull
    [pt(k, 2) for k in (3, -1, 0, 7)],             # horizontal
    [pt(2, k) for k in (3, -1, 0, 7)],             # vertical
    [pt(k, 2 * k + 1) for k in (3, -1, 0, 7)],     # slanted
    [pt(10 ** 400, 1), pt(-10 ** 400, 2), pt(0, -10 ** 400), pt(1, 10 ** 400)],
    [pt(TINY, 0), pt(0, TINY), pt(-TINY, -TINY), pt(1, 1)],
    [pt(0, Fraction(1, 3)), pt(1, Fraction(1, 3) + Fraction(1, 10 ** 40)),
     pt(2, Fraction(1, 3)), pt(5, 0)],
    [pt(10 ** 30, 0), pt(10 ** 30 + 1, 0), pt(0, 10 ** 30 + 1), pt(1, 10 ** 30)],
)


def with_named_sets(test):
    for pts in NAMED_SETS:
        test = example(pts)(test)
    return test


class TestKernelAgainstFractionOracles:
    @settings(max_examples=100, deadline=None)
    @given(triples())
    def test_orientation_cross_and_sides(self, t):
        a, b, c = t
        value = frac_cross(a, b, c)
        assert cross(a, b, c) == value
        assert orientation(a, b, c) is Orientation((value > 0) - (value < 0))
        p, a, b = t
        if a.y == b.y:
            for test in (point_left_of_line, point_right_of_line):
                with pytest.raises(ValueError):
                    test(p, a, b)
            return
        side = frac_side_of_line(p, a, b)
        assert point_right_of_line(p, a, b) == (side > 0)
        assert point_left_of_line(p, a, b) == (side < 0)

    @settings(max_examples=100, deadline=None)
    @given(triples(), st.data())
    def test_segments_cross(self, t, data):
        a, b, c = t
        d = data.draw(st.one_of(degenerate(a, b), degenerate(c, a), st.sampled_from(t)))
        for seg in ((a, b, c, d), (a, c, b, d), (a, d, c, b)):
            if seg[0] == seg[1] or seg[2] == seg[3]:
                with pytest.raises(ValueError):
                    segments_cross(*seg)
            else:
                assert segments_cross(*seg) == frac_segments_cross(*seg)

    @settings(max_examples=150, deadline=None)
    @with_named_sets
    @given(point_sets)
    def test_cached_order_is_the_fraction_sort(self, pts):
        assert list(_by_y(PointSet(pts))) == sorted(
            range(len(pts)), key=lambda i: (pts[i].y, pts[i].x))

    @settings(max_examples=150, deadline=None)
    @with_named_sets
    @given(point_sets)
    def test_convex_hull_matches_gift_wrapping(self, pts):
        assert list(convex_hull(PointSet(pts))) == jarvis_hull(pts) == xsort_hull(pts)

    @settings(max_examples=150, deadline=None)
    @with_named_sets
    @given(st.one_of(point_sets, one_sided_sets()))
    def test_cycle_is_gift_wrapping_from_the_top_point(self, pts):
        S = PointSet(pts)
        cycle, lowest = geo._cycle(S)
        by_yx = sorted(range(len(pts)), key=lambda i: (pts[i].y, pts[i].x))
        hull = jarvis_hull(pts)
        top = hull.index(by_yx[-1])
        assert list(cycle) == hull[top:] + hull[:top]
        assert cycle[lowest] == by_yx[0]
        # the set keeps the one cycle, and the hull is its rotation
        assert geo._cycle(S) is S._cycle
        assert convex_hull(S) == cycle[lowest:] + cycle[:lowest]

    @settings(max_examples=150, deadline=None)
    @with_named_sets
    @given(point_sets)
    def test_general_position_matches_slopes(self, pts):
        assert is_general_position(PointSet(pts)) == slope_general_position(pts)


# Point lists for the float filter of _no_collinear_triple, each with a first
# fresh index p0 that sees a witness: a collinear triple, two directions
# whose ratios differ but round to one double ((2^53 + 1) / 2^53 against 1),
# a ratio beyond float range, or a horizontal direction. Any uniform scaling
# and shift keeps every ratio dx / dy, so the witness survives on rational
# and huge coordinates.
WITNESSES = {
    "collinear": ((3, 5), (-6, -10)),
    "float_tie": ((2 ** 53 + 1, 2 ** 53), (1, 1)),
    "beyond_float": ((10 ** 400, 1), (1, 2)),
    "horizontal": ((1, 0), (-3, 1)),
    "none": ((1, 3), (2, 5)),
}


@st.composite
def fresh_point_cases(draw):
    kind = draw(st.sampled_from(sorted(WITNESSES)))
    u, v = WITNESSES[kind]
    scale = draw(st.sampled_from((1, -1, Fraction(7, 3), 10 ** 400, TINY)))
    shift = draw(st.sampled_from((0, Fraction(1, 3), 10 ** 30)))
    origin, u, v = (Point(x * scale + shift, y * scale + shift)
                    for x, y in ((0, 0), u, v))
    rest = [p for p in dict.fromkeys(draw(st.lists(
        st.one_of(mixed_points, grid_points, extreme_points), max_size=6)))
        if p not in (origin, u, v)]
    base = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    after = draw(st.permutations([u, v] + [p for p in rest if p not in base]))
    return kind, base + [origin] + after, len(base)


class TestFloatFilteredDirections:
    """_no_collinear_triple keys directions by floats and falls back to
    exact reduced directions where they may tie; the gcd-keyed test of
    helpers is the oracle."""

    def test_horizontal_directions_share_a_key(self):
        assert not geo._no_collinear_triple([(0, 0, 1), (-1, 0, 1), (1, 0, 1)])
        assert not geo._no_collinear_triple([(2, 3, 1), (-4, 3, 1), (5, 6, 2)])
        assert geo._no_collinear_triple([(0, 0, 1), (-1, 0, 1), (1, 1, 1)])
        assert not geo._distinct_directions((0, 0, 1), [(-1, 0, 1), (1, 0, 1)])

    @pytest.mark.parametrize("kind, first", [(k, f) for k in WITNESSES for f in (0, 2)])
    def test_each_witness_reaches_the_exact_keys(self, kind, first):
        u, v = WITNESSES[kind]
        h = [(*u, 1), (*v, 1)]
        h = h[:first] + [(0, 0, 1)] + h[first:]  # the origin is the first fresh point
        with mock.patch.object(geo, "_distinct_directions",
                               wraps=geo._distinct_directions) as exact:
            got = geo._no_collinear_triple(h, first)
        assert got == gcd_no_collinear_triple(h, first) == (kind != "collinear")
        assert bool(exact.call_count) == (kind != "none")

    @settings(max_examples=300, deadline=None)
    @given(fresh_point_cases(), st.data())
    def test_matches_the_gcd_keyed_test(self, case, data):
        kind, pts, p0 = case
        first = data.draw(st.integers(0, p0))
        h = [geo._hom(p) for p in pts]
        with mock.patch.object(geo, "_distinct_directions",
                               wraps=geo._distinct_directions) as exact:
            got = geo._no_collinear_triple(h, first)
        event(f"{kind}: {'exact keys' if exact.call_count else 'floats alone'}")
        assert got == gcd_no_collinear_triple(h, first)
        # a collinear triple can only be found by the exact keys, and every
        # witness is seen from the lowest fresh point
        assert got or exact.call_count
        if kind != "none":
            assert exact.call_count
        if kind == "collinear":
            assert not got
        if first == 0:
            distinct_y = len({p.y for p in pts}) == len(pts)
            assert is_general_position(PointSet(pts)) == (distinct_y and got) \
                == slope_general_position(pts)


coordinate = st.one_of(st.integers(-50, 50), st.sampled_from((10 ** 400, -10 ** 400)))
homogeneous = st.tuples(coordinate, coordinate, st.one_of(st.integers(1, 60), st.just(10 ** 400)))


class TestLineIdentity:
    @settings(max_examples=300, deadline=None)
    @given(homogeneous, homogeneous, homogeneous, st.booleans())
    def test_wedge_dot_is_the_orientation(self, a, b, p, equal_w):
        if equal_w:
            b, p = (*b[:2], a[2]), (*p[:2], a[2])
        lx, ly, lw = geo._wedge(a, b)
        dot = lx * p[0] + ly * p[1] + lw * p[2]
        assert dot == geo._det(a, b, p)
        assert (dot > 0) - (dot < 0) == geo._orient(a, b, p)
        assert geo._side(geo._wedge(a, b), p) == geo._orient(a, b, p)

    @settings(max_examples=300, deadline=None)
    @given(homogeneous, homogeneous, st.booleans())
    def test_rise_and_yx_match_fractions(self, a, b, equal_w):
        if equal_w:
            b = (*b[:2], a[2])
        (xa, ya), (xb, yb) = ((Fraction(x, w), Fraction(y, w)) for x, y, w in (a, b))
        assert geo._rise(a, b) == (yb - ya) * a[2] * b[2]
        assert geo._yx(a) == (ya, xa)
        # a point's own homogeneous integers give back its exact (y, x)
        assert geo._yx(geo._hom(Point(xb, yb))) == (yb, xb)
        # the exact (y, x) of where line ab meets a second line, whose W is
        # a product of theirs, lies on both lines
        c, d = (a[1], -a[0], a[2]), (b[0] + 1, b[1], b[2])
        if geo._wedge(geo._wedge(a, b), geo._wedge(c, d))[2]:
            y, x = geo._yx(geo._meet(a, b, c, d))
            A, B, C, D = (Point(Fraction(px, w), Fraction(py, w)) for px, py, w in (a, b, c, d))
            assert frac_cross(A, B, Point(x, y)) == 0 == frac_cross(C, D, Point(x, y))


FRACTION_OPS = ("__eq__", "__lt__", "__gt__", "__le__", "__ge__", "__add__",
                "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__abs__")


class TestNoFractionAfterConstruction:
    """Once a PointSet holds its homogeneous integers, embedding, verifying,
    deciding and the gadget's build, drawing and decoding compare and
    compute on those integers alone: every Fraction comparison and
    arithmetic operation is counted, and none may run."""

    @staticmethod
    def count(monkeypatch, run):
        """run()'s result, and how many times each Fraction operation ran."""
        counts: collections.Counter = collections.Counter()
        for name in FRACTION_OPS:
            def counted(*args, _op=getattr(Fraction, name), _name=name):
                counts[_name] += 1
                return _op(*args)
            monkeypatch.setattr(Fraction, name, counted)
        out = run()
        monkeypatch.undo()
        return out, dict(counts)

    def test_embed_and_verify(self, monkeypatch):
        rng = random.Random(1)
        G, S = random_switch_tree(rng, 96), random_convex(rng, 96)
        assert self.count(monkeypatch, lambda: verify_upse(
            G, S, embed_switch_tree(G, S))) == ([], {})

    def test_decide_the_counterexample(self, monkeypatch):
        G, S = gen_binucci_tree(5), gen_binucci_pointset(5)
        res, ops = self.count(monkeypatch, lambda: decide_upse(G, S))
        assert (res.result, ops) == ("not_embeddable", {})

    def test_gadget_build_draw_and_decode(self, monkeypatch):
        inst = PartitionInstance(13, (4, 4, 5, 4, 4, 5))
        g, ops = self.count(monkeypatch, lambda: gen_gadget(inst))
        assert ops == {}
        sol = PartitionSolution(((0, 1, 2), (3, 4, 5)))
        decoded, ops = self.count(monkeypatch, lambda: embedding_to_solution(
            g, solution_to_embedding(g, sol)))
        assert (decoded, ops) == (sol, {})
