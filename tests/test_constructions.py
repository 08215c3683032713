from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from upse import (BadN, BadParameters, ExtractionFailed, InvalidInstance,
                  InvalidSolution, Mapping, NotAValidUPSE, PartitionInstance,
                  PartitionSolution, Point, PointSet, PropertyCheckFailed,
                  cross, decide_upse, embedding_to_solution,
                  gadget_base_points, gen_binucci_pointset, gen_binucci_tree,
                  gen_gadget, gen_kswitch_tree, is_convex_position,
                  is_general_position, is_switch_tree,
                  longest_directed_path_length, pt, solution_to_embedding,
                  sources_and_sinks, underlying_is_tree, verify_upse)
from upse.constructions import _check_gadget_points, _extends_general_position
from upse.geometry import _hom

from helpers import jarvis_hull, slope_general_position, whole_set_gadget_points


class TestBinucciTree:
    def test_shape_for_n5(self):
        T = gen_binucci_tree(5)
        assert T.n == 16 and len(T.arcs) == 15
        assert underlying_is_tree(T)
        assert longest_directed_path_length(T) == 4

    def test_roles_for_n7(self):
        T = gen_binucci_tree(7)
        sources, sinks = sources_and_sinks(T)
        lab = lambda vs: {T.vertices[v] for v in vs}
        assert lab(sources) == {"u7", "v1", "w1"}
        assert lab(sinks) == {"u1", "v7", "w7"}
        # r is neither: it has both in-arcs and an out-arc
        assert not is_switch_tree(T)

    def test_rejects_bad_n(self):
        for n in (3, 4, 6, 0, -5):
            with pytest.raises(BadN):
                gen_binucci_tree(n)

    @pytest.mark.parametrize("n", [5.0, 7.0, Fraction(5), "5", True])
    def test_rejects_a_non_integer_n(self, n):
        # type, not value: 5.0 and Fraction(5) equal 5, and True is an int
        for gen in (gen_binucci_tree, gen_binucci_pointset):
            with pytest.raises(BadN, match="n must be an odd integer >= 5"):
                gen(n)


class TestBinucciPointset:
    def test_shape_for_n5(self):
        S = gen_binucci_pointset(5)
        assert len(S) == 16
        assert S[0] == (0, -1) and S[15] == (0, 1)
        assert is_general_position(S)
        assert is_convex_position(S)

    def test_all_points_on_unit_circle(self):
        S = gen_binucci_pointset(5)
        assert all(p.x * p.x + p.y * p.y == 1 for p in S)

    def test_sides_interleave_in_y(self):
        for n in (5, 7):
            S = gen_binucci_pointset(n)
            half = (3 * n - 1) // 2
            ys = [p.y for p in S]
            assert ys == sorted(ys) and len(set(ys)) == len(ys)
            rights = [i for i, p in enumerate(S) if p.x > 0]
            lefts = [i for i, p in enumerate(S) if p.x < 0]
            assert len(rights) == len(lefts) == half
            # ascending through the list, sides alternate r, l, r, l, ...
            assert rights == list(range(1, 2 * half + 1, 2))
            assert lefts == list(range(2, 2 * half + 1, 2))

    def test_rejects_bad_n(self):
        for n in (4, 2, -1):
            with pytest.raises(BadN):
                gen_binucci_pointset(n)


class TestKSwitchTree:
    def test_longest_path_is_exactly_k(self):
        for n in (5, 7, 9):
            for k in range(2, n):
                T = gen_kswitch_tree(n, k)
                assert T.n == 3 * n + 1
                assert underlying_is_tree(T)
                assert longest_directed_path_length(T) == k

    def test_extreme_k_reproduces_the_fixed_tree(self):
        # the fixed tree written out, compared in order: the arc order fixes
        # the search order, and so the pinned node counts
        for n in range(5, 52, 2):
            vertices = ["r"] + [f"{p}{i}" for p in "uvw" for i in range(1, n + 1)]
            arcs = [(f"u{i + 1}", f"u{i}") for i in range(1, n)]
            arcs += [(f"{p}{i}", f"{p}{i + 1}") for p in "vw" for i in range(1, n)]
            arcs += [("r", "u1"), ("v1", "r"), ("w1", "r")]
            for T in (gen_kswitch_tree(n, n - 1), gen_binucci_tree(n)):
                assert list(T.vertices) == vertices
                assert [(T.vertices[t], T.vertices[h]) for t, h in T.arcs] == arcs

    def test_first_runs_are_anchored(self):
        T = gen_kswitch_tree(9, 3)
        arcs = {(T.vertices[t], T.vertices[h]) for t, h in T.arcs}
        assert {("u3", "u2"), ("u2", "u1"), ("r", "u1")} <= arcs
        assert {("v1", "v2"), ("w1", "w2"), ("v1", "r"), ("w1", "r")} <= arcs

    def test_rejects_bad_parameters(self):
        for n, k in ((5, 1), (5, 5), (5, 0), (4, 2), (3, 2)):
            with pytest.raises(BadParameters):
                gen_kswitch_tree(n, k)

    @pytest.mark.parametrize("n, k", [(7, 2.5), (7, 3.0), (5.5, 2), (7.0, 3),
                                      (7, True), (True, 2), (7, "3")])
    def test_rejects_non_integer_parameters(self, n, k):
        # 2.5 is not a generator failure, and 3.0 is not the integer 3
        with pytest.raises(BadParameters, match="must be an integer"):
            gen_kswitch_tree(n, k)


class TestPartitionInstance:
    def test_valid(self):
        inst = PartitionInstance(12, (4, 4, 4, 4, 4, 4))
        assert inst.m == 2

    def test_item_bounds(self):
        with pytest.raises(InvalidInstance):
            PartitionInstance(12, (3, 4, 5))  # 4*3 = 12 is not > 12
        with pytest.raises(InvalidInstance):
            PartitionInstance(12, (6, 4, 4))  # 2*6 = 12 is not < 12

    def test_wrong_count_and_sum(self):
        with pytest.raises(InvalidInstance):
            PartitionInstance(12, (4, 4))
        with pytest.raises(InvalidInstance):
            PartitionInstance(12, ())
        with pytest.raises(InvalidInstance):
            PartitionInstance(13, (4, 4, 4))  # sums to 12, not 13

    def test_bad_scalars(self):
        with pytest.raises(InvalidInstance):
            PartitionInstance(0, (1, 1, 1))
        with pytest.raises(InvalidInstance):
            PartitionInstance(12, (4, 4, "4"))

    def test_rejects_booleans(self):
        # True is an int to isinstance, and equal to 1
        with pytest.raises(InvalidInstance, match="items must be positive integers"):
            PartitionInstance(3, (True,) * 6)
        with pytest.raises(InvalidInstance, match="items must be positive integers"):
            PartitionInstance(3, (1, 1, True, 1, 1, 1))
        with pytest.raises(InvalidInstance, match="B must be a positive integer"):
            PartitionInstance(True, (1, 1, 1))

    def test_items_are_kept_as_a_tuple(self):
        inst = PartitionInstance(3, [1, 1, 1])
        assert inst.A == (1, 1, 1) and inst == PartitionInstance(3, (1, 1, 1))
        # both are frozen, so both hash
        assert hash(inst) == hash(PartitionInstance(3, (1, 1, 1)))
        g = gen_gadget(inst)
        assert {g: 1}[g] == 1 and hash(g.points) == hash(PointSet(g.points.points))
        # a gadget compares by value, its graph included
        assert g == gen_gadget(PartitionInstance(3, (1, 1, 1)))
        assert hash(g) == hash(gen_gadget(PartitionInstance(3, (1, 1, 1))))


class TestPartitionSolution:
    def test_check_against(self):
        inst = PartitionInstance(13, (4, 4, 5, 4, 4, 5))
        PartitionSolution(((0, 1, 2), (3, 4, 5))).check_against(inst)
        PartitionSolution(((0, 4, 2), (3, 1, 5))).check_against(inst)
        with pytest.raises(InvalidSolution):  # triple sums to 12
            PartitionSolution(((0, 1, 3), (2, 4, 5))).check_against(inst)
        with pytest.raises(InvalidSolution):  # index 0 reused
            PartitionSolution(((0, 1, 2), (0, 4, 5))).check_against(inst)
        with pytest.raises(InvalidSolution):  # wrong triple count
            PartitionSolution(((0, 1, 2),)).check_against(inst)

    @pytest.mark.parametrize("i", [True, 1.0, Fraction(1), "1"])
    def test_rejects_an_index_that_is_not_an_int(self, i):
        # True and 1.0 both equal item 1, and sort as it does
        inst = PartitionInstance(13, (4, 4, 5, 4, 4, 5))
        with pytest.raises(InvalidSolution, match="partition the item indices"):
            PartitionSolution(((0, i, 2), (3, 4, 5))).check_against(inst)

    @pytest.mark.parametrize("sets", [(5, 6), ((0, 1), (2, 3, 4, 5)),
                                      ((0, 1, 2), (3, 4, 5, 6)), ((0, 1, 2), None), None])
    def test_rejects_an_entry_that_is_not_a_triple(self, sets):
        # (5, 6) holds no triple at all, and ((0, 1), (2, 3, 4, 5)) partitions
        # the six items, so only its sums would be wrong
        with pytest.raises(InvalidSolution, match="triple of item indices"):
            PartitionSolution(sets).check_against(PartitionInstance(3, (1,) * 6))

    def test_triples_are_kept_as_tuples(self):
        sol = PartitionSolution([[0, 1, 2], [3, 4, 5]])
        assert sol.sets == ((0, 1, 2), (3, 4, 5))
        assert sol == PartitionSolution(((0, 1, 2), (3, 4, 5)))
        # frozen, so it hashes
        assert hash(sol) == hash(PartitionSolution(((0, 1, 2), (3, 4, 5))))
        sol.check_against(PartitionInstance(3, (1,) * 6))


def tiny_gadget():
    return gen_gadget(PartitionInstance(3, (1, 1, 1, 1, 1, 1)))


class TestGadgetStructure:
    def test_raw_formula_for_smallest_instance(self):
        groups, b, t = gadget_base_points(3, 2)
        assert [tuple(p) for p in groups[0]] == [
            (-6, -24), (-7, -21), (-8, -16), (-9, -9)]
        assert [tuple(p) for p in groups[1]] == [
            (-1, 1), (-2, 4), (-3, 9), (-4, 16)]
        assert tuple(b) == (9, -84)
        assert tuple(t) == (0, 100)
        # this raw layout is degenerate: b sits on the line of slope -4
        # through the first and third points of the lower group
        assert cross(pt(-6, -24), pt(-8, -16), b) == 0

    def test_exact_coordinates_for_smallest_instance(self):
        # groups and t survive the raw formula unchanged; b moves right to
        # 28 (the convexity floor) plus 1/125 (general-position nudge,
        # denominator = y-span 100 - (-24) + 1)
        g = tiny_gadget()
        assert g.instance.m == 2
        assert [tuple(g.points[i]) for i in g.groups[0]] == [
            (-6, -24), (-7, -21), (-8, -16), (-9, -9)]
        assert [tuple(g.points[i]) for i in g.groups[1]] == [
            (-1, 1), (-2, 4), (-3, 9), (-4, 16)]
        assert g.points[g.b_index] == pt(Fraction(28 * 125 + 1, 125), -84)
        assert tuple(g.points[g.t_index]) == (0, 100)

    def test_sizes_match(self):
        for B, A in ((3, (1,) * 6), (12, (4,) * 6), (13, (4, 4, 5, 4, 4, 5))):
            g = gen_gadget(PartitionInstance(B, A))
            m = len(A) // 3
            assert len(g.points) == g.graph.n == m * (B + 1) + 2
            assert len(g.groups) == m
            assert all(len(grp) == B + 1 for grp in g.groups)

    def test_graph_roles(self):
        g = gen_gadget(PartitionInstance(13, (4, 4, 5, 4, 4, 5)))
        G = g.graph
        sources, sinks = sources_and_sinks(G)
        assert {G.vertices[v] for v in sources} == {"s"}
        expected_sinks = {"t", "p1_4", "p2_4", "p3_5", "p4_4", "p5_4", "p6_5"}
        assert {G.vertices[v] for v in sinks} == expected_sinks
        assert underlying_is_tree(G) is False  # the m two-arc paths share s and t

    def test_group_slides_are_pinned(self):
        # how far gen_gadget slides each group C_1..C_m below the raw layout
        for B, A, slides in ((10, (3, 3, 4) * 4, (5, 1, 0, 0)),
                             (7, (2, 2, 3) * 3, (2, 0, 0))):
            g = gen_gadget(PartitionInstance(B, A))
            base, _, _ = gadget_base_points(B, len(A) // 3)
            for raw, grp, v in zip(base, g.groups, slides):
                assert [g.points[i] for i in grp] == [pt(p.x, p.y - v) for p in raw]

    def test_extremes_and_group_bands(self):
        g = gen_gadget(PartitionInstance(12, (4,) * 6))
        S = g.points
        ys = [p.y for p in S]
        assert S[g.b_index].y == min(ys) and S[g.t_index].y == max(ys)
        assert g.top_of_group(1) == g.groups[0][-1]
        assert g.top_of_group(2) == g.groups[1][-1]
        for grp in g.groups:
            grp_ys = [S[i].y for i in grp]
            assert grp_ys == sorted(grp_ys)
        assert max(S[i].y for i in g.groups[0]) < min(S[i].y for i in g.groups[1])

    @pytest.mark.parametrize("i", [0, -1, 3, True, 1.0])
    def test_top_of_group_rejects_a_number_outside_one_to_m(self, i):
        # 0 and -1 would alias the last groups, and True would read as 1
        g = gen_gadget(PartitionInstance(12, (4,) * 6))
        with pytest.raises(ValueError, match=r"not in 1\.\.2"):
            g.top_of_group(i)


def left_of(a, b, p):
    # strictly left of the upward line a -> b, by raw cross product
    lo, hi = (a, b) if a.y < b.y else (b, a)
    return cross(lo, hi, p) > 0


class TestGadgetPointProperties:
    """The five structural facts, re-derived here from raw cross products."""

    def setup_method(self):
        self.g = gen_gadget(PartitionInstance(13, (4, 4, 5, 4, 4, 5)))
        S = self.g.points
        self.grps = [[S[i] for i in grp] for grp in self.g.groups]
        self.tops = [S[grp[-1]] for grp in self.g.groups]
        self.b = S[self.g.b_index]
        self.t = S[self.g.t_index]

    def test_whole_set_is_in_general_position(self):
        assert is_general_position(self.g.points)

    def test_each_group_with_extremes_is_one_sided_convex(self):
        for grp in self.grps:
            assert all(left_of(self.b, self.t, p) for p in grp)
            pts = grp + [self.b, self.t]
            assert len(jarvis_hull(pts)) == len(pts)

    def test_groups_are_stacked(self):
        for lo, hi in zip(self.grps, self.grps[1:]):
            assert max(p.y for p in lo) < min(p.y for p in hi)

    def test_lines_from_bottom_separate_prefixes(self):
        m = len(self.grps)
        for i in range(m):
            line_top = self.tops[i]
            for j in range(m):
                for p in self.grps[j]:
                    if p == line_top:
                        continue
                    assert left_of(self.b, line_top, p) == (j <= i)

    def test_lines_from_top_push_suffixes_right(self):
        m = len(self.grps)
        for i in range(m):
            line_top = self.tops[i]
            for j in range(i, m):
                for p in self.grps[j]:
                    if p == line_top:
                        continue
                    assert not left_of(line_top, self.t, p)

    def test_group_tops_are_one_sided(self):
        lo, hi = self.tops[0], self.tops[-1]
        assert all(left_of(lo, hi, p) for p in self.tops[1:-1])

    def test_group_prefix_plus_outside_point_stays_one_sided(self):
        # C_i with b and any single point of a higher group: still convex,
        # one-sided, with the two extras adjacent on the hull
        m = len(self.grps)
        for i in range(m):
            for j in range(i + 1, m):
                for x in self.grps[j]:
                    body = self.grps[i]
                    assert all(left_of(self.b, x, p) for p in body)
                    assert len(jarvis_hull(body + [self.b, x])) == len(body) + 2


class TestReductionDirections:
    def test_solution_packs_into_a_valid_drawing(self):
        g = gen_gadget(PartitionInstance(13, (4, 4, 5, 4, 4, 5)))
        sol = PartitionSolution(((0, 1, 2), (3, 4, 5)))
        M = solution_to_embedding(g, sol)
        assert verify_upse(g.graph, g.points, M) == []
        G = g.graph
        assert M[G.index("s")] == g.b_index
        assert M[G.index("t")] == g.t_index
        assert M[G.index("u1")] == g.top_of_group(1)
        assert M[G.index("u2")] == g.top_of_group(2)

    def test_round_trip_recovers_the_partition(self):
        g = gen_gadget(PartitionInstance(13, (4, 4, 5, 4, 4, 5)))
        for sets in (((0, 1, 2), (3, 4, 5)),
                     ((3, 4, 2), (0, 1, 5)),
                     ((0, 4, 2), (1, 3, 5))):
            sol = PartitionSolution(sets)
            back = embedding_to_solution(g, solution_to_embedding(g, sol))
            assert back.sets == tuple(tuple(sorted(t)) for t in sets)

    def test_rejects_invalid_solution(self):
        g = gen_gadget(PartitionInstance(13, (4, 4, 5, 4, 4, 5)))
        with pytest.raises(InvalidSolution):
            solution_to_embedding(g, PartitionSolution(((0, 1, 3), (2, 4, 5))))

    def test_rejects_invalid_drawing(self):
        g = tiny_gadget()
        sol = PartitionSolution(((0, 1, 2), (3, 4, 5)))
        M = solution_to_embedding(g, sol)
        # swapping the extremes points every s-arc downward
        a = list(M.assignment)
        si, ti = g.graph.index("s"), g.graph.index("t")
        a[si], a[ti] = a[ti], a[si]
        with pytest.raises(NotAValidUPSE):
            embedding_to_solution(g, Mapping(tuple(a)))

    def test_solver_drawings_need_not_respect_the_group_layout(self):
        # The smallest gadget admits valid drawings the decoder cannot use:
        # with single-vertex item paths nothing pins t to the apex point, so
        # the search is free to tuck t inside a group and park a path sink on
        # top.  Decoding is only guaranteed for drawings built by
        # solution_to_embedding; anything else may raise ExtractionFailed.
        g = tiny_gadget()
        res = decide_upse(g.graph, g.points)
        assert res.result == "embeddable"
        assert verify_upse(g.graph, g.points, res.mapping) == []
        try:
            sol = embedding_to_solution(g, res.mapping)
        except ExtractionFailed:
            ti = res.mapping[g.graph.index("t")]
            assert ti != g.t_index  # t was drawn away from the apex
        else:
            sol.check_against(g.instance)


def three_partition_items(B: int, m: int):
    """One item tuple of a valid instance with bound B and 3m items, or None."""
    for a in range(B // 4 + 1, B):  # 4a > B
        for b in range(a, B - a):
            c = B - a - b
            if c < b:
                break
            if 2 * c < B:
                return (a, b, c) * m
    return None


class TestGadgetAgainstWholeSetSlides:
    """gen_gadget against the slide loop that ran one general-position test of
    the whole placed set per attempt. The points depend on (B, m) alone, so
    one item tuple per shape is enough."""

    @staticmethod
    def same_as_oracle(B: int, m: int) -> int:
        """Assert that gen_gadget matches the oracle; return how many groups slid."""
        g = gen_gadget(PartitionInstance(B, three_partition_items(B, m)))
        assert (g.points.points, g.groups, g.b_index, g.t_index) == \
            whole_set_gadget_points(B, m), (B, m)
        # Point equality takes 3 == Fraction(3): an int must not leak out
        assert all(type(c) is Fraction for p in g.points for c in p), (B, m)
        base, _, _ = gadget_base_points(B, m)
        return sum(g.points[grp[0]] != raw[0] for grp, raw in zip(g.groups, base))

    def test_every_shape_up_to_b40_m4(self):
        shapes = [(B, m) for B in range(3, 41) for m in range(1, 5)
                  if three_partition_items(B, m)]
        assert len(shapes) == 140  # B = 4, 5 and 8 have no valid instance
        slid = sum(self.same_as_oracle(B, m) for B, m in shapes)
        assert slid == 67

    def test_810_points(self):
        self.same_as_oracle(100, 8)


coords = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 4))
points = st.builds(Point, coords, coords)


def on_line(a: Point, b: Point, t: Fraction) -> Point:
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


@st.composite
def base_and_fresh(draw):
    """A general-position base and fresh points, perhaps forced into a
    collinear triple with one, two or three fresh points, or onto a y that
    another fresh point holds."""
    base: list[Point] = []
    for p in draw(st.lists(points, min_size=2, max_size=8)):
        if slope_general_position(base + [p]):
            base.append(p)
    fresh = [p for p in dict.fromkeys(draw(st.lists(points, min_size=2, max_size=4)))
             if p not in base]
    defect = draw(st.sampled_from(("one", "two", "three", "fresh_y", "none")))
    t = draw(st.sampled_from((Fraction(-1), Fraction(1, 3), Fraction(3, 2), Fraction(5))))
    x = draw(coords)
    extra = None
    if defect == "one" and len(base) >= 2:
        extra = on_line(base[0], base[-1], t)
    elif defect == "two" and fresh:
        extra = on_line(draw(st.sampled_from(base)), fresh[0], t)
    elif defect == "three" and len(fresh) >= 2:
        extra = on_line(fresh[0], fresh[1], t)
    elif defect == "fresh_y" and fresh:
        extra = Point(x, fresh[0].y)
    if extra is None or extra in base or extra in fresh:
        defect = "none"
    else:
        fresh.append(extra)
    return base, draw(st.permutations(fresh)), defect


class TestFreshPointTest:
    @settings(max_examples=300, deadline=None)
    @given(base_and_fresh())
    def test_matches_the_whole_set_test(self, case):
        base, fresh, defect = case
        # gen_gadget slides fresh points below every placed y
        assume({p.y for p in base}.isdisjoint(p.y for p in fresh))
        event(defect)
        got = _extends_general_position([_hom(p) for p in base], fresh)
        whole = base + fresh
        assert got == is_general_position(PointSet(whole)) == slope_general_position(whole)
        if defect != "none":
            assert not got

    def test_integer_and_rational_cases(self):
        base = [pt(0, 0), pt(1, 2), pt(Fraction(5, 2), Fraction(1, 3))]
        fits = lambda fresh: _extends_general_position([_hom(p) for p in base], fresh)
        assert fits([pt(Fraction(-1, 2), -3), pt(7, 5)])
        assert not fits([pt(2, 4)])                          # one fresh: 0, 1, new
        assert not fits([pt(-1, 3), pt(-2, 6)])              # two fresh with 0
        assert not fits([pt(3, 7), pt(4, 9), pt(5, 11)])     # three fresh
        assert not fits([pt(9, 5), pt(-9, 5)])               # two fresh ys


B3 = Fraction(3501, 125)  # the x of b in the B = 3, m = 2 gadget


class TestGadgetPropertyFailures:
    """Every PropertyCheckFailed of _check_gadget_points, each reached first
    by a doctored copy of the B = 3 gadget with m groups. A subset of a
    general-position set is in general position, so no group or tops test
    can fail on general position once the whole-set test has passed."""

    @pytest.mark.parametrize("m, moves, message", [
        # a point of C_1 onto the line through its two lower neighbours
        (2, {2: pt(-8, -18)}, "gadget points not in general position"),
        (2, {2: pt(-8, 1)}, "gadget points not in general position"),  # C_2's lowest y
        (2, {8: pt(B3, -20)}, "extremes are not extremal"),  # b above C_1's bottom
        (2, {9: pt(0, 10)}, "extremes are not extremal"),    # t below C_2's top
        # a point of C_1 into the hull of its neighbours
        (2, {1: pt(Fraction(-13, 2), -21)},
         "C_1 with extremes: point set is not in convex position"),
        # the top of C_2 across the line from b to t
        (2, {7: pt(40, 16)}, "C_2 with extremes is not left-heavy"),
        (2, {3: pt(-9, 2)}, "C_2 is not entirely above C_1"),  # the top of C_1 up
        # a point of C_1 above its top, across l_1
        (2, {2: pt(Fraction(-19, 2), -5)}, "point 2 of C_1 is not left of line l_1"),
        # all of C_2 20 to the left, across l_1
        (2, {4: pt(-21, 1), 5: pt(-22, 4), 6: pt(-23, 9), 7: pt(-24, 16)},
         "point 4 of C_2 is not right of line l_1"),
        (2, {9: pt(30, 100)}, "point 6 of C_2 is not right of line f_1"),  # t right
        # the top of C_3 to the left of the line through the other two tops
        (3, {11: pt(-7, 40)}, "group tops are not a left-heavy set"),
        (4, {15: pt(-6, 44)}, "group tops: point set is not in convex position"),
    ])
    def test_first_failed_check(self, m, moves, message):
        g = gen_gadget(PartitionInstance(3, (1,) * (3 * m)))
        pts = list(g.points)
        for k, p in moves.items():
            pts[k] = p
        with pytest.raises(PropertyCheckFailed) as exc:
            _check_gadget_points(PointSet(pts), g.groups, g.b_index, g.t_index)
        assert str(exc.value) == message
