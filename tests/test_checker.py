import inspect
import itertools
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from upse import (Digraph, Mapping, NotGeneralPosition, Orientation,
                  PartitionInstance, Point, PointSet, SizeMismatch,
                  SolverOptions, Violation, ViolationKind, checker,
                  decide_upse, embed_switch_tree, gen_binucci_pointset,
                  gen_binucci_tree, gen_gadget, gen_kswitch_tree, geometry,
                  is_general_position, orientation, pt, segments_cross,
                  verify_upse)

from helpers import (brute_force_embeddable, circle_point, jarvis_hull,
                     pairwise_violations, random_convex, random_dag, random_general,
                     random_switch_tree, random_tree_dag, reference_search)


def kinds(G, S, m):
    return {v.kind for v in verify_upse(G, S, m)}


class TestVerify:
    def test_valid_embedding_has_no_violations(self):
        G = Digraph(["a", "b", "c"], [(0, 1), (0, 2)])
        S = PointSet([pt(0, 0), pt(-1, 1), pt(1, 2)])
        assert verify_upse(G, S, Mapping((0, 1, 2))) == []

    def test_not_injective(self):
        G = Digraph(["a", "b"], [(0, 1)])
        S = PointSet([pt(0, 0), pt(1, 1)])
        report = verify_upse(G, S, Mapping((0, 0)))
        assert ViolationKind.NOT_INJECTIVE in {v.kind for v in report}

    def test_arc_not_upward(self):
        G = Digraph(["a", "b"], [(0, 1)])
        S = PointSet([pt(0, 0), pt(1, 1)])
        assert kinds(G, S, Mapping((1, 0))) == {ViolationKind.ARC_NOT_UPWARD}

    def test_arcs_cross(self):
        G = Digraph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
        S = PointSet([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)])
        m = Mapping((0, 1, 2, 3))
        report = verify_upse(G, S, m)
        assert [v.kind for v in report] == [ViolationKind.ARCS_CROSS]
        assert set(report[0].subjects) == {0, 1}  # the two arc indices

    def test_shared_endpoint_is_fine(self):
        G = Digraph(["a", "b", "c"], [(0, 2), (1, 2)])
        S = PointSet([pt(0, 0), pt(2, 1), pt(1, 3)])
        assert verify_upse(G, S, Mapping((0, 1, 2))) == []

    def test_vertex_on_arc_interior(self):
        G = Digraph(["a", "b", "c"], [(0, 1)])
        S = PointSet([pt(0, 0), pt(2, 2), pt(1, 1)])
        assert kinds(G, S, Mapping((0, 1, 2))) == {ViolationKind.VERTEX_ON_ARC}

    def test_multiple_violations_reported_together(self):
        G = Digraph(["a", "b", "c", "d"], [(1, 0), (2, 3)])
        S = PointSet([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)])
        got = kinds(G, S, Mapping((0, 1, 2, 3)))
        assert ViolationKind.ARC_NOT_UPWARD in got
        assert ViolationKind.ARCS_CROSS in got

    def test_violation_list_is_pinned(self):
        # e sits on arc c->d, so arc e->f meets it there and the drawing
        # leaves general position; g->b falls
        G = Digraph(list("abcdefg"), [(0, 1), (2, 3), (4, 5), (6, 1)])
        S = PointSet([pt(0, 0), pt(4, 4), pt(4, 0), pt(0, 4), pt(3, 1),
                      pt(1, 5), pt(2, 6)])
        K = ViolationKind
        assert verify_upse(G, S, Mapping(tuple(range(7)))) == [
            Violation(K.ARC_NOT_UPWARD, (3,), "arc 'g'->'b' does not rise"),
            Violation(K.ARCS_CROSS, (0, 1), "arcs 'a'->'b' and 'c'->'d' cross"),
            Violation(K.ARCS_CROSS, (0, 2), "arcs 'a'->'b' and 'e'->'f' cross"),
            Violation(K.ARCS_CROSS, (1, 2), "arcs 'c'->'d' and 'e'->'f' cross"),
            Violation(K.VERTEX_ON_ARC, (4, 1), "vertex 'e' lies on arc 'c'->'d'"),
        ]

    def test_size_mismatch(self):
        G = Digraph(["a", "b"], [(0, 1)])
        S = PointSet([pt(0, 0), pt(1, 1)])
        with pytest.raises(SizeMismatch):
            verify_upse(G, S, Mapping((0,)))
        with pytest.raises(SizeMismatch):
            verify_upse(G, S, Mapping((0, 5)))

    def test_violation_kind_wire_values(self):
        assert ViolationKind.NOT_INJECTIVE.value == "not_injective"
        assert ViolationKind.ARC_NOT_UPWARD.value == "arc_not_upward"
        assert ViolationKind.ARCS_CROSS.value == "arcs_cross"
        assert ViolationKind.VERTEX_ON_ARC.value == "vertex_on_arc"


between = st.fractions(min_value=0, max_value=1, max_denominator=9)
circle_points = st.builds(
    circle_point, st.fractions(min_value=Fraction(-2999, 3000),
                               max_value=Fraction(2999, 3000), max_denominator=3000),
    st.booleans())
huge = st.integers(-10 ** 40, 10 ** 40).map(Fraction)
families = {"circle": circle_points,
            "huge": st.builds(Point, huge, huge),
            "grid": st.builds(pt, st.integers(-3, 3), st.integers(-3, 3))}


def _along(a: Point, b: Point, t: Fraction) -> Point:
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


@st.composite
def drawings(draw):
    """A drawing on points of one family, with forced degenerate shapes added:
    an endpoint inside an arc, collinear overlapping arcs, an isolated vertex
    on an arc, an arc between equal heights, three arcs through one point.
    Then random tree or DAG arcs, and an identity, shuffled or non-injective
    mapping."""
    pts = draw(st.lists(families[draw(st.sampled_from(sorted(families)))],
                        min_size=3, max_size=12, unique=True))
    index = {p: k for k, p in enumerate(pts)}
    arcs = set()

    def at(p: Point) -> int:
        if p not in index:
            index[p] = len(pts)
            pts.append(p)
        return index[p]

    def arc(p: Point, q: Point) -> None:
        i, j = at(p), at(q)
        if i != j:
            arcs.add((i, j) if draw(st.booleans()) else (j, i))

    pick = st.integers(0, len(pts) - 1)
    for shape in draw(st.lists(st.sampled_from(
            ("inside", "overlap", "isolated", "equal_y", "concurrent")), max_size=4)):
        a, b = pts[draw(pick)], pts[draw(pick)]
        if a == b:
            continue
        c = _along(a, b, draw(between))
        if shape == "inside":
            arc(a, b)
            arc(c, pts[draw(pick)])
        elif shape == "overlap":
            arc(a, b)
            arc(c, _along(a, b, 1 + draw(between)))
        elif shape == "isolated":
            arc(a, b)
            at(c)
        elif shape == "equal_y":
            arc(a, Point(b.x, a.y))
        else:  # three arcs through c
            for _ in range(3):
                dx, dy = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
                s, t = 1 + draw(between), 1 + draw(between)
                arc(Point(c.x - s * dx, c.y - s * dy), Point(c.x + t * dx, c.y + t * dy))
    n = len(pts)
    if draw(st.booleans()):
        for v in range(1, n):
            arc(pts[v], pts[draw(st.integers(0, v - 1))])
    else:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  min_size=n, max_size=2 * n)):
            arc(pts[i], pts[j])
    G = Digraph([f"x{i}" for i in range(n)], sorted(arcs))
    how = draw(st.sampled_from(("identity", "identity", "shuffle", "collapse")))
    if how == "identity":
        a = list(range(n))
    elif how == "shuffle":
        a = draw(st.permutations(range(n)))
    else:
        a = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return G, PointSet(pts), Mapping(tuple(a))


@st.composite
def swapped_embeddings(draw):
    """An embedder drawing of a random switch tree on a rational-circle set,
    with one to three pairs of vertices swapped."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(4, 40))
    T = random_switch_tree(rng, n)
    S = random_convex(rng, n, rng.choice(("left", "right", "mixed")))
    a = list(embed_switch_tree(T, S).assignment)
    for _ in range(draw(st.integers(1, 3))):
        i, j = rng.sample(range(n), 2)
        a[i], a[j] = a[j], a[i]
    return T, S, Mapping(tuple(a))


class TestSweepAgainstPairwiseOracle:
    """verify_upse sweeps; the oracle tests every pair. The whole violation
    list must agree: kinds, subjects, detail strings and order."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(drawings(), swapped_embeddings()))
    # b lies inside c -> d, and the sweep meets it when the arcs become
    # neighbours: arcs cross (0, 1) and vertex on arc (1, 1)
    @example((Digraph(list("abcd"), [(0, 1), (2, 3)]),
              PointSet([pt(0, 0), pt(2, 2), pt(3, 0), pt(1, 4)]), Mapping((0, 1, 2, 3))))
    def test_violation_lists_agree(self, drawing):
        assert verify_upse(*drawing) == pairwise_violations(*drawing)

    def test_three_arcs_through_one_crossing(self):
        G = Digraph(list("abcdef"), [(0, 1), (2, 3), (4, 5)])
        S = PointSet([pt(-2, -2), pt(2, 2), pt(2, -1), pt(-2, 1), pt(0, -3),
                      pt(0, 3)])
        m = Mapping(tuple(range(6)))
        assert [v.subjects for v in verify_upse(G, S, m)] == [(0, 1), (0, 2), (1, 2)]
        assert verify_upse(G, S, m) == pairwise_violations(G, S, m)

    def test_points_left_over_are_passed_by(self, monkeypatch):
        # more points than vertices: the sweep skips the points no vertex takes
        def pairwise(*args):
            raise AssertionError("fell back to the pairwise loops")
        monkeypatch.setattr(checker, "_pairwise", pairwise)
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randrange(2, 9)
            T = random_switch_tree(rng, n)
            S = random_convex(rng, n + rng.randrange(1, 5), "mixed")
            m = Mapping(tuple(rng.sample(range(len(S)), n)))
            assert verify_upse(T, S, m) == pairwise_violations(T, S, m)

    def test_two_arcs_leaving_one_point_along_one_line(self):
        # a -> b lies on a -> c: the sweep cannot order the two, so the
        # pairwise loops report the overlap and b on a -> c
        G = Digraph(list("abc"), [(0, 1), (0, 2)])
        S = PointSet([pt(0, 0), pt(1, 1), pt(2, 2)])
        m = Mapping((0, 1, 2))
        with pytest.raises(checker._Degenerate):
            checker._sweep_crossings(S, m.assignment, [0, 0], [1, 2])
        assert [(v.kind.value, v.subjects) for v in verify_upse(G, S, m)] == [
            ("arcs_cross", (0, 1)), ("vertex_on_arc", (1, 1))]
        assert verify_upse(G, S, m) == pairwise_violations(G, S, m)

    @settings(max_examples=150, deadline=None)
    @given(drawings())
    def test_shared_points_and_flat_arcs_skip_the_sweep(self, drawing):
        # verify_upse sends these to the pairwise loops before any sweep; a
        # drawing with neither gets two vertices on one point
        G, S, m = drawing
        a = list(m.assignment)
        flat = any(S[a[t]].y == S[a[h]].y for t, h in G.arcs)
        if not flat and len(set(a)) == G.n:
            a[-1] = a[0]
        event("a flat arc" if flat else "a shared point")
        m = Mapping(tuple(a))

        def sweep(*args):
            raise AssertionError("swept a drawing with a shared point or a flat arc")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checker, "_sweep_crossings", sweep)
            assert verify_upse(G, S, m) == pairwise_violations(G, S, m)

    def test_falling_arcs_are_swept_from_their_heads(self, monkeypatch):
        # the only fault is arcs that fall; the sweep reports their crossings
        def pairwise(*args):
            raise AssertionError("fell back to the pairwise loops")
        monkeypatch.setattr(checker, "_pairwise", pairwise)
        G = Digraph(list("abcd"), [(1, 0), (3, 2)])
        S = PointSet([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)])
        m = Mapping((0, 1, 2, 3))
        assert [(v.kind.value, v.subjects) for v in verify_upse(G, S, m)] == [
            ("arc_not_upward", (0,)), ("arc_not_upward", (1,)), ("arcs_cross", (0, 1))]
        assert verify_upse(G, S, m) == pairwise_violations(G, S, m)
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randrange(2, 30)
            T = random_switch_tree(rng, n)
            S = random_convex(rng, n, rng.choice(("left", "right", "mixed")))
            R = Digraph(T.vertices, [(h, t) for t, h in T.arcs])
            a = list(embed_switch_tree(T, S).assignment)
            i, j = rng.sample(range(n), 2)
            a[i], a[j] = a[j], a[i]
            m = Mapping(tuple(a))
            assert verify_upse(R, S, m) == pairwise_violations(R, S, m)

    def test_general_position_drawings_never_fall_back(self, monkeypatch):
        def pairwise(*args):
            raise AssertionError("fell back to the pairwise loops")
        monkeypatch.setattr(checker, "_pairwise", pairwise)
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randrange(2, 40)
            T = random_switch_tree(rng, n)
            S = random_convex(rng, n, rng.choice(("left", "right", "mixed")))
            m = embed_switch_tree(T, S)
            assert verify_upse(T, S, m) == []
            a = list(m.assignment)
            i, j = rng.sample(range(n), 2)
            a[i], a[j] = a[j], a[i]
            bad = Mapping(tuple(a))
            assert verify_upse(T, S, bad) == pairwise_violations(T, S, bad)

    def test_a_thousand_vertices_in_well_under_a_second(self):
        rng = random.Random(18)
        T = random_switch_tree(rng, 1000)
        S = random_convex(rng, 1000)
        m = embed_switch_tree(T, S)
        t0 = time.perf_counter()
        assert verify_upse(T, S, m) == []
        assert time.perf_counter() - t0 < 1.0


@st.composite
def mask_sets(draw):
    """Point sets for the side masks: rational-circle points, integer points
    in general position, the latter scaled by 10^30 and shifted, or each
    coordinate over its own denominator (which may break general position)."""
    kind = draw(st.sampled_from(("circle", "integer", "scaled", "mixed")))
    n = draw(st.integers(4, 9))
    if kind == "circle":
        pts = draw(st.lists(circle_points, min_size=n, max_size=n,
                            unique_by=lambda p: p.y))
    else:
        pts = list(random_general(random.Random(draw(st.integers(0, 10 ** 6))), n))
        if kind == "scaled":
            pts = [Point(x * 10 ** 30 + Fraction(1, 3), y * 10 ** 30 - 7) for x, y in pts]
        elif kind == "mixed":
            den = st.integers(1, 97)
            pts = [Point(x / draw(den), y / draw(den)) for x, y in pts]
    return PointSet(dict.fromkeys(pts))


class TestSideMasks:
    """The solver's planarity test reads geometry._left_mask: each bit against
    orientation, and the one-bit crossing test against segments_cross."""

    @settings(max_examples=60, deadline=None)
    @given(mask_sets())
    def test_masks_agree_with_the_predicates(self, S):
        n, H = len(S), S._hom
        mask = {(a, b): geometry._left_mask(H, a, b)
                for a, b in itertools.permutations(range(n), 2)}
        for (a, b), ab in mask.items():
            assert ab >> n == 0
            for k in range(n):
                left = orientation(S[a], S[b], S[k]) is Orientation.COUNTERCLOCKWISE
                assert ab >> k & 1 == left
        if not is_general_position(S):
            return
        for a, q, c, d in itertools.permutations(range(n), 4):
            aq, cd = mask[a, q], mask[c, d]
            crossed = bool((aq >> c ^ aq >> d) & 1 and (cd >> a ^ cd >> q) & 1)
            assert crossed == segments_cross(S[a], S[q], S[c], S[d])


# the drawing the search returns for the B = 3 gadget, A = (1,)*6
GADGET_B3_DRAWING = (8, 5, 3, 4, 0, 1, 2, 6, 7, 9)

# seeded searches at n = 20 to 30, under a node budget of 20 000:
# (family, n, seed, result, nodes explored)
PINNED_SEARCHES = [
    ("dag", 20, 0, "not_embeddable", 12427), ("dag", 20, 3, "not_embeddable", 367),
    ("dag", 24, 0, "not_embeddable", 16883), ("dag", 24, 3, "not_embeddable", 452),
    ("dag", 25, 0, "not_embeddable", 16769), ("dag", 25, 3, "not_embeddable", 424),
    ("dag", 28, 0, "not_embeddable", 14680), ("dag", 28, 3, "not_embeddable", 354),
    ("dag", 30, 0, "not_embeddable", 11978), ("dag", 30, 3, "not_embeddable", 582),
    ("tree", 20, 1, "embeddable", 2018), ("tree", 20, 4, "embeddable", 1088),
    ("tree", 24, 1, "embeddable", 6820), ("tree", 24, 7, "embeddable", 1094),
    ("tree", 25, 1, "embeddable", 8229), ("tree", 25, 5, "embeddable", 958),
    ("tree", 28, 0, "embeddable", 7088), ("tree", 28, 7, "embeddable", 1763),
    ("tree", 30, 1, "embeddable", 13910), ("tree", 30, 5, "embeddable", 3236),
]


class TestDecide:
    def test_requires_general_position(self):
        G = Digraph(["a", "b"], [(0, 1)])
        with pytest.raises(NotGeneralPosition):
            decide_upse(G, PointSet([pt(0, 0), pt(1, 0)]))

    def test_size_mismatch(self):
        G = Digraph(["a", "b"], [(0, 1)])
        with pytest.raises(SizeMismatch):
            decide_upse(G, PointSet([pt(0, 0)]))

    def test_cyclic_graph_is_never_embeddable(self):
        G = Digraph(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
        S = random_general(random.Random(0), 3)
        res = decide_upse(G, S)
        assert res.result == "not_embeddable"
        assert res.mapping is None
        assert res.nodes_explored == 0

    def test_single_vertex(self):
        res = decide_upse(Digraph(["a"], []), PointSet([pt(3, 7)]))
        assert res.result == "embeddable"
        assert res.mapping[0] == 0

    def test_monotone_path_embeds_anywhere(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randrange(1, 10)
            G = Digraph([f"v{i}" for i in range(n)],
                        [(i, i + 1) for i in range(n - 1)])
            S = random_general(rng, n)
            res = decide_upse(G, S)
            assert res.result == "embeddable"
            assert verify_upse(G, S, res.mapping) == []

    def test_returned_mapping_is_always_valid(self):
        rng = random.Random(2)
        for _ in range(80):
            n = rng.randrange(1, 8)
            G = random_dag(rng, n)
            S = random_general(rng, n)
            res = decide_upse(G, S)
            if res.result == "embeddable":
                assert verify_upse(G, S, res.mapping) == []
            else:
                assert res.mapping is None

    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(3)
        for trial in range(120):
            n = rng.randrange(1, 7)
            G = (random_tree_dag(rng, n) if trial % 2 else random_dag(rng, n))
            S = (random_convex(rng, n) if trial % 3 else random_general(rng, n))
            expected = brute_force_embeddable(G, S)
            for prune in (True, False):
                res = decide_upse(G, S, SolverOptions(use_consecutive_pruning=prune))
                assert (res.result == "embeddable") == expected, (
                    f"trial {trial} prune={prune}")

    def test_pruning_does_not_change_answers_on_convex_trees(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randrange(3, 9)
            G = random_tree_dag(rng, n)
            S = random_convex(rng, n)
            a = decide_upse(G, S, SolverOptions(use_consecutive_pruning=True))
            b = decide_upse(G, S, SolverOptions(use_consecutive_pruning=False))
            assert a.result == b.result
            assert a.nodes_explored <= b.nodes_explored

    def test_budget_exhaustion(self):
        rng = random.Random(5)
        G = random_switch_tree(rng, 12)
        S = random_convex(rng, 12)
        res = decide_upse(G, S, SolverOptions(node_budget=1))
        assert res.result == "budget_exhausted"
        assert res.mapping is None
        assert res.nodes_explored == 1
        full = decide_upse(G, S)
        assert full.result == "embeddable"

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(node_budget=-1)
        assert SolverOptions(node_budget=0).node_budget == 0

    @pytest.mark.parametrize("budget", [2.5, 1.0, True, "10"])
    def test_non_integer_budget_is_rejected(self, budget):
        # 2.5 never equals a node count, so it would search with no budget
        with pytest.raises(ValueError, match="non-negative integer"):
            SolverOptions(node_budget=budget)

    @pytest.mark.parametrize("prune", ["false", "no", None, 0, 1])
    def test_non_bool_pruning_is_rejected(self, prune):
        # "false" and "no" are truthy and would prune; None and 0 would not
        with pytest.raises(ValueError, match="must be a bool"):
            SolverOptions(use_consecutive_pruning=prune)

    def test_node_counts_are_pinned(self):
        # exact search sizes: a pruning or ordering change that moves them
        # must say why
        counter = [decide_upse(gen_binucci_tree(n), gen_binucci_pointset(n))
                   for n in (5, 7, 9)]
        assert [r.result for r in counter] == ["not_embeddable"] * 3
        assert [r.nodes_explored for r in counter] == [346, 576, 854]
        unpruned = decide_upse(gen_binucci_tree(5), gen_binucci_pointset(5),
                               SolverOptions(use_consecutive_pruning=False))
        assert (unpruned.result, unpruned.nodes_explored) == ("not_embeddable", 31292)
        S = gen_binucci_pointset(7)
        kswitch = [decide_upse(gen_kswitch_tree(7, k), S).nodes_explored
                   for k in range(2, 7)]
        assert kswitch == [5305, 3282, 2822, 2044, 576]

    @pytest.mark.parametrize("family, n, seed, result, nodes", PINNED_SEARCHES)
    def test_seeded_searches_are_pinned(self, family, n, seed, result, nodes):
        # random DAGs on integer sets, random tree DAGs on rational-circle sets
        rng = random.Random(seed)
        if family == "dag":
            G, S = random_dag(rng, n), random_general(rng, n)
        else:
            G, S = random_tree_dag(rng, n), random_convex(rng, n)
        res = decide_upse(G, S, SolverOptions(node_budget=20_000))
        assert (res.result, res.nodes_explored) == (result, nodes)

    def test_gadget_search_is_pinned(self):
        g = gen_gadget(PartitionInstance(3, (1,) * 6))
        res = decide_upse(g.graph, g.points)
        assert (res.result, res.nodes_explored) == ("embeddable", 59246)
        assert res.mapping.assignment == GADGET_B3_DRAWING

    def test_budget_is_exact(self):
        # the node that would pass the budget is neither explored nor
        # counted, and a search that needs exactly the budget still finishes
        g = gen_gadget(PartitionInstance(3, (1,) * 6))
        for budget, result, nodes in ((59246, "embeddable", 59246),
                                      (59245, "budget_exhausted", 59245),
                                      (0, "budget_exhausted", 0)):
            res = decide_upse(g.graph, g.points, SolverOptions(node_budget=budget))
            assert (res.result, res.nodes_explored) == (result, nodes)
        assert res.mapping is None
        assert decide_upse(g.graph, g.points, SolverOptions(
            node_budget=59246)).mapping.assignment == GADGET_B3_DRAWING

    def test_budget_is_exact_on_a_refuted_search(self):
        # a random DAG with several in-arcs per vertex: the budget stops the
        # search one node short of its refutation, and not at the refutation
        rng = random.Random(0)
        G, S = random_dag(rng, 20), random_general(rng, 20)
        assert max(len(us) for us in G.in_neighbors) > 1
        for budget, result in ((12426, "budget_exhausted"), (12427, "not_embeddable")):
            res = decide_upse(G, S, SolverOptions(node_budget=budget))
            assert (res.result, res.nodes_explored, res.mapping) == (result, budget, None)

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        n = 300
        G = Digraph([f"x{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
        S = random_convex(random.Random(8), n)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            res = decide_upse(G, S, SolverOptions(use_consecutive_pruning=False))
        finally:
            sys.setrecursionlimit(limit)
        assert (res.result, res.nodes_explored) == ("embeddable", n)

    def test_nodes_explored_counts_work(self):
        G = Digraph(["a", "b"], [(0, 1)])
        S = PointSet([pt(0, 0), pt(1, 1)])
        res = decide_upse(G, S)
        assert res.result == "embeddable"
        assert res.nodes_explored >= 2


@st.composite
def search_instances(draw):
    """A random DAG or tree DAG on a random integer set or rational-circle
    convex set, pruned or not, under no budget or a small one."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    n = draw(st.integers(1, 11))
    G = random_dag(rng, n) if draw(st.booleans()) else random_tree_dag(rng, n)
    kind = draw(st.sampled_from(("general", "mixed", "left", "right")))
    S = random_general(rng, n) if kind == "general" else random_convex(rng, n, kind)
    budget = draw(st.integers(0, 2000) if n > 8 else
                  st.one_of(st.none(), st.integers(0, 2000)))
    return G, S, draw(st.booleans()), budget


class TestSearchAgainstReference:
    """decide_upse against tests/helpers.reference_search: the same candidate
    order, with every new arc tested against every drawn one by
    segments_cross and no memo. Result, node count and drawing must agree."""

    @settings(max_examples=300, deadline=None)
    @given(search_instances())
    def test_searches_agree(self, instance):
        G, S, prune, budget = instance
        res = decide_upse(G, S, SolverOptions(use_consecutive_pruning=prune,
                                              node_budget=budget))
        got = (res.result, res.nodes_explored,
               res.mapping.assignment if res.mapping else None)
        assert got == reference_search(G, S, prune, budget)

    def test_pinned_searches_agree(self):
        for k in (5, 7):
            G, S = gen_binucci_tree(k), gen_binucci_pointset(k)
            for prune in (True, False):
                res = decide_upse(G, S, SolverOptions(use_consecutive_pruning=prune,
                                                      node_budget=5000))
                assert (res.result, res.nodes_explored, None) == \
                    reference_search(G, S, prune, 5000)


@st.composite
def convex_tree_instances(draw):
    """A tree DAG on a convex set, searched with pruning under a budget: a
    random one with at most 14 vertices on a mixed, left or right set, or a
    k-switch member (the counterexample when k = n - 1) with some arcs
    reversed, on its own point set or a random convex one. The members get a
    budget that most of their searches finish in, so that negative answers
    occur."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    kind = draw(st.sampled_from(("mixed", "left", "right")))
    if draw(st.booleans()):
        G = random_tree_dag(rng, draw(st.integers(3, 14)))
        S = random_convex(rng, G.n, kind)
        return G, S, draw(st.integers(0, 1000) | st.just(10_000))
    n = draw(st.sampled_from((5, 7)))
    G = gen_kswitch_tree(n, draw(st.integers(2, n - 1)))
    flips = draw(st.sets(st.integers(0, G.n - 2), max_size=3))
    G = Digraph(G.vertices, [(h, t) if i in flips else (t, h)
                             for i, (t, h) in enumerate(G.arcs)])
    S = gen_binucci_pointset(n) if draw(st.booleans()) else random_convex(rng, G.n, kind)
    return G, S, 10_000


class TestWindowRule:
    """The window rule on trees over convex sets: a closed-form test per tree
    edge, read off the fill order, against the set-based windows_fit of
    tests/helpers.reference_search."""

    @settings(max_examples=150, deadline=None)
    @given(convex_tree_instances())
    def test_searches_agree(self, instance):
        G, S, budget = instance
        res = decide_upse(G, S, SolverOptions(node_budget=budget))
        event(res.result)
        got = (res.result, res.nodes_explored,
               res.mapping.assignment if res.mapping else None)
        assert got == reference_search(G, S, True, budget)

    @pytest.mark.parametrize("n, nodes", [(21, 3530), (61, 24930)])
    def test_counterexample_is_pinned(self, n, nodes):
        res = decide_upse(gen_binucci_tree(n), gen_binucci_pointset(n))
        assert (res.result, res.nodes_explored) == ("not_embeddable", nodes)


@st.composite
def small_convex_trees(draw):
    """A random tree DAG with at most 12 vertices on a mixed, left or right
    convex set, or a k-switch member at n = 5 (the counterexample when k = 4)
    on its own point set or a random convex one."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    kind = draw(st.sampled_from(("mixed", "left", "right")))
    if draw(st.booleans()):
        G = random_tree_dag(rng, draw(st.integers(3, 12)))
        return G, random_convex(rng, G.n, kind)
    G = gen_kswitch_tree(5, draw(st.integers(2, 4)))
    return G, gen_binucci_pointset(5) if draw(st.booleans()) else random_convex(rng, G.n, kind)


class TestOneRunInvariant:
    """fits tests only one side of an edge for being one run, because in every
    state the search reaches some side of every tree edge is one run of hull
    positions counted from the top point: checked on every placement the
    window rule of tests/helpers.reference_search is asked about."""

    @settings(max_examples=100, deadline=None)
    @given(small_convex_trees())
    def test_some_side_of_every_edge_is_one_run(self, instance):
        G, S = instance
        n = G.n
        hull = jarvis_hull(list(S.points))
        top = hull.index(max(range(n), key=lambda p: (S[p].y, S[p].x)))
        pos = {p: (k - top) % n for k, p in enumerate(hull)}
        asked = []

        def one_run(part, point_of) -> bool:
            got = {pos[point_of[v]] for v in part if point_of[v] is not None}
            return not got or max(got) - min(got) + 1 == len(got)

        def watch(sides, point_of):
            asked.append(True)
            for side in sides:
                assert one_run(side, point_of) or \
                    one_run(set(range(n)) - side, point_of), (side, point_of)

        event(reference_search(G, S, True, 2000, watch)[0])
        assert asked


class TestScale:
    """The crossing memo grows with the arcs drawn, not with the point pairs
    squared: peak memory of the search under tracemalloc. The window rule
    costs one test per tree edge and node."""

    def test_long_monotone_path(self):
        # every arc is tested once against every arc below it; a memo of n^2
        # bits per tested pair would hold 1 000 x 10^6 bits, about 125 MB
        n = 1000
        G = Digraph([f"x{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
        S = random_convex(random.Random(8), n)
        assert is_general_position(S)
        tracemalloc.start()
        try:
            res = decide_upse(G, S, SolverOptions(use_consecutive_pruning=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.result, res.nodes_explored) == ("embeddable", n)
        assert peak < 4 * 2 ** 20

    def test_long_monotone_path_pruned(self):
        # every one of the 1 000 nodes tests all 999 tree edges
        n = 1000
        G = Digraph([f"x{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
        res = decide_upse(G, random_convex(random.Random(8), n))
        assert (res.result, res.nodes_explored) == ("embeddable", n)

    def test_gadget_search_does_not_grow_per_node(self):
        # 80 000 nodes: a record of even 8 bytes per node would pass the bound
        g = gen_gadget(PartitionInstance(13, (4, 4, 4, 4, 4, 6)))
        tracemalloc.start()
        try:
            res = decide_upse(g.graph, g.points, SolverOptions(node_budget=80_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.result, res.nodes_explored) == ("budget_exhausted", 80_000)
        assert peak < 256 * 2 ** 10
