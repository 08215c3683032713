import functools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upse import (Digraph, Mapping, NotConvex, NotGeneralPosition,
                  NotOneSided, NotSink, NotSource, NotSwitchTree, Point,
                  PointSet, SizeMismatch, classify_sides,
                  embed_convex_sink, embed_one_sided_sink,
                  embed_one_sided_source, embed_switch_tree, pt, verify_upse)

from helpers import (convex_chords_ok, orient_as_switch, random_convex,
                     random_switch_tree, random_tree_dag, random_tree_edges,
                     window_convex_sink, window_one_sided, zigzag_path)


def in_star(k):
    return Digraph(["c"] + [f"x{i}" for i in range(k)],
                   [(i + 1, 0) for i in range(k)])


def valid(G, S, m):
    return verify_upse(G, S, m) == []


class TestMapping:
    def test_label_round_trip(self):
        G = Digraph(["a", "b", "c"], [(0, 2), (1, 2)])
        m = Mapping((2, 0, 1))
        assert m.to_labels(G) == {"a": 2, "b": 0, "c": 1}
        assert Mapping.from_labels(G, {"a": 2, "b": 0, "c": 1}) == m
        assert len(m) == 3 and m[1] == 0

    @pytest.mark.parametrize("assignment", [(True, False), (0, 1.0)])
    def test_rejects_non_index_points(self, assignment):
        with pytest.raises(ValueError):
            Mapping(assignment)
        with pytest.raises(ValueError):  # int() would take both
            Mapping.from_labels(Digraph(["a", "b"], []), dict(zip("ab", assignment)))

    def test_from_labels_rejects_missing_and_extra(self):
        G = Digraph(["a", "b"], [(0, 1)])
        with pytest.raises(ValueError):
            Mapping.from_labels(G, {"a": 0})
        with pytest.raises(ValueError):
            Mapping.from_labels(G, {"a": 0, "b": 1, "z": 2})


class TestOneSided:
    def test_sink_root_lands_on_top(self):
        rng = random.Random(10)
        for _ in range(120):
            n = rng.randrange(1, 12)
            T = random_switch_tree(rng, n) if n > 1 else Digraph(["x0"], [])
            S = random_convex(rng, n, "left")
            sinks = [v for v in range(n) if not T.out_neighbors[v]]
            if not sinks:
                continue
            r = rng.choice(sinks)
            m = embed_one_sided_sink(T, r, S)
            assert valid(T, S, m)
            top = max(range(n), key=lambda i: S[i].y)
            assert m[r] == top

    def test_source_root_lands_on_bottom(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randrange(1, 12)
            T = random_switch_tree(rng, n) if n > 1 else Digraph(["x0"], [])
            S = random_convex(rng, n, "right")
            sources = [v for v in range(n) if not T.in_neighbors[v]]
            if not sources:
                continue
            r = rng.choice(sources)
            m = embed_one_sided_source(T, r, S)
            assert valid(T, S, m)
            bottom = min(range(n), key=lambda i: S[i].y)
            assert m[r] == bottom

    def test_source_is_the_mirror_of_sink(self):
        # reversing every arc and reflecting y -> -y swaps the two roles
        rng = random.Random(15)
        pairs = 0
        for _ in range(100):
            n = rng.randrange(1, 14)
            T = random_switch_tree(rng, n) if n > 1 else Digraph(["x0"], [])
            T_rev = Digraph(T.vertices, [(h, t) for t, h in T.arcs])
            for side in ("left", "right"):
                S = random_convex(rng, n, side)
                S_ref = PointSet(Point(p.x, -p.y) for p in S)
                for r in range(n):
                    if T.out_neighbors[r]:
                        continue
                    assert embed_one_sided_source(T_rev, r, S_ref) == \
                        embed_one_sided_sink(T, r, S)
                    pairs += 1
        assert pairs > 500

    def test_wrong_role_is_rejected(self):
        T = in_star(2)
        S = random_convex(random.Random(0), 3, "left")
        with pytest.raises(NotSink):
            embed_one_sided_sink(T, 1, S)   # vertex 1 has an out-arc
        with pytest.raises(NotSource):
            embed_one_sided_source(T, 0, S)

    def test_two_sided_set_is_rejected(self):
        T = in_star(3)
        S = PointSet([pt(0, 0), pt(-2, 1), pt(3, 2), pt(0, 5)])
        with pytest.raises(NotOneSided):
            embed_one_sided_sink(T, 0, S)

    def test_a_directed_path_is_taken(self):
        # a -> b -> c is no switch tree, but any oriented tree embeds here
        T = Digraph(["a", "b", "c"], [(0, 1), (1, 2)])
        S = random_convex(random.Random(0), 3, "left")
        assert embed_one_sided_sink(T, 2, S) == embed_one_sided_source(T, 0, S)
        assert valid(T, S, embed_one_sided_sink(T, 2, S))


@st.composite
def anchored_one_sided_trees(draw):
    """A random oriented tree with at most 40 vertices on a left- or
    right-sided convex set, with a sink or a source anchor."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    T = random_tree_dag(rng, draw(st.integers(1, 40)))
    S = random_convex(rng, T.n, draw(st.sampled_from(("left", "right"))))
    sink = draw(st.booleans())
    anchors = [v for v in range(T.n) if not (T.out_neighbors if sink else T.in_neighbors)[v]]
    return T, S, sink, draw(st.sampled_from(anchors))


class TestAnyOrientedTreeOneSided:
    """On a one-sided convex set y order is hull order, so every oriented
    tree embeds there, its sink anchor on the top point or its source anchor
    on the bottom point: checked by verify_upse and by convex_chords_ok."""

    @settings(max_examples=300, deadline=None)
    @given(anchored_one_sided_trees())
    def test_every_anchored_tree_embeds(self, instance):
        T, S, sink, r = instance
        m = (embed_one_sided_sink if sink else embed_one_sided_source)(T, r, S)
        assert verify_upse(T, S, m) == []
        assert convex_chords_ok(T, S, m)
        ys = [p.y for p in S]
        assert S[m[r]].y == (max(ys) if sink else min(ys))


class TestSameDrawingsAsTheWindowRoutine:
    """On switch trees every embedder returns the mapping of the window
    routine that laid one-sided runs before the y-order walk, kept in
    tests/helpers as window_one_sided and window_convex_sink: every
    admissible anchor, n = 1-39, on left, right and mixed sets."""

    def test_every_anchor_of_every_embedder(self):
        rng = random.Random(28)
        cases = 0
        for t in range(2600):
            n = 1 + t % 39
            T = random_switch_tree(rng, n) if n > 1 else Digraph(["x0"], [])
            side = ("left", "right", "mixed")[t % 3]
            S = random_convex(rng, n, side)
            for r in range(n):
                if not T.out_neighbors[r]:
                    assert embed_convex_sink(T, r, S) == window_convex_sink(T, r, S)
                    cases += 1
                if side == "mixed":
                    continue
                if not T.out_neighbors[r]:
                    assert embed_one_sided_sink(T, r, S) == window_one_sided(T, r, S, True)
                    cases += 1
                if not T.in_neighbors[r]:
                    assert embed_one_sided_source(T, r, S) == window_one_sided(T, r, S, False)
                    cases += 1
            anchor = min(v for v in range(n) if not T.out_neighbors[v])
            assert embed_switch_tree(T, S) == window_convex_sink(T, anchor, S)
            cases += 1
        assert cases >= 60_000


class TestConvexSink:
    def test_random_instances(self):
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randrange(1, 13)
            T = random_switch_tree(rng, n) if n > 1 else Digraph(["x0"], [])
            S = random_convex(rng, n)
            sinks = [v for v in range(n) if not T.out_neighbors[v]]
            if not sinks:
                continue
            r = rng.choice(sinks)
            m = embed_convex_sink(T, r, S)
            assert valid(T, S, m)
            assert m[r] == max(range(n), key=lambda i: S[i].y)

    def test_requires_sink_root(self):
        T = in_star(2)
        S = random_convex(random.Random(1), 3)
        with pytest.raises(NotSink):
            embed_convex_sink(T, 2, S)

    def test_left_chain_first_then_residual_then_right_chain(self):
        # points: bottom, right, left, top
        S = PointSet([pt(0, 0), pt(2, 1), pt(-2, 2), pt(0, 4)])
        assert embed_convex_sink(in_star(3), 0, S).assignment == (3, 2, 0, 1)

    def test_source_on_one_chain_takes_the_bottom(self):
        # a right-sided set: the residual source x1 is left the bottom and the
        # whole right chain, so it takes the bottom and x0 the chain top first
        T = Digraph([f"x{i}" for i in range(5)], [(1, 0), (1, 2), (3, 0), (4, 0)])
        S = PointSet([pt(0, 0), pt(3, 1), pt(4, 3), pt(3, 5), pt(0, 6)])
        assert embed_convex_sink(T, 2, S).assignment == (3, 0, 4, 2, 1)


class TestSwitchTreeEmbedding:
    def test_always_valid_on_convex_sets(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(1, 14)
            T = random_switch_tree(rng, n) if n > 1 else Digraph(["x0"], [])
            S = random_convex(rng, n)
            m = embed_switch_tree(T, S)
            assert valid(T, S, m)

    def test_rejects_non_switch_tree(self):
        S = random_convex(random.Random(2), 3)
        with pytest.raises(NotSwitchTree):
            embed_switch_tree(Digraph(["a", "b", "c"], [(0, 1), (1, 2)]), S)
        with pytest.raises(NotSwitchTree):
            embed_switch_tree(Digraph(["a", "b", "c"], [(0, 1)]), S)

    def test_rejects_size_mismatch(self):
        T = in_star(2)
        with pytest.raises(SizeMismatch):
            embed_switch_tree(T, random_convex(random.Random(3), 5))

    def test_rejects_two_sided_left_right_mixups(self):
        # crossing-freedom must hold however the sides are populated
        rng = random.Random(14)
        for sidedness in ("left", "right", "mixed"):
            for _ in range(60):
                n = rng.randrange(2, 12)
                T = random_switch_tree(rng, n)
                S = random_convex(rng, n, sidedness)
                assert valid(T, S, embed_switch_tree(T, S))

    def test_star_goes_to_extreme_point(self):
        S = random_convex(random.Random(4), 7)
        split = classify_sides(S)
        m = embed_switch_tree(in_star(6), S)
        assert m[0] == split.top
        m2 = embed_switch_tree(
            Digraph(["c"] + [f"x{i}" for i in range(6)],
                    [(0, i + 1) for i in range(6)]), S)
        assert m2[0] == split.bottom

    def test_hundred_vertices_under_a_second(self):
        rng = random.Random(5)
        T = random_switch_tree(rng, 100)
        S = random_convex(rng, 100)
        t0 = time.perf_counter()
        m = embed_switch_tree(T, S)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert valid(T, S, m)


ANCHORED = {"one_sided_sink": (embed_one_sided_sink, 0),
            "one_sided_source": (embed_one_sided_source, 1),
            "convex_sink": (embed_convex_sink, 0)}


class TestPreconditions:
    """Each anchored embedder checks, in order: a tree (for
    embed_convex_sink, a switch tree), the anchor as a vertex index, the
    anchor's role, the size, then general and convex position. in_star(2)
    has its sink at 0 and sources at 1 and 2."""

    @pytest.mark.parametrize("embedder", ANCHORED)
    @pytest.mark.parametrize("r", [-1, 3, True, 0.0],
                             ids=["negative", "past_the_end", "bool", "float"])
    def test_anchor_must_be_a_vertex_index(self, embedder, r):
        # -1 would alias the last vertex and True vertex 1
        embed, _ = ANCHORED[embedder]
        S = random_convex(random.Random(0), 3, "left")
        with pytest.raises(ValueError, match=f"anchor {r!r} is not a vertex index"):
            embed(in_star(2), r, S)
        with pytest.raises(NotSwitchTree):  # the tree test comes first
            embed(Digraph(["a", "b", "c"], [(0, 1)]), r, S)
        # a -> b -> c is a tree but no switch tree: only embed_convex_sink
        # tests that, and before the anchor
        path = Digraph(["a", "b", "c"], [(0, 1), (1, 2)])
        with pytest.raises(NotSwitchTree if embedder == "convex_sink" else ValueError):
            embed(path, r, S)

    def test_empty_graph_is_not_a_switch_tree(self):
        with pytest.raises(NotSwitchTree):
            embed_switch_tree(Digraph([], []), PointSet([pt(0, 0)]))

    @pytest.mark.parametrize("embedder", ANCHORED)
    def test_collinear_points_are_not_in_general_position(self, embedder):
        embed, r = ANCHORED[embedder]
        with pytest.raises(NotGeneralPosition):
            embed(in_star(2), r, PointSet([pt(0, 0), pt(1, 1), pt(2, 2)]))

    @pytest.mark.parametrize("embedder", ANCHORED)
    def test_a_point_inside_the_hull_is_not_convex(self, embedder):
        embed, r = ANCHORED[embedder]
        S = PointSet([pt(0, 0), pt(4, 2), pt(1, 3), pt(0, 8)])  # (1, 3) is inside
        with pytest.raises(NotConvex):
            embed(in_star(3), r, S)


@functools.lru_cache(maxsize=None)
def deep_set(sidedness, n=1100):
    # shared, so that general position of each set is checked once
    return random_convex(random.Random(6), n, sidedness)


def deep_shape_edges(shape, n):
    if shape == "caterpillar":  # spine 0, 3, 6, ...; two legs on each spine vertex
        return [(v - 3 if v % 3 == 0 else v - v % 3, v) for v in range(1, n)]
    if shape == "spider":  # ten legs of equal length from vertex 0
        return [(0 if v <= 10 else v - 10, v) for v in range(1, n)]
    if shape == "broom":  # a handle of n/2 vertices, then bristles from its end
        return [(v - 1 if v <= n // 2 else n // 2, v) for v in range(1, n)]
    return random_tree_edges(random.Random(26), n)


class TestDeepTrees:
    """Nothing in the embedder recurses per tree level, so depth is unbounded.
    Each drawing is checked twice: by verify_upse, and by convex_chords_ok,
    which shares no code with it."""

    @pytest.mark.parametrize("sidedness", ["right", "mixed"])
    def test_zigzag_path_of_1100_vertices(self, sidedness):
        T = zigzag_path(1100)
        S = deep_set(sidedness)
        m = embed_switch_tree(T, S)
        assert convex_chords_ok(T, S, m)
        assert verify_upse(T, S, m) == []

    @pytest.mark.parametrize("shape", ["caterpillar", "spider", "broom", "random"])
    def test_shapes_of_1100_vertices_on_a_two_sided_set(self, shape):
        T = orient_as_switch(deep_shape_edges(shape, 1100), 1100, 0)
        S = deep_set("mixed")
        m = embed_switch_tree(T, S)
        assert convex_chords_ok(T, S, m)
        assert verify_upse(T, S, m) == []
        anchor = min(v for v in range(T.n) if not T.out_neighbors[v])
        assert S[m[anchor]].y == max(p.y for p in S)

    @pytest.mark.parametrize("shape", ["zigzag", "caterpillar", "spider", "broom"])
    def test_shapes_of_ten_thousand_vertices(self, shape):
        # convex_chords_ok is quadratic, so at this size verify_upse alone checks
        n = 10_000
        T = zigzag_path(n) if shape == "zigzag" else \
            orient_as_switch(deep_shape_edges(shape, n), n, 0)
        S = deep_set("mixed", n)
        m = embed_switch_tree(T, S)
        assert verify_upse(T, S, m) == []
        anchor = min(v for v in range(T.n) if not T.out_neighbors[v])
        assert S[m[anchor]].y == max(p.y for p in S)

    def test_random_oriented_tree_of_ten_thousand_vertices_on_one_side(self):
        # no switch tree: embed_one_sided_sink takes any oriented tree
        n = 10_000
        T = random_tree_dag(random.Random(27), n)
        S = deep_set("right", n)
        sink = min(v for v in range(n) if not T.out_neighbors[v])
        m = embed_one_sided_sink(T, sink, S)
        assert verify_upse(T, S, m) == []
        assert S[m[sink]].y == max(p.y for p in S)

    def test_chord_check_agrees_with_verify(self):
        rng = random.Random(16)
        for _ in range(150):
            n = rng.randrange(2, 12)
            T = random_switch_tree(rng, n)
            S = random_convex(rng, n, rng.choice(("left", "right", "mixed")))
            m = list(embed_switch_tree(T, S).assignment)
            if rng.random() < 0.7:
                i, j = rng.sample(range(n), 2)
                m[i], m[j] = m[j], m[i]
            m = Mapping(tuple(m))
            assert convex_chords_ok(T, S, m) == valid(T, S, m)
