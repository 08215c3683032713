import random
import time

import pytest

from upse import (Digraph, Mapping, NotOneSided, NotSink, NotSource,
                  NotSwitchTree, Point, PointSet, SizeMismatch, classify_sides,
                  embed_convex_sink, embed_one_sided_sink,
                  embed_one_sided_source, embed_switch_tree, pt, verify_upse)

from helpers import random_convex, random_switch_tree


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
