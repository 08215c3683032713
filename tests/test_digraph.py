import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upse import (Cyclic, Digraph, NotATree, decompose_at, is_monotone_path,
                  is_path_dag, is_switch_tree, longest_directed_path_length,
                  sources_and_sinks, topological_order, underlying_is_tree)

from helpers import (naive_neighbors, random_dag, random_switch_tree,
                     random_tree_edges)


def monotone_path(n):
    return Digraph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


class TestValidation:
    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            Digraph(["a", "a"], [])

    def test_arc_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph(["a", "b"], [(0, 2)])

    def test_self_loop(self):
        with pytest.raises(ValueError):
            Digraph(["a"], [(0, 0)])

    def test_duplicate_arc(self):
        with pytest.raises(ValueError):
            Digraph(["a", "b"], [(0, 1), (0, 1)])

    def test_from_labels(self):
        G = Digraph.from_labels(["a", "b", "c"], [("a", "b"), ("c", "b")])
        assert G.arcs == ((0, 1), (2, 1))
        assert G.index("c") == 2
        with pytest.raises(ValueError):
            Digraph.from_labels(["a"], [("a", "z")])


class TestUnderlyingTree:
    def test_path_is_tree(self):
        assert underlying_is_tree(monotone_path(4))

    def test_cycle_is_not(self):
        G = Digraph(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
        assert not underlying_is_tree(G)

    def test_disconnected_is_not(self):
        assert not underlying_is_tree(Digraph(["a", "b"], []))

    def test_antiparallel_arcs_are_a_multiedge(self):
        assert not underlying_is_tree(Digraph(["a", "b"], [(0, 1), (1, 0)]))


@st.composite
def arc_lists(draw):
    """(n, arcs): arbitrary distinct loop-free arcs, or an oriented tree with
    optional extra arcs, so trees, opposite pairs and isolated vertices all occur."""
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda a: a[0] != a[1])
    if draw(st.booleans()):
        arcs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        arcs = [(h, t) if draw(st.booleans()) else (t, h) for t, h in arcs]
        arcs += draw(st.lists(pair, max_size=2))
    else:
        arcs = draw(st.lists(pair, max_size=2 * n))
    arcs = list(dict.fromkeys(arcs))
    return n, draw(st.permutations(arcs))


class TestAdjacency:
    @settings(max_examples=300, deadline=None)
    @given(arc_lists())
    def test_matches_the_per_vertex_scan(self, case):
        n, arcs = case
        G = Digraph([f"v{i}" for i in range(n)], arcs)
        assert (G.out_neighbors, G.in_neighbors, G.adjacency) == naive_neighbors(G)

    @settings(max_examples=300, deadline=None)
    @given(arc_lists())
    def test_tree_test_matches_networkx(self, case):
        n, arcs = case
        G = Digraph([f"v{i}" for i in range(n)], arcs)
        M = nx.MultiGraph()
        M.add_nodes_from(range(n))
        M.add_edges_from(arcs)
        assert underlying_is_tree(G) == nx.is_tree(M)

    def test_long_zigzag_path(self):
        n = 20_000
        G = Digraph([f"v{i}" for i in range(n)],
                    [(i, i + 1) if i % 2 else (i + 1, i) for i in range(n - 1)])
        assert is_path_dag(G)
        assert not is_monotone_path(G)


class TestSourcesSinks:
    def test_isolated_vertex_is_both(self):
        G = Digraph(["a", "b", "c"], [(0, 1)])
        sources, sinks = sources_and_sinks(G)
        assert 2 in sources and 2 in sinks
        assert sources == {0, 2} and sinks == {1, 2}

    def test_monotone_path_has_one_of_each(self):
        sources, sinks = sources_and_sinks(monotone_path(5))
        assert sources == {0} and sinks == {4}


class TestSwitchTree:
    def test_in_star_and_out_star(self):
        into = Digraph(["c", "x", "y", "z"], [(1, 0), (2, 0), (3, 0)])
        outof = Digraph(["c", "x", "y", "z"], [(0, 1), (0, 2), (0, 3)])
        assert is_switch_tree(into) and is_switch_tree(outof)

    def test_long_path_is_not(self):
        assert not is_switch_tree(monotone_path(3))

    def test_requires_tree(self):
        with pytest.raises(NotATree):
            is_switch_tree(Digraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)]))

    def test_matches_path_length_one_exhaustively(self):
        # every orientation of every tree shape on up to 7 vertices
        checked = 0
        for n in range(2, 8):
            for shape in nx.nonisomorphic_trees(n):
                edges = [tuple(sorted(e)) for e in shape.edges()]
                for bits in itertools.product((0, 1), repeat=len(edges)):
                    arcs = [(a, b) if bit == 0 else (b, a)
                            for (a, b), bit in zip(edges, bits)]
                    G = Digraph([f"v{i}" for i in range(n)], arcs)
                    assert is_switch_tree(G) == (longest_directed_path_length(G) == 1)
                    checked += 1
        assert checked == 966

    def test_generator_produces_switch_trees(self):
        rng = random.Random(0)
        for _ in range(50):
            G = random_switch_tree(rng, rng.randrange(2, 15))
            assert is_switch_tree(G)
            assert longest_directed_path_length(G) == 1


class TestTopologicalOrder:
    def test_respects_arcs(self):
        rng = random.Random(1)
        for _ in range(100):
            G = random_dag(rng, rng.randrange(1, 12))
            pos = {v: k for k, v in enumerate(topological_order(G))}
            assert len(pos) == G.n
            assert all(pos[t] < pos[h] for t, h in G.arcs)

    def test_cycle_raises(self):
        G = Digraph(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(Cyclic):
            topological_order(G)
        with pytest.raises(Cyclic):
            longest_directed_path_length(G)


class TestLongestPath:
    def test_examples(self):
        assert longest_directed_path_length(monotone_path(4)) == 3
        assert longest_directed_path_length(Digraph(["a", "b"], [(0, 1)])) == 1
        zigzag = Digraph(["a", "b", "c"], [(0, 1), (2, 1)])
        assert longest_directed_path_length(zigzag) == 1
        assert longest_directed_path_length(Digraph(["a"], [])) == 0

    def test_reversal_invariant(self):
        rng = random.Random(2)
        for _ in range(100):
            G = random_dag(rng, rng.randrange(2, 12))
            R = Digraph(G.vertices, [(h, t) for t, h in G.arcs])
            assert (longest_directed_path_length(R)
                    == longest_directed_path_length(G))
            sources, sinks = sources_and_sinks(G)
            rsources, rsinks = sources_and_sinks(R)
            assert rsources == sinks and rsinks == sources

    def test_reversal_preserves_switch_trees(self):
        rng = random.Random(3)
        for _ in range(60):
            edges = random_tree_edges(rng, rng.randrange(2, 12))
            n = len(edges) + 1
            bits = [rng.randrange(2) for _ in edges]
            arcs = [(a, b) if bit == 0 else (b, a)
                    for (a, b), bit in zip(edges, bits)]
            G = Digraph([f"v{i}" for i in range(n)], arcs)
            R = Digraph(G.vertices, [(h, t) for t, h in G.arcs])
            assert is_switch_tree(G) == is_switch_tree(R)


class TestPathShapes:
    def test_single_vertex(self):
        G = Digraph(["a"], [])
        assert is_path_dag(G)
        assert is_monotone_path(G)

    def test_zigzag_is_path_but_not_monotone(self):
        zigzag = Digraph(["a", "b", "c"], [(0, 1), (2, 1)])
        assert is_path_dag(zigzag)
        assert not is_monotone_path(zigzag)

    def test_monotone_both_directions(self):
        fwd = monotone_path(5)
        bwd = Digraph(fwd.vertices, [(h, t) for t, h in fwd.arcs])
        assert is_monotone_path(fwd) and is_monotone_path(bwd)

    def test_star_is_not_a_path(self):
        star = Digraph(["c", "x", "y", "z"], [(1, 0), (2, 0), (3, 0)])
        assert not is_path_dag(star)
        assert not is_monotone_path(star)

    def test_disconnected_is_not_a_path(self):
        assert not is_path_dag(Digraph(["a", "b"], []))


class TestDecompose:
    def test_star_center_gives_singletons(self):
        star = Digraph(["c", "x", "y", "z"], [(1, 0), (2, 0), (0, 3)])
        dec = decompose_at(star, 0)
        assert [st.vertices for st in dec.subtrees] == [
            frozenset({1}), frozenset({2}), frozenset({3})]
        assert [st.arc_into_removed for st in dec.subtrees] == [True, True, False]
        assert [st.attachment for st in dec.subtrees] == [1, 2, 3]

    def test_path_midpoint_gives_two_halves(self):
        G = monotone_path(5)
        dec = decompose_at(G, 2)
        assert len(dec.subtrees) == 2
        assert {st.vertices for st in dec.subtrees} == {
            frozenset({0, 1}), frozenset({3, 4})}

    def test_sizes_sum_and_partition(self):
        rng = random.Random(4)
        for _ in range(80):
            G = random_switch_tree(rng, rng.randrange(2, 14))
            u = rng.randrange(G.n)
            dec = decompose_at(G, u)
            assert dec.removed_vertex == u
            assert sum(len(st.vertices) for st in dec.subtrees) == G.n - 1
            union = set()
            for st in dec.subtrees:
                assert st.attachment in st.vertices
                assert u not in st.vertices
                assert not (union & st.vertices)
                union |= st.vertices
            assert union == set(range(G.n)) - {u}

    def test_follows_arc_order(self):
        G = Digraph(["m", "a", "b", "c"], [(0, 2), (1, 0), (0, 3)])
        dec = decompose_at(G, 0)
        assert [st.attachment for st in dec.subtrees] == [2, 1, 3]

    def test_requires_tree(self):
        with pytest.raises(NotATree):
            decompose_at(Digraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)]), 0)
