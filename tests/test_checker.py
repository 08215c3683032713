import inspect
import random
import sys

import pytest

from upse import (Digraph, Mapping, NotGeneralPosition, PointSet,
                  SizeMismatch, SolverOptions, ViolationKind, decide_upse,
                  gen_binucci_pointset, gen_binucci_tree, gen_kswitch_tree, pt,
                  verify_upse)

from helpers import (brute_force_embeddable, random_convex, random_dag,
                     random_general, random_switch_tree, random_tree_dag)


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
        assert res.nodes_explored >= 1
        full = decide_upse(G, S)
        assert full.result == "embeddable"

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(node_budget=-1)
        assert SolverOptions(node_budget=0).node_budget == 0

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
