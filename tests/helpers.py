"""Shared test utilities: instance generators and independent reference
implementations used as oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx

from upse import Digraph, Mapping, Point, PointSet, verify_upse


def circle_point(s: Fraction, left: bool = False) -> Point:
    # rational parametrization of the unit circle, strictly increasing y on |s|<1
    x = (1 - s * s) / (1 + s * s)
    return Point(-x if left else x, 2 * s / (1 + s * s))


def random_convex(rng, n: int, sidedness: str = "mixed") -> PointSet:
    """n points on the rational unit circle in convex general position.

    sidedness: "mixed" puts interior points on random sides; "left"/"right"
    force a one-sided set.
    """
    nums = sorted(rng.sample(range(-2999, 3000), n))
    pts = []
    for i, num in enumerate(nums):
        s = Fraction(num, 3000)
        if i == 0 or i == n - 1 or sidedness == "right":
            left = False
        elif sidedness == "left":
            left = True
        else:
            left = rng.random() < 0.5
        pts.append(circle_point(s, left))
    return PointSet(pts)


def random_general(rng, n: int, span: int = 60) -> PointSet:
    """n integer points in general position (distinct y, no collinear triple)."""
    from upse import is_general_position
    while True:
        raw = set()
        while len(raw) < n:
            raw.add((rng.randrange(-span, span + 1), rng.randrange(-span, span + 1)))
        S = PointSet([Point(Fraction(x), Fraction(y)) for x, y in raw])
        if is_general_position(S):
            return S


def random_tree_edges(rng, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(v), v) for v in range(1, n)]


def orient_as_switch(edges: list[tuple[int, int]], n: int, sink_color: int) -> Digraph:
    """Orient tree edges by the unique bipartition; sink_color picks which
    class receives all arcs."""
    color = [0] * n
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                color[w] = 1 - color[v]
                stack.append(w)
    arcs = []
    for a, b in edges:
        if color[a] == sink_color:
            arcs.append((b, a))
        else:
            arcs.append((a, b))
    return Digraph([f"x{i}" for i in range(n)], arcs)


def random_switch_tree(rng, n: int) -> Digraph:
    return orient_as_switch(random_tree_edges(rng, n), n, rng.randrange(2))


def random_tree_dag(rng, n: int) -> Digraph:
    arcs = []
    for v in range(1, n):
        p = rng.randrange(v)
        arcs.append((p, v) if rng.random() < 0.5 else (v, p))
    return Digraph([f"x{i}" for i in range(n)], arcs)


def random_dag(rng, n: int) -> Digraph:
    # arcs only from lower to higher index: acyclic by construction
    arcs = []
    for b in range(1, n):
        for a in range(b):
            if rng.random() < 0.4:
                arcs.append((a, b))
    return Digraph([f"x{i}" for i in range(n)], arcs)


def all_switch_trees_upto(max_n: int):
    """Every switch tree on <= max_n vertices, up to underlying-tree isomorphism:
    each nonisomorphic tree shape in both bipartition orientations."""
    out = [Digraph(["x0"], [])]
    for n in range(2, max_n + 1):
        for shape in nx.nonisomorphic_trees(n):
            edges = [tuple(e) for e in shape.edges()]
            for sink_color in (0, 1):
                out.append(orient_as_switch(edges, n, sink_color))
    return out


def naive_neighbors(G: Digraph):
    """Out-, in- and undirected neighbours of every vertex in arc order, by one
    scan over all arcs per vertex: the O(n*m) construction Digraph once used."""
    n = G.n
    out = tuple(tuple(h for t, h in G.arcs if t == v) for v in range(n))
    inn = tuple(tuple(t for t, h in G.arcs if h == v) for v in range(n))
    adj = tuple(tuple(h if t == v else t for t, h in G.arcs if v in (t, h))
                for v in range(n))
    return out, inn, adj


def brute_force_embeddable(G: Digraph, S: PointSet) -> bool:
    """All-permutations oracle."""
    for perm in itertools.permutations(range(G.n)):
        if not verify_upse(G, S, Mapping(perm)):
            return True
    return False


def jarvis_hull(points: list[Point]) -> list[int]:
    """Gift-wrapping strict hull (collinear boundary points excluded),
    independent of the production implementation."""
    n = len(points)
    if n == 1:
        return [0]
    start = min(range(n), key=lambda i: (points[i].y, points[i].x))
    hull = [start]
    cur = start
    while True:
        cand = None
        for j in range(n):
            if j == cur:
                continue
            if cand is None:
                cand = j
                continue
            o, a, b = points[cur], points[cand], points[j]
            turn = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
            if turn < 0:
                cand = j
            elif turn == 0:
                # keep the farther one: strict hull drops inner collinear points
                da = (a.x - o.x) ** 2 + (a.y - o.y) ** 2
                db = (b.x - o.x) ** 2 + (b.y - o.y) ** 2
                if db > da:
                    cand = j
        if cand == start:
            break
        hull.append(cand)
        cur = cand
    return hull


def naive_depth(S: PointSet) -> int:
    """Reference onion peeling built on jarvis_hull."""
    remaining = list(S.points)
    depth = 0
    while remaining:
        hull = jarvis_hull(remaining)
        strict = set(hull)
        # drop collinear-on-boundary points too: peel only true hull vertices,
        # matching the strict-hull definition used by the library
        remaining = [p for i, p in enumerate(remaining) if i not in strict]
        depth += 1
    return depth
