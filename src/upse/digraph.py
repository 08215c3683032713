"""Directed graphs with string-labelled vertices and index-based arcs.

The structural predicates used by the embedding algorithms live here:
switch trees (every vertex a source or a sink), longest directed paths,
path digraphs, and the subtree decomposition obtained by removing a vertex
from a tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import Cyclic, NotATree


class Digraph:
    """Immutable digraph. Vertices are labels; arcs are (tail, head) index pairs.

    One pass over the arcs fills ``out_neighbors``, ``in_neighbors`` and
    ``adjacency``, the undirected neighbours of each vertex. All three list a
    vertex's neighbours in the order its arcs appear in ``arcs``.
    """

    def __init__(self, vertices: Sequence[str], arcs: Iterable[tuple[int, int]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arcs: tuple[tuple[int, int], ...] = tuple((int(t), int(h)) for t, h in arcs)
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ValueError("vertex labels must be unique")
        self._index = {lab: i for i, lab in enumerate(self.vertices)}
        out: list[list[int]] = [[] for _ in range(n)]
        inn: list[list[int]] = [[] for _ in range(n)]
        adj: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for t, h in self.arcs:
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"arc ({t},{h}) references a missing vertex")
            if t == h:
                raise ValueError(f"self-loop at vertex {self.vertices[t]!r}")
            if (t, h) in seen:
                raise ValueError(f"duplicate arc ({self.vertices[t]!r},{self.vertices[h]!r})")
            seen.add((t, h))
            out[t].append(h)
            inn[h].append(t)
            adj[t].append(h)
            adj[h].append(t)
        self.out_neighbors: tuple[tuple[int, ...], ...] = tuple(map(tuple, out))
        self.in_neighbors: tuple[tuple[int, ...], ...] = tuple(map(tuple, inn))
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))

    @classmethod
    def from_labels(cls, vertices: Sequence[str], labeled_arcs: Iterable[tuple[str, str]]) -> "Digraph":
        index = {lab: i for i, lab in enumerate(vertices)}
        arcs = []
        for t, h in labeled_arcs:
            if t not in index or h not in index:
                raise ValueError(f"arc ({t!r},{h!r}) references a missing vertex")
            arcs.append((index[t], index[h]))
        return cls(vertices, arcs)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, label: str) -> int:
        return self._index[label]

    def __repr__(self) -> str:
        return f"Digraph({len(self.vertices)} vertices, {len(self.arcs)} arcs)"


def underlying_is_tree(G: Digraph) -> bool:
    """Connected, acyclic as an undirected graph, with arcs forming simple edges.

    n - 1 arcs that reach every vertex suffice: arcs are distinct and
    loop-free, so an opposite pair would leave only n - 2 distinct edges,
    too few to connect n vertices.
    """
    n = G.n
    if len(G.arcs) != n - 1:
        return False
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in G.adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def sources_and_sinks(G: Digraph) -> tuple[frozenset[int], frozenset[int]]:
    sources = frozenset(v for v in range(G.n) if not G.in_neighbors[v])
    sinks = frozenset(v for v in range(G.n) if not G.out_neighbors[v])
    return sources, sinks


def is_switch_tree(G: Digraph) -> bool:
    """True iff G is a tree in which every vertex is a source or a sink."""
    if not underlying_is_tree(G):
        raise NotATree("underlying graph is not a tree")
    return all(not G.in_neighbors[v] or not G.out_neighbors[v] for v in range(G.n))


def topological_order(G: Digraph) -> list[int]:
    indeg = [len(G.in_neighbors[v]) for v in range(G.n)]
    queue = deque(v for v in range(G.n) if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in G.out_neighbors[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != G.n:
        raise Cyclic("digraph contains a directed cycle")
    return order


def longest_directed_path_length(G: Digraph) -> int:
    """Number of arcs on a longest directed path; raises Cyclic on cycles."""
    dist = [0] * G.n
    for v in topological_order(G):
        for w in G.out_neighbors[v]:
            if dist[v] + 1 > dist[w]:
                dist[w] = dist[v] + 1
    return max(dist, default=0)


def _path_order(G: Digraph) -> list[int] | None:
    """Vertex order along the underlying path, or None if not a path."""
    n = G.n
    if not underlying_is_tree(G):
        return None
    adj = G.adjacency
    if any(len(a) > 2 for a in adj):
        return None
    if n == 1:
        return [0]
    start = next(v for v in range(n) if len(adj[v]) == 1)
    order = [start]
    prev = -1
    while len(order) < n:
        nxt = [w for w in adj[order[-1]] if w != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order


def is_path_dag(G: Digraph) -> bool:
    """True iff the underlying graph is a simple path (single vertex included)."""
    return _path_order(G) is not None


def is_monotone_path(G: Digraph) -> bool:
    """True iff G is a path whose arcs all point the same way along it."""
    order = _path_order(G)
    if order is None:
        return False
    arcs = set(G.arcs)
    forward = all((order[i], order[i + 1]) in arcs for i in range(len(order) - 1))
    backward = all((order[i + 1], order[i]) in arcs for i in range(len(order) - 1))
    return forward or backward


@dataclass(frozen=True)
class Subtree:
    """One component left after removing a vertex from a tree."""
    vertices: frozenset[int]
    attachment: int          # the unique neighbor of the removed vertex inside
    arc_into_removed: bool   # True when the connecting arc points at the removed vertex


@dataclass(frozen=True)
class TreeDecomposition:
    removed_vertex: int
    subtrees: tuple[Subtree, ...]


def decompose_at(G: Digraph, u: int) -> TreeDecomposition:
    """Subtrees hanging off vertex u of a tree, in the order u's arcs appear."""
    if not underlying_is_tree(G):
        raise NotATree("underlying graph is not a tree")
    n = G.n
    comp = [-1] * n
    comp[u] = -2
    parts: list[set[int]] = []
    for v in range(n):
        if comp[v] != -1:
            continue
        bag = {v}
        comp[v] = len(parts)
        queue = deque([v])
        while queue:
            a = queue.popleft()
            for b in G.adjacency[a]:
                if comp[b] == -1:
                    comp[b] = len(parts)
                    bag.add(b)
                    queue.append(b)
        parts.append(bag)
    subtrees = []
    for t, h in G.arcs:
        if t == u:
            subtrees.append(Subtree(frozenset(parts[comp[h]]), h, False))
        elif h == u:
            subtrees.append(Subtree(frozenset(parts[comp[t]]), t, True))
    return TreeDecomposition(u, tuple(subtrees))
