"""Directed graphs with string-labelled vertices and index-based arcs.

The structural predicates used by the embedding algorithms live here:
switch trees (every vertex a source or a sink), longest directed paths,
path digraphs, and the subtree decomposition obtained by removing a vertex
from a tree. One rooted pass (parents, BFS order, children, subtree sizes)
is the only tree walk: it stops on any graph, so it also answers whether the
underlying graph is a tree, and a path is a tree of degree at most two. The
decomposition, the embedder and the window rule of the decision solver
each use the rooted tree it leaves.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .errors import Cyclic, NotATree


class Digraph:
    """Immutable digraph. Vertices are labels; arcs are (tail, head) index pairs.

    One pass over the arcs fills ``out_neighbors``, ``in_neighbors`` and
    ``adjacency``, the undirected neighbours of each vertex. All three list a
    vertex's neighbours in the order its arcs appear in ``arcs``.
    """

    def __init__(self, vertices: Sequence[str], arcs: Iterable[tuple[int, int]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arcs: tuple[tuple[int, int], ...] = tuple(
            (_endpoint(t), _endpoint(h)) for t, h in arcs)
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

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and \
            (self.vertices, self.arcs) == (other.vertices, other.arcs)

    def __hash__(self) -> int:
        return hash((self.vertices, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph({len(self.vertices)} vertices, {len(self.arcs)} arcs)"


def _endpoint(v) -> int:
    # an index, not whatever int() takes: it truncates 0.9, parses "0" and
    # reads True as 1
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise ValueError(f"arc endpoint {v!r} is not a vertex index")
    return operator.index(v)


def underlying_is_tree(G: Digraph) -> bool:
    """Connected, acyclic as an undirected graph, with arcs forming simple edges."""
    return _rooted(G, 0) is not None


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


def is_path_dag(G: Digraph) -> bool:
    """True iff the underlying graph is a simple path (single vertex included)."""
    return underlying_is_tree(G) and all(len(a) <= 2 for a in G.adjacency)


def is_monotone_path(G: Digraph) -> bool:
    """True iff G is a path whose arcs all point the same way along it."""
    return is_path_dag(G) and longest_directed_path_length(G) == G.n - 1


class _Tree:
    """G rooted at r, found in one iterative pass: each vertex's parent (-1 at
    r), the vertices in BFS order from r, the children in arc order and the
    subtree sizes. From a vertex index r the walk visits each vertex at most
    once, so it stops on any graph; _rooted tells whether it was a tree."""

    def __init__(self, G: Digraph, r: int):
        self.parent = parent = [-1] * G.n
        self.children: list[list[int]] = [[] for _ in range(G.n)]
        self.size = [1] * G.n
        self.order = order = [r]
        for v in order:  # BFS: every vertex comes after its parent
            for w in G.adjacency[v]:
                if parent[w] < 0 and w != r:
                    parent[w] = v
                    self.children[v].append(w)
                    order.append(w)
        for v in reversed(order[1:]):
            self.size[parent[v]] += self.size[v]


def _rooted(G: Digraph, r: int) -> _Tree | None:
    """G rooted at vertex r, or None if its underlying graph is not a tree.

    n - 1 arcs that reach every vertex suffice: arcs are distinct and
    loop-free, so an opposite pair would leave only n - 2 distinct edges,
    too few to connect n vertices.
    """
    if len(G.arcs) != G.n - 1:
        return None
    tree = _Tree(G, r)
    return tree if len(tree.order) == G.n else None


def _is_vertex(G: Digraph, v) -> bool:
    # type, not isinstance: True would be read as vertex 1; and -1 would
    # alias the last vertex
    return type(v) is int and 0 <= v < G.n


class Subtree(NamedTuple):
    """One component left after removing a vertex from a tree."""
    vertices: frozenset[int]
    attachment: int          # the unique neighbor of the removed vertex inside
    arc_into_removed: bool   # True when the connecting arc points at the removed vertex


class TreeDecomposition(NamedTuple):
    removed_vertex: int
    subtrees: tuple[Subtree, ...]


def decompose_at(G: Digraph, u: int) -> TreeDecomposition:
    """Subtrees hanging off vertex u of a tree, in the order u's arcs appear:
    the children of u in the tree rooted at u, each with its descendants."""
    ok = _is_vertex(G, u)
    tree = _rooted(G, u if ok else 0)
    if tree is None:
        raise NotATree("underlying graph is not a tree")
    if not ok:
        raise ValueError(f"vertex {u!r} is not an index in [0, {G.n})")
    bags: dict[int, list[int]] = {c: [] for c in tree.children[u]}
    top = [-1] * G.n  # the child of u above each vertex
    for v in tree.order[1:]:  # BFS: every vertex comes after its parent
        p = tree.parent[v]
        top[v] = v if p == u else top[p]
        bags[top[v]].append(v)
    into = set(G.in_neighbors[u])
    return TreeDecomposition(u, tuple(Subtree(frozenset(bags[c]), c, c in into)
                                      for c in tree.children[u]))
