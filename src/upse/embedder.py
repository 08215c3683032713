"""Constructive upward planar straight-line embedding of switch trees.

A switch tree always admits an upward planar straight-line embedding into any
convex general-position point set of matching size. The construction is
recursive, and every block lists its points starting from its anchor's end:
the top point for a sink, the bottom point for a source. On a one-sided set
(bottom and top hull-adjacent) the anchor takes the first point of its block
and each subtree takes the next consecutive run of points, reversed, so the
subtree's own anchor (a source under a sink, a sink under a source) again
comes first. On a general convex set the sink takes the top point and the
subtrees are packed greedily onto the two y-monotone hull chains: left chain
top-down as long as they fit, the first subtree that does not fit is withheld
as the residual, the rest continue on the right chain top-down. The unused
points then form a consecutive arc around the bottom point, and the residual
subtree goes into it anchored at a source. A source packs its subtrees the
same way and takes the bottom point, or, when leftovers remain on both
chains, the lower of the two chain tops and hands its residual on as a sink.

Every block is a window (first, length, step) on the hull cycle that the
point set caches, geometry._cycle: the hull listed counterclockwise from the
top point, with the position of the lowest point. Every residual is a
sub-window of its block. Every window holds the lowest point: the first is
the whole cycle, chain runs never include that point, and so every residual
keeps it, as the window's bottom. The y-rank of each cycle position is built
once; after that each step is integer arithmetic on positions and ranks, and
a residual window whose length does not match its subtree raises
InternalNonConsecutiveResidual. An explicit stack and a loop
over residual steps replace recursion, so the depth of the tree is unbounded.

The anchor of every embedder must be a vertex index in [0, n); anything
else, a bool or -1 included, raises ValueError after the switch-tree test.
"""

from __future__ import annotations

from . import digraph as dg
from . import geometry as geo
from ._record import Record
from .digraph import Digraph
from .errors import (InternalNonConsecutiveResidual, NotConvex,
                     NotGeneralPosition, NotOneSided, NotSink, NotSource,
                     NotSwitchTree, SizeMismatch)
from .geometry import PointSet, Sidedness


class Mapping(Record):
    """Assignment of vertex indices to point indices."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: tuple[int, ...]):
        self._init(assignment)
        # type, not isinstance: a bool is an int to isinstance
        if any(type(i) is not int or i < 0 for i in self.assignment):
            raise ValueError("point indices must be non-negative integers")

    def __getitem__(self, v: int) -> int:
        return self.assignment[v]

    def __len__(self) -> int:
        return len(self.assignment)

    def require_fit(self, G: Digraph, S: PointSet) -> None:
        """Raise SizeMismatch unless this places every vertex of G on a point of S."""
        if len(self) != G.n:
            raise SizeMismatch(f"mapping covers {len(self)} of {G.n} vertices")
        if any(p >= len(S) for p in self.assignment):
            raise SizeMismatch("mapping refers to a point index out of range")

    def to_labels(self, G: Digraph) -> dict[str, int]:
        return {G.vertices[v]: p for v, p in enumerate(self.assignment)}

    @classmethod
    def from_labels(cls, G: Digraph, d: dict[str, int]) -> "Mapping":
        missing = [lab for lab in G.vertices if lab not in d]
        if missing or len(d) != G.n:
            raise ValueError("mapping must assign every vertex exactly once")
        return cls(tuple(d[lab] for lab in G.vertices))


def _embed_one_sided_block(tree: dg._Tree, v: int, block: tuple[int, ...],
                           first: int, step: int, assign: list[int]) -> None:
    # the window block[first], block[first + step], ... lists tree.size[v] points
    # in y order from v's end (top first for a sink); no window is copied
    stack = [(v, first, step)]
    while stack:
        v, first, step = stack.pop()
        assign[v] = block[first]
        lo = 1
        for c in tree.children[v]:
            sz = tree.size[c]
            stack.append((c, first + (lo + sz - 1) * step, -step))
            lo += sz


def _rooted_switch_tree(T: Digraph, r: int, sink: bool) -> dg._Tree:
    """T rooted at its anchor r, in one pass, once these hold in this order:
    T is a switch tree, r is a vertex index, and r is a sink (a source)."""
    ok = dg._is_vertex(T, r)
    tree = dg._rooted(T, r if ok else 0)
    if tree is None:
        raise NotSwitchTree("underlying graph is not a tree")
    if any(T.in_neighbors[v] and T.out_neighbors[v] for v in range(T.n)):
        raise NotSwitchTree("some vertex is neither a source nor a sink")
    if not ok:
        raise ValueError(f"anchor {r!r} is not a vertex index in [0, {T.n})")
    if sink and T.out_neighbors[r]:
        raise NotSink(f"vertex {T.vertices[r]!r} has outgoing arcs")
    if not sink and T.in_neighbors[r]:
        raise NotSource(f"vertex {T.vertices[r]!r} has incoming arcs")
    return tree


def _require_size(T: Digraph, S: PointSet) -> None:
    if T.n != len(S):
        raise SizeMismatch(f"{T.n} vertices vs {len(S)} points")


def _require_convex_general(S: PointSet) -> None:
    if not geo.is_general_position(S):
        raise NotGeneralPosition("point set is not in general position")
    if not geo._convex_including_small(S):
        raise NotConvex("point set is not in convex position")


def _embed_one_sided(T: Digraph, r: int, S: PointSet, sink: bool) -> Mapping:
    tree = _rooted_switch_tree(T, r, sink)
    _require_size(T, S)
    _require_convex_general(S)
    if len(S) >= 2 and geo.is_one_sided(S) is Sidedness.TWO_SIDED:
        raise NotOneSided("point set is two-sided")
    block = geo._by_y(S)[::-1] if sink else geo._by_y(S)
    assign = [-1] * T.n
    _embed_one_sided_block(tree, r, block, 0, 1, assign)
    return Mapping(tuple(assign))


def embed_one_sided_sink(T: Digraph, r: int, S: PointSet) -> Mapping:
    """Embed switch tree T into one-sided convex S with sink r on the top point."""
    return _embed_one_sided(T, r, S, sink=True)


def embed_one_sided_source(T: Digraph, r: int, S: PointSet) -> Mapping:
    """Embed switch tree T into one-sided convex S with source r on the bottom point."""
    return _embed_one_sided(T, r, S, sink=False)


def embed_convex_sink(T: Digraph, r: int, S: PointSet) -> Mapping:
    """Embed switch tree T into convex general-position S with sink r on the top point."""
    tree = _rooted_switch_tree(T, r, sink=True)
    _require_size(T, S)
    _require_convex_general(S)
    assign = [-1] * T.n
    n = len(S)
    cycle, lowest = geo._cycle(S)  # counterclockwise from the top point
    y_rank = [0] * n
    for y, i in enumerate(geo._by_y(S)):
        y_rank[i] = y
    rank = [y_rank[i] for i in cycle]  # the y-rank at each cycle position

    def block(v: int, sink: bool, first: int, length: int, step: int):
        """Embed the subtree at v into the window of length cycle positions
        from first, in steps of step = +-1; a sink takes the window's top
        point, a source its bottom point or the lower of the two leftover
        chain tops. Returns the residual's (vertex, sink, window), or None."""
        if length == 1:
            assign[v] = cycle[first]
            return None
        last = first + (length - 1) * step
        if rank[last] > rank[first]:  # put the window's top in front
            first, last, step = last, first, -step
        # y falls along the cycle from the top to the lowest point, which
        # every window holds, so it is the window's bottom, b steps from first
        b = (lowest - first) * step
        assert 0 <= b < length, "window misses the lowest point"
        if sink:
            assign[v] = cycle[first]
        # run A leads from the top (below it, for a sink) down to the bottom,
        # run B up from the far end; both list points top-down. A strictly
        # convex polygon turns left at every triple, so run A is the left
        # chain iff the window runs counterclockwise
        runA = (first + sink * step, step, b - sink)
        runB = (last, -step, length - 1 - b)
        ccw = length < 3 or step > 0
        (lf, ls, ln), (rf, rs, rn) = (runA, runB) if ccw else (runB, runA)
        li = ri = 0
        residual = None
        for c in tree.children[v]:
            sz = tree.size[c]
            if residual is None and sz > ln - li:
                residual = c
                continue
            if residual is None:
                f, s = lf + li * ls, ls
                li += sz
            else:
                assert sz <= rn - ri, "post-residual subtree overflows the right chain"
                f, s = rf + ri * rs, rs
                ri += sz
            if sink:  # a sink's children are sources: anchor them at the run's bottom
                f, s = f + (sz - 1) * s, -s
            _embed_one_sided_block(tree, c, cycle, f, s, assign)
        cA, cB = (li, ri) if ccw else (ri, li)
        # the leftover window, with a source's own point
        first, length = first + (cA + sink) * step, length - cA - cB - sink
        if residual is None and not sink:  # an exact fill leaves only the bottom
            assign[v] = cycle[first]
            return None
        if residual is None or length != tree.size[residual] + (not sink):
            raise InternalNonConsecutiveResidual(
                "residual window does not match its subtree's size")
        if sink:
            return residual, False, first, length, step
        last = first + (length - 1) * step
        if rank[last] < rank[first]:  # put the leftover's lower end in front
            first, last, step = last, first, -step
        assign[v] = cycle[first]
        if first == lowest:  # leftovers on one y-monotone chain: the rest top first
            _embed_one_sided_block(tree, residual, cycle, last, -step, assign)
            return None
        # leftovers on both chains: v took the lower chain top; go on with the rest
        return residual, True, first + step, length - 1, step

    step = (r, True, 0, n, 1)
    while step is not None:  # each block returns its residual's step, or None
        step = block(*step)
    assert assign[r] == cycle[0]
    assert all(p >= 0 for p in assign) and len(set(assign)) == T.n
    return Mapping(tuple(assign))


def embed_switch_tree(T: Digraph, S: PointSet) -> Mapping:
    """Embed switch tree T into convex general-position S, anchoring some sink on top."""
    _, sinks = dg.sources_and_sinks(T)
    # embed_convex_sink validates T, once, before it looks at the anchor
    return embed_convex_sink(T, min(sinks, default=0), S)
