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
subtree recurses into it anchored at a source.

Every intermediate block is a consecutive arc of the hull cycle; the
InternalNonConsecutiveResidual assertion enforces this at each residual step.
An explicit stack and a loop over residual steps replace recursion, so the
depth of the tree is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import digraph as dg
from . import geometry as geo
from .digraph import Digraph
from .errors import (InternalNonConsecutiveResidual, NotATree, NotConvex,
                     NotGeneralPosition, NotOneSided, NotSink, NotSource,
                     NotSwitchTree, SizeMismatch)
from .geometry import PointSet, Sidedness


@dataclass(frozen=True)
class Mapping:
    """Assignment of vertex indices to point indices."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(i, int) or i < 0 for i in self.assignment):
            raise ValueError("point indices must be non-negative integers")

    def __getitem__(self, v: int) -> int:
        return self.assignment[v]

    def __len__(self) -> int:
        return len(self.assignment)

    def to_labels(self, G: Digraph) -> dict[str, int]:
        return {G.vertices[v]: p for v, p in enumerate(self.assignment)}

    @classmethod
    def from_labels(cls, G: Digraph, d: dict[str, int]) -> "Mapping":
        missing = [lab for lab in G.vertices if lab not in d]
        if missing or len(d) != G.n:
            raise ValueError("mapping must assign every vertex exactly once")
        return cls(tuple(int(d[lab]) for lab in G.vertices))


class _Tree:
    """A tree rooted at r: arc-ordered children and subtree sizes, found in one
    iterative pass."""

    def __init__(self, G: Digraph, r: int):
        self.children: list[list[int]] = [[] for _ in range(G.n)]
        self.size = [1] * G.n
        parent = [-1] * G.n
        order = [r]
        for v in order:  # BFS: every vertex comes after its parent
            for w in G.adjacency[v]:
                if w != parent[v]:
                    parent[w] = v
                    self.children[v].append(w)
                    order.append(w)
        for v in reversed(order[1:]):
            self.size[parent[v]] += self.size[v]


def _embed_one_sided_block(tree: _Tree, v: int, block: list[int], first: int,
                           step: int, assign: list[int]) -> None:
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


class _ConvexEmbedder:
    def __init__(self, tree: _Tree, S: PointSet, assign: list[int]):
        self.tree = tree
        self.S = S
        self.assign = assign

    def _check_consecutive(self, block: list[int]) -> None:
        if not geo.is_consecutive(block, self.S):
            raise InternalNonConsecutiveResidual(
                "residual block is not a consecutive hull arc")

    def _normalize(self, blk: list[int]) -> list[int]:
        # the block's highest point must sit at an end; put it in front
        top_at = max(range(len(blk)), key=lambda k: self.S[blk[k]].y)
        if top_at == 0:
            return blk
        assert top_at == len(blk) - 1, "block top must lie at an end of the arc"
        return blk[::-1]

    def _greedy(self, v: int, blk: list[int], b_pos: int, v_source: bool):
        """Pack v's children onto the two chain runs; returns consumption and residual.

        A sink v holds the top point, so its runs start below it. Both runs
        list points top-down, which is anchor-first for the sink children of
        a source and must be reversed for the source children of a sink.
        """
        S, tree = self.S, self.tree
        runA = blk[0 if v_source else 1:b_pos]
        runB = blk[b_pos + 1:][::-1]
        # runA leads from the top toward the bottom, so it is the left chain
        # iff the block runs counterclockwise around the hull
        h = geo._homogeneous(S)
        ccw = len(blk) < 3 or geo._orient(h[blk[0]], h[blk[1]], h[blk[2]]) > 0
        left, right = (runA, runB) if ccw else (runB, runA)
        li = ri = 0
        residual = None
        for c in tree.children[v]:
            sz = tree.size[c]
            if residual is None and sz > len(left) - li:
                residual = c
                continue
            if residual is None:
                run, start = left, li
                li += sz
            else:
                assert sz <= len(right) - ri, "post-residual subtree overflows the right chain"
                run, start = right, ri
                ri += sz
            first, step = (start, 1) if v_source else (start + sz - 1, -1)
            _embed_one_sided_block(tree, c, run, first, step, self.assign)
        cA = li if left is runA else ri
        cB = ri if left is runA else li
        return cA, cB, residual

    def sink_block(self, v: int, blk: list[int]):
        """Embed the subtree at sink v into the consecutive block blk; v -> t(blk)."""
        S = self.S
        if len(blk) == 1:
            self.assign[v] = blk[0]
            return None
        blk = self._normalize(blk)
        self.assign[v] = blk[0]
        b_pos = min(range(len(blk)), key=lambda k: S[blk[k]].y)
        cA, cB, residual = self._greedy(v, blk, b_pos, v_source=False)
        assert residual is not None, "some subtree must spill into the residual block"
        sub = blk[1 + cA:len(blk) - cB]
        self._check_consecutive(sub)
        assert len(sub) == self.tree.size[residual]
        return self.source_block, residual, sub

    def source_block(self, v: int, blk: list[int]):
        """Embed the subtree at source v into blk; v ends at the bottom point or
        at the lower of the two leftover chain tops."""
        S = self.S
        if len(blk) == 1:
            self.assign[v] = blk[0]
            return None
        blk = self._normalize(blk)
        b_pos = min(range(len(blk)), key=lambda k: S[blk[k]].y)
        cA, cB, residual = self._greedy(v, blk, b_pos, v_source=True)
        sub = blk[cA:len(blk) - cB]
        if residual is None:
            assert sub == [blk[b_pos]], "exact greedy fill must leave only the bottom point"
            self.assign[v] = blk[b_pos]
            return None
        self._check_consecutive(sub)
        assert len(sub) == self.tree.size[residual] + 1
        j = sub.index(blk[b_pos])
        if j == 0 or j == len(sub) - 1:
            # leftovers on one y-monotone chain: anchor at the bottom, rest top first
            self.assign[v] = sub[j]
            first, step = (len(sub) - 1, -1) if j == 0 else (0, 1)
            _embed_one_sided_block(self.tree, residual, sub, first, step, self.assign)
            return None
        # leftovers on both chains: take the lower chain top, continue on the rest
        lo_end = 0 if S[sub[0]].y < S[sub[-1]].y else -1
        self.assign[v] = sub[lo_end]
        rest = sub[1:] if lo_end == 0 else sub[:-1]
        return self.sink_block, residual, rest


def _require_switch_tree(T: Digraph) -> None:
    try:
        ok = dg.is_switch_tree(T)
    except NotATree as exc:
        raise NotSwitchTree(str(exc)) from exc
    if not ok:
        raise NotSwitchTree("some vertex is neither a source nor a sink")


def _require_size(T: Digraph, S: PointSet) -> None:
    if T.n != len(S):
        raise SizeMismatch(f"{T.n} vertices vs {len(S)} points")


def _require_anchor(T: Digraph, r: int, sink: bool) -> None:
    if sink and T.out_neighbors[r]:
        raise NotSink(f"vertex {T.vertices[r]!r} has outgoing arcs")
    if not sink and T.in_neighbors[r]:
        raise NotSource(f"vertex {T.vertices[r]!r} has incoming arcs")


def _require_convex_general(S: PointSet) -> None:
    if not geo.is_general_position(S):
        raise NotGeneralPosition("point set is not in general position")
    if not geo._convex_including_small(S):
        raise NotConvex("point set is not in convex position")


def _embed_one_sided(T: Digraph, r: int, S: PointSet, sink: bool) -> Mapping:
    _require_switch_tree(T)
    _require_anchor(T, r, sink)
    _require_size(T, S)
    _require_convex_general(S)
    if len(S) >= 2 and geo.is_one_sided(S) is Sidedness.TWO_SIDED:
        raise NotOneSided("point set is two-sided")
    block = sorted(range(len(S)), key=lambda i: S[i].y, reverse=sink)
    assign = [-1] * T.n
    _embed_one_sided_block(_Tree(T, r), r, block, 0, 1, assign)
    return Mapping(tuple(assign))


def embed_one_sided_sink(T: Digraph, r: int, S: PointSet) -> Mapping:
    """Embed switch tree T into one-sided convex S with sink r on the top point."""
    return _embed_one_sided(T, r, S, sink=True)


def embed_one_sided_source(T: Digraph, r: int, S: PointSet) -> Mapping:
    """Embed switch tree T into one-sided convex S with source r on the bottom point."""
    return _embed_one_sided(T, r, S, sink=False)


def embed_convex_sink(T: Digraph, r: int, S: PointSet) -> Mapping:
    """Embed switch tree T into convex general-position S with sink r on the top point."""
    _require_switch_tree(T)
    _require_anchor(T, r, sink=True)
    _require_size(T, S)
    _require_convex_general(S)
    assign = [-1] * T.n
    if len(S) == 1:
        assign[r] = 0
        return Mapping(tuple(assign))
    hull = list(geo.convex_hull(S))
    top = max(range(len(S)), key=lambda i: S[i].y)
    k = hull.index(top)
    cycle = hull[k:] + hull[:k]
    step = _ConvexEmbedder(_Tree(T, r), S, assign).sink_block(r, cycle)
    while step is not None:  # each block returns its residual step, or None
        block, v, blk = step
        step = block(v, blk)
    assert assign[r] == top
    assert all(p >= 0 for p in assign) and len(set(assign)) == T.n
    return Mapping(tuple(assign))


def embed_switch_tree(T: Digraph, S: PointSet) -> Mapping:
    """Embed switch tree T into convex general-position S, anchoring some sink on top."""
    _, sinks = dg.sources_and_sinks(T)
    # embed_convex_sink validates T, once, before it looks at the anchor
    return embed_convex_sink(T, min(sinks, default=0), S)
