"""Verification and exact decision of upward planar straight-line embeddings.

verify_upse checks a complete vertex-to-point assignment against the three
defining conditions: injectivity, every arc strictly rising in y, and no two
arc segments intersecting except at a shared endpoint. It also reports a
vertex point lying in the interior of some other arc's segment, which can
only happen off general position. All arithmetic is exact, on geometry's
homogeneous integers, and geometry does all of it: this module asks it for
sides, rises, crossings and exact (y, x) keys and never reads a coordinate.

verify_upse reads each arc once, as a segment from its lower end up (a
falling arc from its head). A drawing with two vertices on one point or an
arc between equal heights is never valid and goes straight to the pairwise
loops, which test every pair of arcs and every vertex against every arc, in
O(m^2 + n m). Any other drawing is swept: crossings come from one
Bentley-Ottmann sweep upward through the points, O((n + m + k) log(n + m))
predicate tests for n vertices, m arcs and k crossings (the status is a
Python list, so each insertion also shifts up to m references). A drawing
the sweep meets but does not handle (a vertex inside an arc, arcs that touch
or overlap, three arcs through one crossing) is never valid either, and goes
to the pairwise loops too. The list is the same either way: crossing pairs in
(i, j) order, then (vertex, arc) pairs.

decide_upse is an exhaustive backtracking search. Points are consumed bottom
to top; a vertex may take the next point only once all its in-neighbors are
placed, which makes the upward condition hold by construction and leaves
planarity as the only thing to check per placement. The ready vertices are
one bit mask over a fixed fail-first order (most in-arcs first), updated as
vertices are placed and removed, so each depth steps straight to its next
ready candidate. The search runs from one explicit stack, the rank and the
arc ids of the vertex placed at each depth, so its depth is not bounded by
Python's recursion limit and a backtrack undoes its arcs with one xor; a node
budget counts exactly the nodes explored.

The planarity check is a memo that grows with the arcs actually drawn. Each
point pair (a, q) that is tested keeps the bit mask of the points strictly
left of a -> q; in general position no point lies on the line through two
others, so two arcs with four distinct ends cross iff each one's mask
separates the other's ends. A pair gets a dense id where it is tested, when
its arc first passes, and the arcs on the stack are one mask of ids. Each
tested pair also keeps the ids already tested against it and those among
them that cross it, so a placement tests only the drawn ids that are new to
its pair, and fails iff a drawn id crosses. No drawn arc is tested against a
pair twice; an id enters the mask only with its arc, so the ids of pairs
whose vertex then fails are never tested.

On convex point sets and tree inputs an additional pruning rule applies:
removing a tree edge splits the tree into two sides, and in every valid
drawing each side occupies a window, a run of consecutive points along the
hull cycle, of its own size. The positions are those of the one hull cycle
the point set caches (geometry._cycle), which starts at the top point.
Points are filled bottom to top, so the placed points are always the k
lowest: on a convex set, one run of that cycle around the bottom point,
which never wraps since the cycle starts at the top. A side whose placed
points form one run fits a window holding no other placed point iff they
are the whole side, or they are empty or reach an end of the placed run:
the free points beyond that end always make up the rest, since the other
side's placed vertices number at most its size. The two sides of an edge
fit complementary windows, so both fit or neither does, and a side whose
placed points are not one run is tested through the other side. With the
tree rooted once, each edge keeps its child side's placed positions as one
bit mask, and a placement costs one O(1) test per edge.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import cmp_to_key
from heapq import heappop, heappush
from typing import NamedTuple

from . import digraph as dg
from . import geometry as geo
from ._record import Record
from .digraph import Digraph
from .embedder import Mapping
from .errors import Cyclic, NotGeneralPosition, SizeMismatch
from .geometry import PointSet


class ViolationKind(Enum):
    NOT_INJECTIVE = "not_injective"
    ARC_NOT_UPWARD = "arc_not_upward"
    ARCS_CROSS = "arcs_cross"
    VERTEX_ON_ARC = "vertex_on_arc"


class Violation(NamedTuple):
    kind: ViolationKind
    subjects: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.detail}"


def verify_upse(G: Digraph, S: PointSet, m: Mapping) -> list[Violation]:
    """Return all violations of the drawing; an empty list means it is valid."""
    m.require_fit(G, S)
    out: list[Violation] = []

    seen: dict[int, int] = {}
    for v, p in enumerate(m.assignment):
        if p in seen:
            out.append(Violation(
                ViolationKind.NOT_INJECTIVE, (seen[p], v),
                f"vertices {G.vertices[seen[p]]!r} and {G.vertices[v]!r} "
                f"share point {p}"))
        else:
            seen[p] = v

    # each arc as a segment from its lower end up; a falling arc is swept from
    # its head, and an arc between equal heights is flat
    H = S._hom
    lower, upper, flat = [], [], False
    for a, (t, h) in enumerate(G.arcs):
        p, q = m[t], m[h]
        rise = geo._rise(H[p], H[q])
        if rise <= 0:
            out.append(Violation(
                ViolationKind.ARC_NOT_UPWARD, (a,),
                f"arc {G.vertices[t]!r}->{G.vertices[h]!r} does not rise"))
            flat = flat or not rise
            p, q = q, p
        lower.append(p)
        upper.append(q)

    try:
        if flat or len(seen) < G.n:  # never valid, and not for the sweep
            raise _Degenerate
        crossings, on_arc = _sweep_crossings(S, m.assignment, lower, upper), []
    except _Degenerate:
        crossings, on_arc = _pairwise(S, m.assignment, list(zip(lower, upper)))
    for i, j in crossings:
        ti, hi = G.arcs[i]
        tj, hj = G.arcs[j]
        out.append(Violation(
            ViolationKind.ARCS_CROSS, (i, j),
            f"arcs {G.vertices[ti]!r}->{G.vertices[hi]!r} and "
            f"{G.vertices[tj]!r}->{G.vertices[hj]!r} cross"))
    for v, a in on_arc:
        t, h = G.arcs[a]
        out.append(Violation(
            ViolationKind.VERTEX_ON_ARC, (v, a),
            f"vertex {G.vertices[v]!r} lies on arc "
            f"{G.vertices[t]!r}->{G.vertices[h]!r}"))
    return out


class _Degenerate(Exception):
    """The sweep met a drawing it does not handle, never a valid one;
    verify_upse then tests every pair instead."""


def _sweep_crossings(S: PointSet, points: tuple[int, ...], lower: list[int],
                     upper: list[int]) -> list[tuple[int, int]]:
    """Every pair i < j of crossing segments lower[i] -> upper[i], sorted: a
    Bentley-Ottmann sweep upward through the points in (y, x) order. The
    caller guarantees distinct points and strictly rising segments.

    The status lists the segments met by the sweep line from left to right.
    Each point removes the segments that end there and inserts, sorted by
    direction, those that start there; segments that become neighbours are
    tested, and a proper crossing becomes an event at its exact homogeneous
    point, keyed by its geo._yx, where the two swap. Each segment's line is
    computed once, as geo._wedge of its lower and upper end, so a side test
    is one geo._side, the sign of one 3-term dot product, which equals the
    orientation determinant exactly.
    Raises _Degenerate on two segments leaving one point along one line, a
    point inside a segment, neighbours that touch or overlap, or three
    segments through one crossing.
    """
    H, side = S._hom, geo._side
    starts: dict[int, list[int]] = {p: [] for p in points}
    for i, p in enumerate(lower):
        starts[p].append(i)

    # side(lines[i], r) is -1 when segment i passes left of r, 0 through
    # it, 1 right of it
    lines = [geo._wedge(H[p], H[q]) for p, q in zip(lower, upper)]

    def by_direction(i: int, j: int) -> int:
        # two segments leaving one point, left to right above it
        s = side(lines[i], H[upper[j]])
        if not s:
            raise _Degenerate
        return s

    status: list[int] = []
    events: list = []  # crossings ahead: ((y, x), left arc, right arc, point)
    crossings: set[tuple[int, int]] = set()

    def test(k: int) -> None:
        # schedule the crossing of neighbours status[k - 1] and status[k], if any
        if not 0 < k < len(status):
            return
        i, j = status[k - 1], status[k]
        a, b, c, d = lower[i], upper[i], lower[j], upper[j]
        if a == c or a == d or b == c or b == d:
            return
        li, lj = lines[i], lines[j]
        s1, s2, s3, s4 = side(lj, H[a]), side(lj, H[b]), side(li, H[c]), side(li, H[d])
        if s1 * s2 > 0 or s3 * s4 > 0:
            return
        if not (s1 and s2 and s3 and s4):
            raise _Degenerate
        pair = (i, j) if i < j else (j, i)
        if pair not in crossings:
            crossings.add(pair)
            X = geo._meet(H[a], H[b], H[c], H[d])
            heappush(events, (geo._yx(X), i, j, X))

    def cross(i: int, j: int, X: geo.Hom) -> None:
        lo = bisect_left(status, 0, key=lambda s: side(lines[s], X))
        if status[lo:lo + 2] != [i, j] or \
                lo + 2 < len(status) and not side(lines[status[lo + 2]], X):
            raise _Degenerate
        status[lo:lo + 2] = j, i
        test(lo)
        test(lo + 2)

    for p in geo._by_y(S):
        if p not in starts:
            continue
        while events and events[0][0] < geo._yx(H[p]):
            cross(*heappop(events)[1:])
        r = H[p]
        lo = hi = bisect_left(status, 0, key=lambda s: side(lines[s], r))
        while hi < len(status) and not side(lines[status[hi]], r):
            if upper[status[hi]] != p:
                raise _Degenerate
            hi += 1
        new = starts[p]
        if len(new) > 1:
            new.sort(key=cmp_to_key(by_direction))
        status[lo:hi] = new
        for k in {lo, lo + len(new)}:
            test(k)
    return sorted(crossings)


def _pairwise(S: PointSet, points: tuple[int, ...], segs: list[tuple[int, int]]):
    """The crossing pairs and the (vertex, arc) pairs of a vertex inside an
    arc, by testing every pair: O(m^2 + n m), for drawings the sweep rejects."""
    H = S._hom
    crossings, on_arc = [], []
    for i in range(len(segs)):
        pi, qi = segs[i]
        if pi == qi:
            continue
        for j in range(i + 1, len(segs)):
            pj, qj = segs[j]
            if pj == qj:
                continue
            if geo._segments_cross(H[pi], H[qi], H[pj], H[qj]):
                crossings.append((i, j))
    for v, p in enumerate(points):
        for a, (pi, qi) in enumerate(segs):
            if p == pi or p == qi or pi == qi:
                continue
            if geo._orient(H[pi], H[qi], H[p]) == 0 \
                    and geo._on_segment(H[pi], H[qi], H[p]):
                on_arc.append((v, a))
    return crossings, on_arc


class SolverOptions(Record):
    __slots__ = ("use_consecutive_pruning", "node_budget")

    def __init__(self, use_consecutive_pruning: bool = True,
                 node_budget: int | None = None):
        self._init(use_consecutive_pruning, node_budget)
        # a bool is an int to isinstance, and a fractional budget never runs out
        b = self.node_budget
        if b is not None and (not isinstance(b, int) or isinstance(b, bool) or b < 0):
            raise ValueError(f"node budget must be a non-negative integer, got {b!r}")


class DecideResult(NamedTuple):
    result: str  # "embeddable" | "not_embeddable" | "budget_exhausted"
    mapping: Mapping | None
    nodes_explored: int


def decide_upse(G: Digraph, S: PointSet,
                options: SolverOptions | None = None) -> DecideResult:
    """Exhaustively decide whether G admits an upward planar straight-line
    embedding into S, returning a drawing when one exists."""
    opts = options or SolverOptions()
    n = G.n
    if n != len(S):
        raise SizeMismatch(f"{n} vertices vs {len(S)} points")
    if not geo.is_general_position(S):
        raise NotGeneralPosition("decision procedure requires general position")
    try:
        dg.topological_order(G)
    except Cyclic:
        return DecideResult("not_embeddable", None, 0)

    order = geo._by_y(S)
    H, left_mask = S._hom, geo._left_mask

    # the window rule: rooted at vertex 0, each other vertex w stands for the
    # edge to its parent, and own[w] holds the positions on the hull cycle
    # (geo._cycle, from the top point) of the placed vertices under it;
    # below[k] holds those of the k lowest points
    tree = opts.use_consecutive_pruning and n >= 3 and dg._rooted(G, 0)
    pruned = bool(tree) and geo.is_convex_position(S)
    if pruned:
        bit = [0] * n
        for where, p in enumerate(geo._cycle(S)[0]):
            bit[p] = 1 << where
        below = [0]
        for p in order:
            below.append(below[-1] | bit[p])
        parent, own = tree.parent, [0] * n
        edges = [(w, tree.size[w]) for w in tree.order[1:]]

        def flip(v: int, p: int) -> None:
            # v at point p enters or leaves its side and every side above it
            b = bit[p]
            while v >= 0:
                own[v] ^= b
                v = parent[v]

        def fits(k: int) -> bool:
            # whether, with k points placed, each edge has a side whose placed
            # points form one run that is empty, the whole side, or at an end
            # of the placed run
            placed = below[k]
            ends = placed & -placed | 1 << placed.bit_length() - 1
            for w, size in edges:
                a = own[w]
                if a + (a & -a) & a:  # not one run: the other side is one
                    # In every state the search reaches, each edge has a
                    # side whose placed points form one run. By induction:
                    # the new point extends the placed run at one end, E. A
                    # side that gains it and was empty, or one run reaching
                    # E, is still one run; else if the other side was one
                    # run, it did not change. Else the gaining side was the
                    # one run that fit, not complete (it gains a point) and
                    # not reaching E, so it reached the other end, and the
                    # other side was one run after all.
                    a, size = placed ^ a, n - size
                if a and not a & ends and a.bit_count() != size:
                    return False
            return True

    # static fail-first candidate order: many satisfied in-arcs first; the
    # ready vertices (unplaced, every in-neighbor placed) are one mask over
    # the ranks in this order
    by_pressure = sorted(range(n), key=lambda v: (-len(G.in_neighbors[v]), v))
    in_nb, out_nb = G.in_neighbors, G.out_neighbors
    rank = [0] * n
    for r, v in enumerate(by_pressure):
        rank[v] = r
    ready = sum(1 << rank[v] for v in range(n) if not in_nb[v])

    # memo[a * n + q] for each tested point pair (a, q): [its side mask, the
    # arc ids still open against it (untested, or known to cross it), those
    # known to cross it, its own id or -1]. A pair gets the next id when its
    # arc first passes the crossing test; ends[id] = (id, a, q, side mask),
    # and drawn holds the ids of the arcs on the stack
    memo: dict[int, list[int]] = {}
    ends: list[tuple[int, int, int, int]] = []
    drawn = 0

    point_of = [-1] * n
    remaining_in = [len(in_nb[v]) for v in range(n)]
    nodes = 0
    budget = -1 if opts.node_budget is None else opts.node_budget

    def arcs_into(v: int, q: int, drawn: int) -> int:
        # the ids of the arcs into v at point q, or -1 if one of them crosses
        # a drawn arc; a drawn id is tested against a pair at most once, and
        # a pair is named when its arc first passes
        ids = 0
        for u in in_nb[v]:
            a = point_of[u]
            e = memo.get(a * n + q)
            if e is None:
                e = memo[a * n + q] = [left_mask(H, a, q), -1, 0, -1]
            if fresh := e[1] & drawn:
                if e[2] & drawn:
                    return -1
                aq, rest = e[0], fresh
                while rest:  # one run of consecutive untested ids at a time
                    low = rest & -rest
                    run = rest + low
                    rest &= run
                    for j, c, d, cd in ends[low.bit_length() - 1:
                                             (run & -run).bit_length() - 1]:
                        # q is not drawn yet, so only a can be a shared end;
                        # general position (checked above) makes one bit per
                        # end exact
                        if a != c and a != d and (aq >> c ^ aq >> d) & 1 \
                                and (cd >> a ^ cd >> q) & 1:
                            # ids run upward: those below j are tested
                            # now, and j stays open as a crossing
                            e[1] ^= fresh & ((1 << j) - 1)
                            e[2] |= 1 << j
                            return -1
                e[1] ^= fresh
            if e[3] < 0:
                e[3] = len(ends)
                ends.append((e[3], a, q, e[0]))
            ids |= 1 << e[3]
        return ids

    # an explicit stack: the rank and the arc ids of the vertex placed on each
    # of the lowest points so far; r is the rank last tried on the next point
    stack: list[tuple[int, int]] = []
    r = -1
    while len(stack) < n:
        q = order[len(stack)]
        while above := ready >> (r + 1):  # the next ready vertex by rank
            r += (above & -above).bit_length()
            v = by_pressure[r]
            if nodes == budget:
                return DecideResult("budget_exhausted", None, nodes)
            nodes += 1
            if (ids := arcs_into(v, q, drawn)) < 0:
                continue
            # the window rule reads only its own state: ask it before drawing
            if pruned:
                flip(v, q)
                if not fits(len(stack) + 1):
                    flip(v, q)
                    continue
            drawn |= ids
            point_of[v] = q
            ready ^= 1 << r
            for w in out_nb[v]:
                remaining_in[w] -= 1
                if not remaining_in[w]:
                    ready |= 1 << rank[w]
            stack.append((r, ids))
            r = -1
            break
        else:  # every candidate failed: backtrack one point
            if not stack:
                return DecideResult("not_embeddable", None, nodes)
            r, ids = stack.pop()
            v = by_pressure[r]
            if pruned:
                flip(v, point_of[v])
            drawn ^= ids
            for w in out_nb[v]:
                if not remaining_in[w]:
                    ready ^= 1 << rank[w]
                remaining_in[w] += 1
            ready |= 1 << r
            point_of[v] = -1

    memo.clear()  # free the search's memory before the final check
    m = Mapping(tuple(point_of))
    bad = verify_upse(G, S, m)
    if bad:
        raise RuntimeError(f"solver produced an invalid drawing: {bad[0]}")
    return DecideResult("embeddable", m, nodes)
