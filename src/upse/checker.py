"""Verification and exact decision of upward planar straight-line embeddings.

verify_upse checks a complete vertex-to-point assignment against the three
defining conditions: injectivity, every arc strictly rising in y, and no two
arc segments intersecting except at a shared endpoint. It also reports a
vertex point lying in the interior of some other arc's segment, which can
only happen off general position. All arithmetic is exact.

decide_upse is an exhaustive backtracking search. Points are consumed bottom
to top; a vertex may take the next point only once all its in-neighbors are
placed, which makes the upward condition hold by construction and leaves
planarity as the only thing to check per placement. On convex point sets and
tree inputs an additional pruning rule applies: removing any vertex splits
the tree into subtrees, and in every valid drawing each subtree occupies a
run of consecutive points along the hull cycle. A partial assignment that
cannot be extended to such runs is abandoned early. Each subtree keeps a
cached witness window; windows stay valid across backtracking, so they are
rechecked only when a new placement lands inside or outside them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import digraph as dg
from . import geometry as geo
from .digraph import Digraph
from .embedder import Mapping
from .errors import Cyclic, NotGeneralPosition, SizeMismatch
from .geometry import PointSet


class ViolationKind(Enum):
    NOT_INJECTIVE = "not_injective"
    ARC_NOT_UPWARD = "arc_not_upward"
    ARCS_CROSS = "arcs_cross"
    VERTEX_ON_ARC = "vertex_on_arc"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    subjects: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.detail}"


def verify_upse(G: Digraph, S: PointSet, m: Mapping) -> list[Violation]:
    """Return all violations of the drawing; an empty list means it is valid."""
    if len(m) != G.n:
        raise SizeMismatch(f"mapping covers {len(m)} of {G.n} vertices")
    if any(p >= len(S) for p in m.assignment):
        raise SizeMismatch("mapping refers to a point index out of range")
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

    for a, (t, h) in enumerate(G.arcs):
        if not S[m[h]].y > S[m[t]].y:
            out.append(Violation(
                ViolationKind.ARC_NOT_UPWARD, (a,),
                f"arc {G.vertices[t]!r}->{G.vertices[h]!r} does not rise"))

    segs = [(m[t], m[h]) for t, h in G.arcs]
    for i in range(len(segs)):
        pi, qi = segs[i]
        if pi == qi:
            continue
        for j in range(i + 1, len(segs)):
            pj, qj = segs[j]
            if pj == qj:
                continue
            if geo.segments_cross(S[pi], S[qi], S[pj], S[qj]):
                ti, hi = G.arcs[i]
                tj, hj = G.arcs[j]
                out.append(Violation(
                    ViolationKind.ARCS_CROSS, (i, j),
                    f"arcs {G.vertices[ti]!r}->{G.vertices[hi]!r} and "
                    f"{G.vertices[tj]!r}->{G.vertices[hj]!r} cross"))

    for v, p in enumerate(m.assignment):
        for a, (pi, qi) in enumerate(segs):
            if p == pi or p == qi or pi == qi:
                continue
            if geo.orientation(S[pi], S[qi], S[p]) is geo.Orientation.COLLINEAR \
                    and geo._on_segment(S[pi], S[qi], S[p]):
                t, h = G.arcs[a]
                out.append(Violation(
                    ViolationKind.VERTEX_ON_ARC, (v, a),
                    f"vertex {G.vertices[v]!r} lies on arc "
                    f"{G.vertices[t]!r}->{G.vertices[h]!r}"))
    return out


@dataclass(frozen=True)
class SolverOptions:
    use_consecutive_pruning: bool = True
    node_budget: int | None = None


@dataclass(frozen=True)
class DecideResult:
    result: str  # "embeddable" | "not_embeddable" | "budget_exhausted"
    mapping: Mapping | None
    nodes_explored: int


class _Budget(Exception):
    pass


def _orientation_table(S: PointSet):
    """sign(orient(i,j,k)) for point index triples, via integer homogeneous coords."""
    n = len(S)
    hom = []
    for p in S.points:
        w = p.x.denominator * p.y.denominator
        hom.append((p.x.numerator * p.y.denominator,
                    p.y.numerator * p.x.denominator, w))

    def det(i: int, j: int, k: int) -> int:
        xi, yi, wi = hom[i]
        xj, yj, wj = hom[j]
        xk, yk, wk = hom[k]
        d = ((xj * wi - xi * wj) * (yk * wi - yi * wk)
             - (yj * wi - yi * wj) * (xk * wi - xi * wk))
        return (d > 0) - (d < 0)

    if n <= 24:
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    table[i][j][k] = det(i, j, k)
        return lambda i, j, k: table[i][j][k]

    cache: dict[tuple[int, int, int], int] = {}

    def lookup(i: int, j: int, k: int) -> int:
        key = (i, j, k)
        got = cache.get(key)
        if got is None:
            got = cache[key] = det(i, j, k)
        return got

    return lookup


class _WindowPruner:
    """Consecutive-run feasibility for every split of a tree at a vertex."""

    def __init__(self, G: Digraph, S: PointSet):
        n = G.n
        hull = geo.convex_hull(S)
        self.pos = [0] * n
        for where, p in enumerate(hull):
            self.pos[p] = where
        self.n = n
        # window_mask[size][start]: size consecutive hull positions from start
        full = (1 << n) - 1
        self.wmask = [[0] * n for _ in range(n + 1)]
        for size in range(1, n + 1):
            base = (1 << size) - 1
            for start in range(n):
                m = (base << start) & full | (base >> (n - start))
                self.wmask[size][start] = m
        self.group: list[dict[int, int]] = [dict() for _ in range(n)]
        self.sizes: list[list[int]] = [[] for _ in range(n)]
        for u in range(n):
            parts = dg.decompose_at(G, u).subtrees
            self.sizes[u] = [len(t.vertices) for t in parts]
            for i, t in enumerate(parts):
                for v in t.vertices:
                    self.group[u][v] = i
        self.own = [[0] * len(self.sizes[u]) for u in range(n)]
        self.placed_all = 0
        self.witness = [[0] * len(self.sizes[u]) for u in range(n)]

    def _ok(self, u: int, i: int) -> bool:
        own = self.own[u][i]
        others = self.placed_all & ~own
        size = self.sizes[u][i]
        wm = self.wmask[size]
        w = wm[self.witness[u][i]]
        if own & ~w == 0 and others & w == 0:
            return True
        for start in range(self.n):
            w = wm[start]
            if own & ~w == 0 and others & w == 0:
                self.witness[u][i] = start
                return True
        return False

    def place(self, v: int, p: int) -> bool:
        """Record v at point p; report whether every split stays feasible."""
        bit = 1 << self.pos[p]
        self.placed_all |= bit
        for u in range(self.n):
            if u == v:
                continue
            self.own[u][self.group[u][v]] |= bit
        ok = True
        for u in range(self.n):
            if u == v:
                for i in range(len(self.sizes[u])):
                    if not self._ok(u, i):
                        ok = False
                        break
            elif not self._ok(u, self.group[u][v]):
                ok = False
            if not ok:
                break
        return ok

    def unplace(self, v: int, p: int) -> None:
        bit = 1 << self.pos[p]
        self.placed_all &= ~bit
        for u in range(self.n):
            if u != v:
                self.own[u][self.group[u][v]] &= ~bit


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

    order = sorted(range(n), key=lambda p: S[p].y)
    orient = _orientation_table(S)

    pruner = None
    if opts.use_consecutive_pruning and n >= 3 \
            and dg.underlying_is_tree(G) and geo.is_convex_position(S):
        pruner = _WindowPruner(G, S)

    # static fail-first candidate order: many satisfied in-arcs first
    by_pressure = sorted(range(n), key=lambda v: (-len(G.in_neighbors[v]), v))

    point_of = [-1] * n
    remaining_in = [len(G.in_neighbors[v]) for v in range(n)]
    segs: list[tuple[int, int]] = []
    nodes = 0
    budget = opts.node_budget

    def crosses_existing(a: int, b: int) -> bool:
        for c, d in segs:
            if a == c or a == d or b == c or b == d:
                continue
            if orient(a, b, c) != orient(a, b, d) and \
                    orient(c, d, a) != orient(c, d, b):
                return True
        return False

    def dfs(k: int) -> bool:
        nonlocal nodes
        if k == n:
            return True
        q = order[k]
        for v in by_pressure:
            if point_of[v] >= 0 or remaining_in[v]:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise _Budget
            new = [(point_of[u], q) for u in G.in_neighbors[v]]
            if any(crosses_existing(a, b) for a, b in new):
                continue
            point_of[v] = q
            for w in G.out_neighbors[v]:
                remaining_in[w] -= 1
            segs.extend(new)
            feasible = pruner.place(v, q) if pruner is not None else True
            if feasible and dfs(k + 1):
                return True
            if pruner is not None:
                pruner.unplace(v, q)
            del segs[len(segs) - len(new):]
            for w in G.out_neighbors[v]:
                remaining_in[w] += 1
            point_of[v] = -1
        return False

    try:
        found = dfs(0)
    except _Budget:
        return DecideResult("budget_exhausted", None, nodes)

    if not found:
        return DecideResult("not_embeddable", None, nodes)
    m = Mapping(tuple(point_of))
    bad = verify_upse(G, S, m)
    if bad:
        raise RuntimeError(f"solver produced an invalid drawing: {bad[0]}")
    return DecideResult("embeddable", m, nodes)
