"""Named instance families: non-embeddable tree/point-set pairs and the
3-Partition reduction gadget.

The counterexample family pairs a (3n+1)-vertex tree made of three monotone
paths hanging off a junction vertex with a convex point set whose left and
right sides interleave in y. The generalized family keeps the underlying
shape but reorients the path arcs so the longest directed path has a chosen
length k; its first two arcs per path are fixed, the rest follow a canonical
zigzag of maximal runs of length k.

The reduction gadget turns a 3-Partition instance (bound B, 3m items with
B/4 < a < B/2) into a single-source digraph and a point set of matching size
m(B+1)+2 such that upward planar embeddability of the one into the other is
equivalent to solvability of the instance. Both reduction directions are
provided: packing a known partition into a drawing, and reading a partition
back out of a drawing in which every item's path lies inside one group. The
packed drawings have that layout; other valid drawings, such as the ones the
exact solver may return, need not have it, and are not decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geo
from .checker import verify_upse
from .digraph import Digraph, longest_directed_path_length
from .embedder import Mapping
from .errors import (BadN, BadParameters, ExtractionFailed, InvalidInstance,
                     InvalidSolution, NotAValidUPSE, NotConvex,
                     NotGeneralPosition, PropertyCheckFailed)
from .geometry import Point, PointSet, Sidedness, pt


def _require_odd_n(n) -> None:
    # type, not isinstance: a bool is an int to isinstance
    if type(n) is not int or n < 5 or n % 2 == 0:
        raise BadN(f"n must be an odd integer >= 5, got {n!r}")


def gen_binucci_tree(n: int) -> Digraph:
    """The (3n+1)-vertex tree with paths P_u reversed, P_v and P_w forward,
    joined at r by arcs r->u1, v1->r, w1->r: the k-switch member with k = n-1.
    Requires odd n >= 5."""
    _require_odd_n(n)
    return gen_kswitch_tree(n, n - 1)


def gen_binucci_pointset(n: int) -> PointSet:
    """The (3n+1)-point convex set with sides of size (3n-1)/2 interleaved as
    y(b) < y(r1) < y(l1) < y(r2) < ... < y(t). Points sit on the rational
    unit circle; order is b, r1, l1, r2, l2, ..., t. Requires odd n >= 5."""
    _require_odd_n(n)
    half = (3 * n - 1) // 2
    points = [pt(0, -1)]
    for i in range(1, 2 * half + 1):
        s = Fraction(2 * i - 2 * half - 1, 2 * half + 1)
        x = (1 - s * s) / (1 + s * s)
        y = 2 * s / (1 + s * s)
        points.append(Point(x if i % 2 == 1 else -x, y))
    points.append(pt(0, 1))
    return PointSet(points)


def gen_kswitch_tree(n: int, k: int) -> Digraph:
    """A canonical member of the k-switch family on 3n+1 vertices: same shape
    as the counterexample tree, with each path's arcs laid out in alternating
    monotone runs of length k. P_u starts with u3->u2->u1; P_v and P_w start
    with v1->v2->v3 and w1->w2->w3. Requires n >= 5 and 2 <= k <= n-1."""
    # type, not isinstance: a bool is an int to isinstance
    if type(n) is not int or n < 5:
        raise BadParameters(f"n must be an integer >= 5, got {n!r}")
    if type(k) is not int or not 2 <= k <= n - 1:
        raise BadParameters(f"k must be an integer with 2 <= k <= n-1, got k={k!r}, n={n}")

    def path_arcs(prefix: str, start_backward: bool) -> list[tuple[str, str]]:
        out = []
        for j in range(1, n):
            backward = start_backward == (((j - 1) // k) % 2 == 0)
            a, b = f"{prefix}{j}", f"{prefix}{j + 1}"
            out.append((b, a) if backward else (a, b))
        return out

    vertices = ["r"]
    vertices += [f"u{i}" for i in range(1, n + 1)]
    vertices += [f"v{i}" for i in range(1, n + 1)]
    vertices += [f"w{i}" for i in range(1, n + 1)]
    arcs = path_arcs("u", True) + path_arcs("v", False) + path_arcs("w", False)
    arcs += [("r", "u1"), ("v1", "r"), ("w1", "r")]
    G = Digraph.from_labels(vertices, arcs)

    got = longest_directed_path_length(G)
    if got != k:
        raise PropertyCheckFailed(f"canonical member has longest path {got}, wanted {k}")
    return G


@dataclass(frozen=True)
class PartitionInstance:
    """3-Partition instance: bound B and 3m items with B/4 < a < B/2."""

    B: int
    A: tuple[int, ...]

    def __post_init__(self):
        # a tuple keeps the frozen instance hashable
        object.__setattr__(self, "A", tuple(self.A))
        # a bool is an int to isinstance, and would serialize as true
        if not isinstance(self.B, int) or isinstance(self.B, bool) or self.B <= 0:
            raise InvalidInstance("B must be a positive integer")
        if len(self.A) == 0 or len(self.A) % 3 != 0:
            raise InvalidInstance("A must hold 3m items for some m >= 1")
        for a in self.A:
            if not isinstance(a, int) or isinstance(a, bool) or a <= 0:
                raise InvalidInstance("items must be positive integers")
            if not (4 * a > self.B and 2 * a < self.B):
                raise InvalidInstance(f"item {a} violates B/4 < a < B/2 for B={self.B}")
        if sum(self.A) != self.m * self.B:
            raise InvalidInstance(f"items sum to {sum(self.A)}, expected m*B = {self.m * self.B}")

    @property
    def m(self) -> int:
        return len(self.A) // 3


@dataclass(frozen=True)
class PartitionSolution:
    """m disjoint index triples into A, each selecting items summing to B."""

    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        # tuples keep the frozen solution hashable
        try:
            sets = tuple(map(tuple, self.sets))
        except TypeError:
            sets = None
        if sets is None or any(len(triple) != 3 for triple in sets):
            raise InvalidSolution("each entry must be a triple of item indices")
        object.__setattr__(self, "sets", sets)

    def check_against(self, inst: PartitionInstance) -> None:
        if len(self.sets) != inst.m:
            raise InvalidSolution(f"expected {inst.m} triples, got {len(self.sets)}")
        flat = [i for triple in self.sets for i in triple]
        # type, not isinstance: True would be read as item 1
        if any(type(i) is not int for i in flat) or sorted(flat) != list(range(3 * inst.m)):
            raise InvalidSolution("triples must partition the item indices")
        for triple in self.sets:
            total = sum(inst.A[i] for i in triple)
            if total != inst.B:
                raise InvalidSolution(f"triple {triple} sums to {total}, expected {inst.B}")


@dataclass(frozen=True)
class GadgetInstance:
    """Reduction gadget: graph, point set, and the group structure of the points."""

    instance: PartitionInstance
    graph: Digraph
    points: PointSet
    groups: tuple[tuple[int, ...], ...]
    b_index: int
    t_index: int

    def top_of_group(self, i: int) -> int:
        """Point index of t(C_i), 1-based group number."""
        # type, not isinstance: True would be read as group 1; and 0 would
        # alias the last group
        if type(i) is not int or not 1 <= i <= len(self.groups):
            raise ValueError(f"group number {i!r} is not in 1..{len(self.groups)}")
        return self.groups[i - 1][-1]


def _sidedness_or_fail(sub: PointSet, what: str) -> Sidedness:
    # is_one_sided presupposes convex position; a violation is our failure too
    try:
        return geo.is_one_sided(sub)
    except (NotConvex, NotGeneralPosition) as exc:
        raise PropertyCheckFailed(f"{what}: {exc}") from exc


def _extends_general_position(placed_h: list[geo.Hom], cand: list[tuple]) -> bool:
    """Whether the general-position points with homogeneous coordinates
    placed_h stay in general position with the (x, y) pairs cand added, given
    that no y of cand is a placed y: no two ys of cand repeat, and no triple
    through a point of cand is collinear. gen_gadget passes ints only, so no
    Fraction is compared; rational pairs give the same answer."""
    return len({y for _, y in cand}) == len(cand) and \
        geo._no_collinear_triple(placed_h + [geo._hom(p) for p in cand], len(placed_h))


def _check_gadget_points(points: PointSet, groups, b_index: int, t_index: int) -> None:
    # the five structural properties; each failure falsifies the coordinate formula
    b, t = points[b_index], points[t_index]
    h = points._hom
    hb, ht = h[b_index], h[t_index]
    m = len(groups)
    if not geo.is_general_position(points):
        raise PropertyCheckFailed("gadget points not in general position")
    # the ys are distinct now, so b and t must end the order, and a group is
    # above another iff its positions in the order are
    order = geo._by_y(points)
    if order[0] != b_index or order[-1] != t_index:
        raise PropertyCheckFailed("extremes are not extremal")
    rank = {p: r for r, p in enumerate(order)}
    for gi, grp in enumerate(groups, 1):
        sub = PointSet([points[i] for i in grp] + [b, t])
        if _sidedness_or_fail(sub, f"C_{gi} with extremes") is not Sidedness.LEFT_HEAVY:
            raise PropertyCheckFailed(f"C_{gi} with extremes is not left-heavy")
    for gi in range(m - 1):
        if not min(rank[i] for i in groups[gi + 1]) > max(rank[i] for i in groups[gi]):
            raise PropertyCheckFailed(f"C_{gi + 2} is not entirely above C_{gi + 1}")
    # b and t are extremal: l_i runs up from b to the top of C_i, f_i up from
    # that top to t, and geo._side is 1 for a point left of a line
    for gi, grp in enumerate(groups, 1):
        top = h[grp[-1]]
        l_i, f_i = geo._wedge(hb, top), geo._wedge(top, ht)
        for gj, other in enumerate(groups, 1):
            for idx in other:
                if idx == grp[-1]:
                    continue
                side = geo._side(l_i, h[idx])
                if gj <= gi and side <= 0:
                    raise PropertyCheckFailed(
                        f"point {idx} of C_{gj} is not left of line l_{gi}")
                if gj > gi and side >= 0:
                    raise PropertyCheckFailed(
                        f"point {idx} of C_{gj} is not right of line l_{gi}")
                if gj >= gi and geo._side(f_i, h[idx]) >= 0:
                    raise PropertyCheckFailed(
                        f"point {idx} of C_{gj} is not right of line f_{gi}")
    if m >= 2:
        tops = PointSet([points[grp[-1]] for grp in groups])
        if _sidedness_or_fail(tops, "group tops") is not Sidedness.LEFT_HEAVY:
            raise PropertyCheckFailed("group tops are not a left-heavy set")


def _gadget_base_layout(B: int, m: int):
    """gadget_base_points as (x, y) pairs of ints."""
    groups = []
    for g in range(1, m + 1):
        off = (m - g) * (B + 2)
        groups.append([(-j - off, j * j - off * off) for j in range(1, B + 2)])
    b = (-(B + 1) ** 2 + ((m - 1) * (B + 2)) ** 2,
         (B + 1) ** 2 - (m * (B + 2)) ** 2)
    t = (0, (m * (B + 2)) ** 2)
    return groups, b, t


def gadget_base_points(B: int, m: int):
    """The raw quadratic layout: m parabolic groups plus the two extremes,
    as Points; gen_gadget reads the same layout as ints.

    Returns (groups, b, t) where groups[g-1] lists the B+1 points of C_g in
    ascending y. Group C_{m-i} holds the points (-j - i(B+2), j^2 - (i(B+2))^2)
    for j = 1..B+1; the extremes are b = (-(B+1)^2 + ((m-1)(B+2))^2,
    (B+1)^2 - (m(B+2))^2) and t = (0, (m(B+2))^2).

    This layout is the documented coordinate formula, kept verbatim for spot
    checks. It is NOT always usable as-is: for many (B, m) it contains exact
    collinear triples (e.g. B=3, m=2 puts b on the line through the first and
    third points of C_1), which break general position and make the packed
    drawing of a solution self-overlapping. gen_gadget starts from this layout
    and clears the degeneracies; on clean inputs it reproduces it unchanged.
    """
    groups, b, t = _gadget_base_layout(B, m)
    return [[pt(*p) for p in grp] for grp in groups], pt(*b), pt(*t)


def gen_gadget(inst: PartitionInstance) -> GadgetInstance:
    """Build the reduction gadget for a 3-Partition instance.

    The graph has a single source s, a sink t reached through m length-two
    paths s -> u_i -> t, and one monotone path of a_i vertices hanging off s
    per item. The points comprise m one-sided groups of B+1 points each on
    shifted parabolic arcs, plus extremes b and t below and above everything.

    Starting from gadget_base_points, two deterministic adjustments restore
    general position where the raw layout has exact collinear triples, while
    preserving every structural property the reduction argument uses:

    - from the top group down, each group may slide down by a minimal integer
      (usually 0) until it is collinearity-free against the points above it;
      the slide widens the band gaps and never moves x, so the bounding box
      is untouched. The points above are in general position already, so an
      attempt is tested only through the group's own points: their ys against
      a set of the ys placed, and their directions to every placed point and
      to each other, on homogeneous integers kept across groups. The base
      layout is integral, so an attempt slides plain ints (x, y) and tests
      them through geo._hom; each point becomes a Point once, after the
      slides. A group of B+1 points below p placed points costs O(B(p+B))
      per attempt;
    - b keeps its y but its x gains 1/Q for Q = y(t) - min y + 1. Any line
      through two of the integer points meets b's horizontal at an x whose
      reduced denominator divides some y-difference, hence is < Q; an x with
      reduced denominator exactly Q can therefore never lie on such a line;
    - b's integer x is raised to at least (m^2(B+2)^2 - (B+1)^2 - 2)/3, the
      exact threshold below which the bottom point of some group falls inside
      the hull of its own group plus the extremes. Walking down a group chain
      the edge into its bottom point has slope -3, so convexity at that point
      needs slope from it to b above -3; the raw x meets this for m >= 3 but
      is negative for m = 1 and sits at 2B+3 for m = 2, too far left for
      every B. Raising x only widens the left half-planes of the separating
      lines, so the other checked properties are unaffected.

    The five structural properties are re-verified on the final coordinates,
    with one whole-set general-position test and the separating lines, each
    computed once by geo._wedge, tested on the set's cached homogeneous
    integers; a failure raises PropertyCheckFailed and means the generator
    is wrong.
    """
    B, m = inst.B, inst.m

    vertices = ["s", "t"] + [f"u{i}" for i in range(1, m + 1)]
    arcs = []
    for i in range(1, m + 1):
        arcs += [("s", f"u{i}"), (f"u{i}", "t")]
    for item, a in enumerate(inst.A, 1):
        vertices += [f"p{item}_{j}" for j in range(1, a + 1)]
        arcs.append(("s", f"p{item}_1"))
        arcs += [(f"p{item}_{j}", f"p{item}_{j + 1}") for j in range(1, a)]
    graph = Digraph.from_labels(vertices, arcs)

    base_groups, (bx, by), (tx, ty) = _gadget_base_layout(B, m)

    # the placed points stay in general position, so a slid group can only
    # fail the test through a y or a triple that holds one of its own points;
    # every y of a slid group lies below every placed y (the band-gap check),
    # and the base layout is integral, so the slides run on ints
    placed_h: list[geo.Hom] = [geo._hom((tx, ty))]
    lowest = ty
    shifted: list[list[tuple[int, int]]] = []
    for grp in reversed(base_groups):  # top group first, sliding only downward
        v = 0
        while True:
            cand = [(x, y - v) for x, y in grp]
            if max(y for _, y in cand) >= lowest:
                raise PropertyCheckFailed("group slide collapsed the band gap")
            if _extends_general_position(placed_h, cand):
                break
            v += 1
        shifted.append(cand)
        placed_h += map(geo._hom, cand)
        lowest = min(y for _, y in cand)

    q = ty - lowest + 1
    convex_floor = (m * m * (B + 2) ** 2 - (B + 1) ** 2 - 2) // 3 + 1
    b = Point(Fraction(max(bx, convex_floor) * q + 1, q), Fraction(by))

    points = [pt(x, y) for grp in reversed(shifted) for x, y in grp] + [b, pt(tx, ty)]
    groups = [tuple(range(g * (B + 1), (g + 1) * (B + 1))) for g in range(m)]
    b_index, t_index = m * (B + 1), m * (B + 1) + 1
    S = PointSet(points)

    assert len(S) == graph.n == m * (B + 1) + 2
    _check_gadget_points(S, groups, b_index, t_index)
    return GadgetInstance(inst, graph, S, tuple(groups), b_index, t_index)


def solution_to_embedding(g: GadgetInstance, sol: PartitionSolution) -> Mapping:
    """Turn a partition into a drawing: s and t on the extremes, u_i on the top
    of C_i, and the triple's paths stacked upward on the B free points of C_i."""
    sol.check_against(g.instance)
    G = g.graph
    A = g.instance.A
    assignment = {"s": g.b_index, "t": g.t_index}
    for gi, triple in enumerate(sol.sets, 1):
        grp = g.groups[gi - 1]
        assignment[f"u{gi}"] = grp[-1]
        lo = 0
        for item in triple:
            block = grp[lo:lo + A[item]]
            lo += A[item]
            for j, p in enumerate(block, 1):
                assignment[f"p{item + 1}_{j}"] = p
        assert lo == len(grp) - 1
    return Mapping.from_labels(G, assignment)


def embedding_to_solution(g: GadgetInstance, M: Mapping) -> PartitionSolution:
    """Read a partition out of a valid drawing of the gadget in which every
    item's path lies on the points of one group: each item goes to that group.

    Any other drawing raises ExtractionFailed, as does a group that does not
    host three paths summing to B. The drawings of solution_to_embedding have
    this layout, but a valid drawing need not: of the 5 760 valid drawings of
    the B = 3 gadget with A = (1,)*6, the 1 440 that have it decode and the
    other 4 320 raise."""
    bad = verify_upse(g.graph, g.points, M)
    if bad:
        raise NotAValidUPSE(str(bad[0]))
    G = g.graph
    group_of_point = {}
    for gi, grp in enumerate(g.groups, 1):
        for p in grp:
            group_of_point[p] = gi
    m = g.instance.m
    triples: list[list[int]] = [[] for _ in range(m)]
    for item, a in enumerate(g.instance.A, 1):
        homes = {group_of_point.get(M[G.index(f"p{item}_{j}")])
                 for j in range(1, a + 1)}
        if len(homes) != 1 or None in homes:
            raise ExtractionFailed(f"path of item {item} is not inside a single group")
        triples[next(iter(homes)) - 1].append(item - 1)
    sets = []
    for gi, triple in enumerate(triples, 1):
        if len(triple) != 3:
            raise ExtractionFailed(f"group {gi} hosts {len(triple)} paths, expected 3")
        if sum(g.instance.A[i] for i in triple) != g.instance.B:
            raise ExtractionFailed(f"group {gi} paths do not sum to the bound")
        sets.append(tuple(sorted(triple)))
    sol = PartitionSolution(tuple(sets))
    sol.check_against(g.instance)
    return sol
