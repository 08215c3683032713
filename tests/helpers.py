"""Shared test utilities: instance generators and independent reference
implementations used as oracles."""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import gcd

import networkx as nx

from upse import (Digraph, Mapping, Point, PointSet, RenderSpec, SideSplit,
                  Violation, ViolationKind, convex_hull, gadget_base_points,
                  is_general_position, point_right_of_line, pt, segments_cross,
                  verify_upse)


def circle_point(s: Fraction, left: bool = False) -> Point:
    # rational parametrization of the unit circle, strictly increasing y on |s|<1
    x = (1 - s * s) / (1 + s * s)
    return Point(-x if left else x, 2 * s / (1 + s * s))


def random_convex(rng, n: int, sidedness: str = "mixed") -> PointSet:
    """n points on the rational unit circle in convex general position.

    sidedness: "mixed" puts interior points on random sides; "left"/"right"
    force a one-sided set. The parameters are k / d for distinct integers
    |k| < d, with d = max(3000, n), so every set with n <= 3000 is the one
    the fixed d = 3000 drew.
    """
    d = max(3000, n)
    nums = sorted(rng.sample(range(1 - d, d), n))
    pts = []
    for i, num in enumerate(nums):
        s = Fraction(num, d)
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


class _OutOfBudget(Exception):
    pass


def reference_search(G: Digraph, S: PointSet, prune: bool = True,
                     budget: int | None = None,
                     watch=None) -> tuple[str, int, tuple | None]:
    """decide_upse as a plain recursive search: (result, nodes explored,
    assignment or None). The same candidate order (points bottom to top, ready
    vertices by most in-arcs, then index) and the same budget rule (a node
    past the budget is never counted), but every new arc is tested against
    every drawn one with segments_cross on Points, with no memo, and the
    window rule is checked on sets for every tree edge after each placement.
    S must be in general position. watch, if given, is called with one side
    of each tree edge and the assignment (None for a free vertex) whenever the
    window rule is asked about a placement."""
    n = G.n
    if not nx.is_directed_acyclic_graph(nx.DiGraph(list(G.arcs))):
        return "not_embeddable", 0, None
    order = sorted(range(n), key=lambda p: (S[p].y, S[p].x))
    by_pressure = sorted(range(n), key=lambda v: (-len(G.in_neighbors[v]), v))
    sides = []  # one side of each tree edge, for the window rule
    hull = jarvis_hull(list(S.points)) if n >= 3 else []
    U = nx.Graph(list(G.arcs))
    U.add_nodes_from(range(n))
    if prune and len(hull) == n >= 3 and nx.is_tree(U):
        for x, y in G.arcs:
            U.remove_edge(x, y)
            side = nx.node_connected_component(U, y)
            U.add_edge(x, y)
            sides.append(side)
    pos = {p: k for k, p in enumerate(hull)}
    # the n windows of each side's size, built once: positions s, s+1, ... mod n
    windows = {size: [{(s + i) % n for i in range(size)} for s in range(n)]
               for size in {len(side) for side in sides}}
    point_of: list[int | None] = [None] * n
    drawn: list[tuple[Point, Point]] = []
    nodes = 0

    def windows_fit() -> bool:
        if not sides:
            return True
        if watch:
            watch(sides, point_of)
        placed = {pos[p] for p in point_of if p is not None}
        for side in sides:
            mine = {pos[point_of[v]] for v in side if point_of[v] is not None}
            if not any(w & placed == mine for w in windows[len(side)]):
                return False
        return True

    def search(depth: int) -> bool:
        nonlocal nodes
        if depth == n:
            return True
        q = order[depth]
        for v in by_pressure:
            if point_of[v] is not None or \
                    any(point_of[u] is None for u in G.in_neighbors[v]):
                continue
            if nodes == budget:
                raise _OutOfBudget
            nodes += 1
            new = [(S[point_of[u]], S[q]) for u in G.in_neighbors[v]]
            if any(segments_cross(a, b, c, d) for a, b in new for c, d in drawn):
                continue
            point_of[v] = q
            drawn.extend(new)
            if windows_fit() and search(depth + 1):
                return True
            point_of[v] = None
            del drawn[len(drawn) - len(new):]
        return False

    try:
        found = search(0)
    except _OutOfBudget:
        return "budget_exhausted", nodes, None
    if found:
        return "embeddable", nodes, tuple(point_of)
    return "not_embeddable", nodes, None


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


def xsort_hull(points: list[Point]) -> list[int]:
    """Strict hull by the monotone chain over an x-then-y sort, rotated to start
    at the lowest point: the convex_hull of the package before it ran its
    chains along the cached y order. Fraction cross products."""
    n = len(points)
    if n == 1:
        return [0]

    def chain(seq) -> list[int]:
        out: list[int] = []
        for i in seq:
            while len(out) >= 2 and frac_cross(points[out[-2]], points[out[-1]],
                                               points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    order = sorted(range(n), key=lambda i: points[i])
    hull = chain(order)[:-1] + chain(reversed(order))[:-1]
    k = hull.index(min(range(n), key=lambda i: (points[i].y, points[i].x)))
    return hull[k:] + hull[:k]


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


def frac_cross(o: Point, a: Point, b: Point) -> Fraction:
    """Cross product of (a - o) and (b - o) in Fraction arithmetic: the formula
    geometry.cross used before the integer kernel."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def frac_side_of_line(p: Point, a: Point, b: Point) -> Fraction:
    """x(p) minus the x of the line ab at height y(p), times y(hi) - y(lo) > 0:
    positive right of the line, negative left. ValueError on a horizontal line."""
    if a.y == b.y:
        raise ValueError("line through a and b must not be horizontal")
    lo, hi = (a, b) if a.y < b.y else (b, a)
    return (p.x - lo.x) * (hi.y - lo.y) - (hi.x - lo.x) * (p.y - lo.y)


def frac_segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """segments_cross from Fraction cross products and bounding boxes."""
    if a == b or c == d:
        raise ValueError("degenerate segment")

    def sign(o, p, q):
        v = frac_cross(o, p, q)
        return (v > 0) - (v < 0)

    def on_segment(s, t, p):  # s, t, p collinear
        return (min(s.x, t.x) <= p.x <= max(s.x, t.x)
                and min(s.y, t.y) <= p.y <= max(s.y, t.y))

    d1, d2, d3, d4 = sign(c, d, a), sign(c, d, b), sign(a, b, c), sign(a, b, d)
    if d1 != d2 and d3 != d4 and 0 not in (d1, d2, d3, d4):
        return True
    touches = {p for o, (s, t), p in ((d1, (c, d), a), (d2, (c, d), b),
                                       (d3, (a, b), c), (d4, (a, b), d))
               if o == 0 and on_segment(s, t, p)}
    if len(touches) != 1:
        return len(touches) > 1
    p = touches.pop()
    return not (p in (a, b) and p in (c, d))


def pairwise_violations(G: Digraph, S: PointSet, m: Mapping) -> list[Violation]:
    """verify_upse by testing every pair of arcs and every vertex against every
    arc in Fraction arithmetic: the O(m^2 + n*m) loops verify_upse ran before
    its sweep, kept as the oracle for its whole violation list and its order."""
    name, a = G.vertices, m.assignment
    out: list[Violation] = []
    seen: dict[int, int] = {}
    for v, p in enumerate(a):
        if p in seen:
            out.append(Violation(ViolationKind.NOT_INJECTIVE, (seen[p], v),
                                 f"vertices {name[seen[p]]!r} and {name[v]!r} "
                                 f"share point {p}"))
        else:
            seen[p] = v
    for k, (t, h) in enumerate(G.arcs):
        if not S[a[h]].y > S[a[t]].y:
            out.append(Violation(ViolationKind.ARC_NOT_UPWARD, (k,),
                                 f"arc {name[t]!r}->{name[h]!r} does not rise"))
    segs = [(a[t], a[h]) for t, h in G.arcs]
    for i, j in itertools.combinations(range(len(segs)), 2):
        (p, q), (r, s) = segs[i], segs[j]
        if p != q and r != s and frac_segments_cross(S[p], S[q], S[r], S[s]):
            (ti, hi), (tj, hj) = G.arcs[i], G.arcs[j]
            out.append(Violation(ViolationKind.ARCS_CROSS, (i, j),
                                 f"arcs {name[ti]!r}->{name[hi]!r} and "
                                 f"{name[tj]!r}->{name[hj]!r} cross"))
    for v, p in enumerate(a):
        for k, (s, t) in enumerate(segs):
            if p in (s, t) or s == t:
                continue
            o, q, r = S[s], S[t], S[p]
            if frac_cross(o, q, r) == 0 and min(o.x, q.x) <= r.x <= max(o.x, q.x) \
                    and min(o.y, q.y) <= r.y <= max(o.y, q.y):
                tk, hk = G.arcs[k]
                out.append(Violation(ViolationKind.VERTEX_ON_ARC, (v, k),
                                     f"vertex {name[v]!r} lies on arc "
                                     f"{name[tk]!r}->{name[hk]!r}"))
    return out


def slope_general_position(points: list[Point]) -> bool:
    """Distinct y and no repeated Fraction slope around any point: the test
    geometry.is_general_position used before the integer kernel."""
    if len({p.y for p in points}) != len(points):
        return False
    for i, p in enumerate(points):
        slopes = set()
        for q in points[i + 1:]:
            key = Fraction(q.y - p.y, q.x - p.x) if q.x != p.x else None
            if key in slopes:
                return False
            slopes.add(key)
    return True


def gcd_no_collinear_triple(h, first: int = 0) -> bool:
    """geometry._no_collinear_triple without its float filter: every
    direction from each fresh point i to the points before first and after i
    keyed by its exact reduced integer direction, the test the package ran
    before it keyed directions by floats. The sign rule normalises (dx, dy)
    and (-dx, -dy) to one key, horizontal directions included."""
    base = list(h[:first])
    for i in range(first, len(h)):
        px, py, pw = h[i]
        directions = set()
        for qx, qy, qw in base + list(h[i + 1:]):
            dx = qx * pw - px * qw
            dy = qy * pw - py * qw
            g = gcd(dx, dy) if dy > 0 or dy == 0 and dx > 0 else -gcd(dx, dy)
            key = (dx // g, dy // g)
            if key in directions:
                return False
            directions.add(key)
    return True


def whole_set_gadget_points(B: int, m: int):
    """The points, groups, b index and t index of gen_gadget for bound B and
    m groups, with each slide attempt accepted by one general-position test
    of the whole set placed so far: the slide loop gen_gadget ran before it
    tested a slid group through its own points only."""
    base_groups, base_b, top = gadget_base_points(B, m)
    placed = [top]
    shifted = []
    for grp in reversed(base_groups):
        v = 0
        while not is_general_position(PointSet(placed + [pt(p.x, p.y - v) for p in grp])):
            v += 1
        shifted.append([pt(p.x, p.y - v) for p in grp])
        placed += shifted[-1]
    shifted.reverse()
    q = top.y - min(p.y for p in placed) + 1
    convex_floor = (m * m * (B + 2) ** 2 - (B + 1) ** 2 - 2) // 3 + 1
    b = Point(max(base_b.x, convex_floor) + Fraction(1, q), base_b.y)
    points = [p for grp in shifted for p in grp] + [b, top]
    groups = tuple(tuple(range(g * (B + 1), (g + 1) * (B + 1))) for g in range(m))
    return tuple(points), groups, len(points) - 2, len(points) - 1


def side_test_split(S: PointSet) -> SideSplit:
    """classify_sides of a convex general-position set by one side-of-line test
    per point and a sort by y: the split classify_sides made before it read
    the sides off the hull."""
    pts = S.points
    bottom = min(range(len(pts)), key=lambda i: pts[i].y)
    top = max(range(len(pts)), key=lambda i: pts[i].y)
    left: list[int] = []
    right: list[int] = []
    for i in range(len(pts)):
        if i not in (bottom, top):
            side = right if point_right_of_line(pts[i], pts[bottom], pts[top]) else left
            side.append(i)
    left.sort(key=lambda i: pts[i].y)
    right.sort(key=lambda i: pts[i].y)
    return SideSplit(tuple(left), tuple(right), bottom, top)


def zigzag_path(n: int) -> Digraph:
    """The switch tree x0 -> x1 <- x2 -> x3 <- ... on n vertices."""
    return Digraph([f"x{i}" for i in range(n)],
                   [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)])


def convex_chords_ok(G: Digraph, S: PointSet, m: Mapping) -> bool:
    """Whether m draws G on the convex general-position set S: injective, every
    arc rises, and no two arcs with four distinct endpoints interleave on the
    hull cycle, which on convex points is exactly a crossing. Arcs that share
    an endpoint cannot overlap without three collinear points. It shares no
    code with verify_upse's sweep, so the two check each other."""
    a = m.assignment
    if len(a) != G.n or len(set(a)) != G.n:
        return False
    if any(not S[a[h]].y > S[a[t]].y for t, h in G.arcs):
        return False
    pos = {p: k for k, p in enumerate(convex_hull(S))}
    if len(pos) != len(S):
        return False
    chords = [tuple(sorted((pos[a[t]], pos[a[h]]))) for t, h in G.arcs]
    for i, (p, q) in enumerate(chords):
        for r, s in chords[i + 1:]:
            if r not in (p, q) and s not in (p, q) and (p < r < q) != (p < s < q):
                return False
    return True


def window_rooting(T: Digraph, r: int) -> tuple[list[list[int]], list[int]]:
    """The children of each vertex in arc order and the subtree sizes of the
    tree T rooted at r, by a BFS over a seen set."""
    children: list[list[int]] = [[] for _ in range(T.n)]
    order, seen = [r], {r}
    for v in order:
        for w in T.adjacency[v]:
            if w not in seen:
                seen.add(w)
                children[v].append(w)
                order.append(w)
    size = [1] * T.n
    for v in reversed(order):
        size[v] += sum(size[c] for c in children[v])
    return children, size


def window_block(children, size, v: int, block, first: int, step: int,
                 assign: list[int]) -> None:
    """The window routine that laid every one-sided run before the y-order
    walk, on switch trees only: block[first], block[first + step], ... lists
    size[v] points in y order from v's end (top first for a sink); v takes the
    first point and each child the next run, reversed so that the child's own
    end comes first."""
    stack = [(v, first, step)]
    while stack:
        v, first, step = stack.pop()
        assign[v] = block[first]
        lo = 1
        for c in children[v]:
            sz = size[c]
            stack.append((c, first + (lo + sz - 1) * step, -step))
            lo += sz


def window_one_sided(T: Digraph, r: int, S: PointSet, sink: bool) -> Mapping:
    """embed_one_sided_sink (or _source) on a switch tree, by window_block on
    the points top first (bottom first)."""
    children, size = window_rooting(T, r)
    block = sorted(range(len(S)), key=lambda i: S[i].y, reverse=sink)
    assign = [-1] * T.n
    window_block(children, size, r, block, 0, 1, assign)
    return Mapping(tuple(assign))


def window_convex_sink(T: Digraph, r: int, S: PointSet) -> Mapping:
    """embed_convex_sink on a switch tree as it was before the y-order walk:
    blocks are windows (first, length, step) on the hull cycle from the top
    point, and each chain run is laid by window_block from the child's end."""
    children, size = window_rooting(T, r)
    n = len(S)
    hull = list(convex_hull(S))  # counterclockwise from the lowest point
    top = hull.index(max(range(n), key=lambda i: S[i].y))
    cycle = hull[top:] + hull[:top]
    lowest = (n - top) % n
    y = [S[p].y for p in cycle]
    assign = [-1] * n

    def block(v, sink, first, length, step):
        if length == 1:
            assign[v] = cycle[first]
            return None
        last = first + (length - 1) * step
        if y[last] > y[first]:
            first, last, step = last, first, -step
        b = (lowest - first) * step
        if sink:
            assign[v] = cycle[first]
        runA = (first + sink * step, step, b - sink)
        runB = (last, -step, length - 1 - b)
        ccw = length < 3 or step > 0
        (lf, ls, ln), (rf, rs, rn) = (runA, runB) if ccw else (runB, runA)
        li = ri = 0
        residual = None
        for c in children[v]:
            sz = size[c]
            if residual is None and sz > ln - li:
                residual = c
                continue
            if residual is None:
                f, s = lf + li * ls, ls
                li += sz
            else:
                f, s = rf + ri * rs, rs
                ri += sz
            if sink:
                f, s = f + (sz - 1) * s, -s
            window_block(children, size, c, cycle, f, s, assign)
        cA, cB = (li, ri) if ccw else (ri, li)
        first, length = first + (cA + sink) * step, length - cA - cB - sink
        if residual is None:
            assign[v] = cycle[first]
            return None
        if sink:
            return residual, False, first, length, step
        last = first + (length - 1) * step
        if y[last] < y[first]:
            first, last, step = last, first, -step
        assign[v] = cycle[first]
        if first == lowest:
            window_block(children, size, residual, cycle, last, -step, assign)
            return None
        return residual, True, first + step, length - 1, step

    step = (r, True, 0, n, 1)
    while step is not None:
        step = block(*step)
    return Mapping(tuple(assign))


def walk_is_tree(G: Digraph) -> bool:
    """underlying_is_tree by a deque BFS from vertex 0 over a seen set: n - 1
    arcs that reach every vertex."""
    if len(G.arcs) != G.n - 1:
        return False
    seen, queue = {0}, deque([0])
    while queue:
        for w in G.adjacency[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == G.n


def walk_path_order(G: Digraph) -> list[int] | None:
    """The vertices along the underlying path from one end, or None if it is
    not a path: a walk that never steps back to the vertex it came from."""
    adj = G.adjacency
    if not walk_is_tree(G) or any(len(a) > 2 for a in adj):
        return None
    order = [next((v for v in range(G.n) if len(adj[v]) == 1), 0)]
    prev = -1
    while len(order) < G.n:
        nxt = [w for w in adj[order[-1]] if w != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order


def walk_is_monotone_path(G: Digraph) -> bool:
    """Whether walk_path_order finds every arc pointing one way along it."""
    order = walk_path_order(G)
    if order is None:
        return False
    arcs, steps = set(G.arcs), list(zip(order, order[1:]))
    return all(s in arcs for s in steps) or all(s[::-1] in arcs for s in steps)


def walk_decompose(G: Digraph, u: int) -> list[tuple[frozenset[int], int, bool]]:
    """(vertices, attachment, arc into u) of each component of the tree G
    without u, in the order of u's arcs: a BFS from each neighbour of u that
    never enters u."""
    out = []
    for c in G.adjacency[u]:
        seen, queue = {u, c}, deque([c])
        while queue:
            for w in G.adjacency[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append((frozenset(seen - {u}), c, c in G.in_neighbors[u]))
    return out


def canvas_positions(S: PointSet, spec: RenderSpec) -> list[tuple[Fraction, Fraction]]:
    """The exact canvas position of every point, fitted point by point: the
    bounding box scaled as large as the margins allow and centred, y flipped."""
    xs = [p.x for p in S.points]
    ys = [p.y for p in S.points]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    spanx = maxx - minx
    spany = maxy - miny
    availw = Fraction(spec.width - 2 * spec.margin)
    availh = Fraction(spec.height - 2 * spec.margin)
    scales = [availw / spanx if spanx else None, availh / spany if spany else None]
    candidates = [s for s in scales if s is not None]
    scale = min(candidates) if candidates else Fraction(1)

    def place(p) -> tuple[Fraction, Fraction]:
        cx = Fraction(spec.width) / 2 + (p.x - Fraction(minx + maxx, 2)) * scale
        cy = Fraction(spec.height) / 2 - (p.y - Fraction(miny + maxy, 2)) * scale
        return cx, cy

    return [place(p) for p in S.points]
