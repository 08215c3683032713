"""Independent references the benchmark checks upse's answers against.

Nothing here calls into upse: drawings are checked with plain integer
arithmetic after scaling every coordinate to one common denominator, convex
drawings on the unit circle with the chord-interleaving rule, and 3-Partition
by exhaustive search.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def integer_points(points) -> list[tuple[int, int]]:
    """Scale rational points by the lcm of all denominators."""
    den = 1
    for x, y in points:
        den = math.lcm(den, Fraction(x).denominator, Fraction(y).denominator)
    return [(int(Fraction(x) * den), int(Fraction(y) * den)) for x, y in points]


def _orient(a, b, c) -> int:
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _within(a, b, p) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _bad_pair(a, b, c, d) -> bool:
    """Closed segments ab and cd meet somewhere other than one shared endpoint."""
    shared = {a, b} & {c, d}
    if len(shared) == 2:
        return True
    if shared:
        s = shared.pop()
        u = b if a == s else a
        w = d if c == s else c
        # they overlap beyond s only when collinear and pointing the same way
        return _orient(s, u, w) == 0 and \
            (u[0] - s[0]) * (w[0] - s[0]) + (u[1] - s[1]) * (w[1] - s[1]) > 0
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == 0 and _within(a, b, c)) or (o2 == 0 and _within(a, b, d))
            or (o3 == 0 and _within(c, d, a)) or (o4 == 0 and _within(c, d, b)))


def drawing_ok(points, arcs, assignment) -> bool:
    """Injective, every arc rising, and no two arcs or an arc and a vertex meeting
    except at a shared endpoint. Quadratic in the number of arcs."""
    if len(set(assignment)) != len(assignment):
        return False
    if any(not 0 <= p < len(points) for p in assignment):
        return False
    P = integer_points(points)
    segs = [(P[assignment[t]], P[assignment[h]]) for t, h in arcs]
    if any(hd[1] <= tl[1] for tl, hd in segs):
        return False
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if _bad_pair(*segs[i], *segs[j]):
                return False
    used = [P[p] for p in assignment]
    for a, b in segs:
        for p in used:
            if p != a and p != b and _orient(a, b, p) == 0 and _within(a, b, p):
                return False
    return True


def circle_order(points) -> list[int]:
    """Position of each point of a set on the unit circle, counterclockwise."""
    def key(i):
        x, y = points[i]
        if x * x + y * y != 1:
            raise ValueError("circle_order needs points on the unit circle")
        return (0, y) if x >= 0 else (1, -y)
    pos = [0] * len(points)
    for k, i in enumerate(sorted(range(len(points)), key=key)):
        pos[i] = k
    return pos


def convex_drawing_ok(points, pos, arcs, assignment) -> bool:
    """drawing_ok for points in strictly convex position with cyclic order pos:
    two chords without a common endpoint cross iff their endpoints interleave."""
    if len(set(assignment)) != len(assignment):
        return False
    ys = [points[p][1] for p in assignment]
    if any(ys[h] <= ys[t] for t, h in arcs):
        return False
    chords = []
    for t, h in arcs:
        a, b = pos[assignment[t]], pos[assignment[h]]
        chords.append((a, b) if a < b else (b, a))
    for i, (a, b) in enumerate(chords):
        for c, d in chords[i + 1:]:
            if a != c and a != d and b != c and b != d and (a < c < b) != (a < d < b):
                return False
    return True


def has_three_partition(B: int, A) -> bool:
    """Whether the item indices split into triples summing to B (exhaustive,
    stopping at the first split)."""
    def go(left: tuple[int, ...]) -> bool:
        if not left:
            return True
        i, rest = left[0], left[1:]
        for x in range(len(rest)):
            for y in range(x + 1, len(rest)):
                j, k = rest[x], rest[y]
                if A[i] + A[j] + A[k] == B and \
                        go(tuple(r for r in rest if r not in (j, k))):
                    return True
        return False

    return go(tuple(range(len(A))))


def load_decide_cases() -> list[dict]:
    with open(DATA / "decide_cases.json", encoding="utf-8") as fh:
        return json.load(fh)["cases"]
