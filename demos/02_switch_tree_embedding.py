"""Switch trees embed on every convex general-position point set.

A switch tree is a directed tree in which every vertex is a source or a sink.
The embedder places such a tree on any convex point set of the right size,
straight-line, upward, crossing-free, and it can anchor a chosen sink on the
top point (or a chosen source on the bottom point when the set is one-sided).
On a one-sided set any oriented tree embeds, switch tree or not.

Run:  python3 demos/02_switch_tree_embedding.py
Writes demos/out/switch_tree.svg and demos/out/oriented_tree.svg
"""

import pathlib
import random
from fractions import Fraction

from upse import (Digraph, PointSet, RenderSpec, decide_upse, decompose_at,
                  embed_convex_sink, embed_one_sided_sink,
                  embed_one_sided_source, is_consecutive, is_switch_tree,
                  pt, render_svg, sources_and_sinks, verify_upse)

OUT = pathlib.Path(__file__).parent / "out"


def random_switch_tree(rng, n):
    # Grow by attaching each new vertex under a random old one.  Arcs point
    # away from sources and into sinks, so orienting each new edge by the
    # parent's current role keeps every vertex a source or a sink.
    arcs = []
    is_source = [rng.random() < 0.5]
    for child in range(1, n):
        parent = rng.randrange(child)
        if is_source[parent]:
            arcs.append((parent, child))
            is_source.append(False)
        else:
            arcs.append((child, parent))
            is_source.append(True)
    return Digraph([f"x{i}" for i in range(n)], arcs)


rng = random.Random(2024)
n = 12
T = random_switch_tree(rng, n)
assert is_switch_tree(T)
sources, sinks = sources_and_sinks(T)
print(f"switch tree on {n} vertices: {len(sources)} sources, {len(sinks)} sinks")

# A one-sided convex set: everything right of the bottom-to-top line.
parabola = PointSet([pt(i, i * i) for i in range(1, n + 1)])

r = sorted(sinks)[0]
m = embed_one_sided_sink(T, r, parabola)
assert verify_upse(T, parabola, m) == []
top = max(range(n), key=lambda i: parabola[i].y)
print(f"one-sided embed: sink {T.vertices[r]!r} anchored on the top point "
      f"(index {m[r]}), drawing verifies clean")

s = sorted(sources)[0]
m2 = embed_one_sided_source(T, s, parabola)
assert verify_upse(T, parabola, m2) == []
assert m2[s] == min(range(n), key=lambda i: parabola[i].y)
print(f"same set, source {T.vertices[s]!r} anchored on the bottom point")

# The anchoring works because removing any vertex splits a tree into subtrees
# that can each take a consecutive run of the remaining points.
dec = decompose_at(T, r)
print(f"removing {T.vertices[r]!r} leaves {len(dec.subtrees)} subtrees; "
      "each occupies a consecutive slice of the one-sided order:")
order = sorted(range(n), key=lambda i: parabola[i].y)
rank = {p: k for k, p in enumerate(order)}
for sub in dec.subtrees:
    slots = sorted(rank[m[v]] for v in sub.vertices)
    assert is_consecutive([m[v] for v in sub.vertices], parabola)
    print(f"  {[T.vertices[v] for v in sub.vertices]} -> slots {slots}")

# On a one-sided set y order is hull order, so two arcs cross only if their
# ends interleave in y. Laying each subtree on a run of its own, in-children
# below their parent and out-children above it, then draws any oriented
# tree: here one with directed paths, so no switch tree.
oriented = Digraph([f"y{i}" for i in range(n)],
                   [(rng.randrange(v), v) if rng.random() < 0.5 else
                    (v, rng.randrange(v)) for v in range(1, n)])
assert not is_switch_tree(oriented)
o_sinks = sorted(sources_and_sinks(oriented)[1])
m_oriented = embed_one_sided_sink(oriented, o_sinks[0], parabola)
assert verify_upse(oriented, parabola, m_oriented) == []
assert m_oriented[o_sinks[0]] == top
print(f"a non-switch oriented tree on the same set: sink "
      f"{oriented.vertices[o_sinks[0]]!r} on the top point, drawing verifies clean")

# Two-sided convex sets work too.  Rational points on the unit circle,
# mirrored left and right alternately as y climbs, so neither side of the
# bottom-to-top line is empty.
def interleaved_circle(k):
    pts = [pt(0, -1)]
    for i in range(1, k - 1):
        s = Fraction(2 * i - (k - 1), k + 1)
        x = (1 - s * s) / (1 + s * s)
        pts.append(pt(x if i % 2 else -x, 2 * s / (1 + s * s)))
    pts.append(pt(0, 1))
    return PointSet(pts)


zig = interleaved_circle(n)
m3 = embed_convex_sink(T, r, zig)
assert verify_upse(T, zig, m3) == []
print("two-sided convex set: embed_convex_sink still lands a clean drawing")

# The exact solver agrees, and reports how much search that took.
res = decide_upse(T, zig)
assert res.result == "embeddable"
print(f"decide_upse concurs: {res.result} after {res.nodes_explored} nodes")

OUT.mkdir(exist_ok=True)
for name, (G, P, m) in {"switch_tree": (T, zig, m3),
                        "oriented_tree": (oriented, parabola, m_oriented)}.items():
    path = OUT / f"{name}.svg"
    path.write_text(render_svg(P, G, m, RenderSpec(labels=True)))
    print(f"wrote {path}")
