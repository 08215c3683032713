"""Reproduce the ROADMAP "Baseline" table.

    python3 bench/baseline.py          # node counts plus the quick timed rows
    python3 bench/baseline.py --full   # every size the table lists (minutes)

Node counts do not depend on the machine, and bench/selftest.py asserts them.
Times are single runs, as in the table, printed beside the table's values,
which were taken on a 2-CPU machine with Python 3.11.7.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import env

# (what, parameters) -> nodes explored, from the ROADMAP Baseline table
NODE_COUNTS = {
    ("counterexample", 5): 346, ("counterexample", 7): 576, ("counterexample", 9): 854,
    ("kswitch n=7", 2): 5305, ("kswitch n=7", 3): 3282, ("kswitch n=7", 4): 2822,
    ("gadget B=3", (1,) * 6): 59246,
}
# (what, size) -> seconds in the ROADMAP Baseline table
TIMES = {
    ("is_general_position", 100): 0.05, ("is_general_position", 400): 0.81,
    ("is_general_position", 1000): 6.8,
    ("embed_switch_tree", 100): 0.07, ("embed_switch_tree", 400): 1.0,
    ("embed_switch_tree", 1000): 6.4,
    ("verify_upse", 100): 0.52, ("verify_upse", 400): 10.2, ("verify_upse", 1000): 67.0,
    ("gen_gadget", 65): 0.9, ("gen_gadget", 125): 4.5, ("gen_gadget", 157): 12.1,
}
QUICK = {("is_general_position", 100), ("is_general_position", 400),
         ("embed_switch_tree", 100), ("embed_switch_tree", 400),
         ("verify_upse", 100), ("gen_gadget", 65)}
# the table gives only N = m(B+1)+2; these (B, m) reach it
GADGET_SHAPES = {65: (20, 3), 125: (40, 3), 157: (30, 5)}


def measured_nodes() -> dict:
    upse = env.import_upse()
    out = {}
    for n in (5, 7, 9):
        res = upse.decide_upse(upse.gen_binucci_tree(n), upse.gen_binucci_pointset(n))
        out["counterexample", n] = res.nodes_explored
    S7 = upse.gen_binucci_pointset(7)
    for k in (2, 3, 4):
        out["kswitch n=7", k] = upse.decide_upse(upse.gen_kswitch_tree(7, k), S7).nodes_explored
    g = upse.gen_gadget(upse.PartitionInstance(3, (1,) * 6))
    out["gadget B=3", (1,) * 6] = upse.decide_upse(g.graph, g.points).nodes_explored
    return out


def _gadget_items(B: int, m: int) -> tuple:
    lo = B // 4 + 1
    triple = (lo, lo, B - 2 * lo)
    return triple * m


def measured_time(what: str, size: int) -> float:
    upse = env.import_upse()
    helpers = env.import_helpers()
    rng = random.Random(size)
    if what == "gen_gadget":
        B, m = GADGET_SHAPES[size]
        inst = upse.PartitionInstance(B, _gadget_items(B, m))
        t0 = time.perf_counter()
        upse.gen_gadget(inst)
        return time.perf_counter() - t0
    S = upse.PointSet(helpers.random_convex(rng, size).points)
    T = helpers.random_switch_tree(rng, size)
    if what == "is_general_position":
        t0 = time.perf_counter()
        upse.is_general_position(S)
        return time.perf_counter() - t0
    t0 = time.perf_counter()
    m = upse.embed_switch_tree(T, S)
    t1 = time.perf_counter()
    if what == "embed_switch_tree":
        return t1 - t0
    upse.verify_upse(T, S, m)
    return time.perf_counter() - t1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="every size of the table")
    args = ap.parse_args(argv)
    got = measured_nodes()
    print(f"{'decide nodes':28} {'measured':>10} {'ROADMAP':>10}")
    for key, want in NODE_COUNTS.items():
        print(f"{key[0] + ' ' + str(key[1]):28} {got[key]:>10} {want:>10}"
              + ("" if got[key] == want else "  MISMATCH"))
    print(f"\n{'timed row':28} {'measured s':>10} {'ROADMAP s':>10}")
    for (what, size), want in TIMES.items():
        if args.full or (what, size) in QUICK:
            print(f"{what + ' n=' + str(size):28} {measured_time(what, size):>10.3f} {want:>10}")
    return 0 if got == NODE_COUNTS else 1


if __name__ == "__main__":
    sys.exit(main())
