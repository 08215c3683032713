"""Record the decide workload's cases and their expected verdicts.

    python3 bench/record.py

Writes bench/data/decide_cases.json. Each verdict comes from a reference that
is independent of upse's solver: the paper's theorems for the counterexample
and k-switch families, brute-force 3-Partition for the gadgets, and the
all-permutations oracle tests/helpers.brute_force_embeddable for the random
instances. The oracle takes up to a minute per 8-vertex instance, which is why
it runs here, once, and never inside a benchmark run.
"""

from __future__ import annotations

import json
import random
import sys

import env
import reference

RECORD_SEED = 20101

# (n, count) per random family; the oracle is factorial in n
RANDOM_SIZES = ((6, 3), (7, 3), (8, 2))


def _fixed_cases() -> list[dict]:
    cases = [{"family": "counterexample", "n": n, "prune": True,
              "expected": "not_embeddable", "reference": "theorem"}
             for n in (5, 7, 9)]
    cases.append({"family": "counterexample", "n": 5, "prune": False,
                  "expected": "not_embeddable", "reference": "theorem"})
    cases += [{"family": "kswitch", "n": 7, "k": k, "prune": True,
               "expected": "not_embeddable", "reference": "theorem"}
              for k in range(2, 7)]
    for B, A in ((3, (1,) * 6), (7, (2, 2, 3, 2, 2, 3)),
                 (13, (4, 4, 5, 4, 4, 5)), (13, (4, 4, 4, 4, 4, 6))):
        solvable = reference.has_three_partition(B, A)
        cases.append({"family": "gadget", "B": B, "A": list(A), "prune": True,
                      "expected": "embeddable" if solvable else "not_embeddable",
                      "reference": "brute-force 3-Partition"})
    return cases


def _random_cases(helpers) -> list[dict]:
    rng = random.Random(RECORD_SEED)
    cases = []
    for family in ("random_tree", "random_dag"):
        for n, count in RANDOM_SIZES:
            for _ in range(count):
                if family == "random_tree":
                    G, S = helpers.random_tree_dag(rng, n), helpers.random_convex(rng, n)
                else:
                    G, S = helpers.random_dag(rng, n), helpers.random_general(rng, n)
                ok = helpers.brute_force_embeddable(G, S)
                cases.append({
                    "family": family, "n": n, "prune": True,
                    "vertices": list(G.vertices), "arcs": [list(a) for a in G.arcs],
                    "points": [[str(p.x), str(p.y)] for p in S.points],
                    "expected": "embeddable" if ok else "not_embeddable",
                    "reference": "tests/helpers.brute_force_embeddable"})
                print(family, n, cases[-1]["expected"], file=sys.stderr, flush=True)
    return cases


def main() -> int:
    helpers = env.import_helpers()
    cases = _fixed_cases() + _random_cases(helpers)
    out = reference.DATA / "decide_cases.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"record_seed": RECORD_SEED, "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
