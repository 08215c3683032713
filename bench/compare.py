"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines bench/run.py appends with --out (make several runs
per side, alternating which side runs first). For every end-to-end metric of
BENCHMARK.json and every workload the table shows each side's median and
quartiles and how many seed-matched pairs the change won, then a verdict:

- regression: the change's median is worse than the base's by more than the
  metric's bound;
- unresolved: the base's own quartile spread is wider than the bound, and
  not every change run beats every base run;
- gain: the change wins at least nine tenths of the pairs, ties counting for
  neither, and the medians differ by more than the base's quartile spread;
- same: none of these.

Exits 1 when any regression is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{workload: {seed: [result, ...]}} of the untraced runs in a result file."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    out[rec["workload"]][rec["seed"]].append(rec["result"])
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], wins: int, pairs: int,
            better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    if sign * (cmed - bmed) < -bound * abs(bmed):
        return "regression"
    if (b3 - b1) > bound * abs(bmed) and \
            not all(sign * (c - b) > 0 for c in change for b in base):
        return "unresolved"
    if pairs and wins >= 0.9 * pairs and abs(cmed - bmed) > (b3 - b1):
        return "gain"
    return "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)
    regressions = 0
    print(f"{'workload':10} {'metric':14} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>6}  verdict")
    for workload in sorted(set(base) & set(change)):
        seeds = sorted(set(base[workload]) & set(change[workload]))
        for m in spec["end_to_end"]:
            name = m["name"]

            def values(side):
                return [r["metrics"][name]["value"] for rs in side[workload].values()
                        for r in rs if r["correct"]]
            bv, cv = values(base), values(change)
            if not bv or not cv:
                continue
            pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                     for s in seeds for b, c in zip(base[workload][s], change[workload][s])]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (c - b) > 0 for b, c in pairs)
            v = verdict(bv, cv, wins, len(pairs), m["better"], m["bound"])
            regressions += v == "regression"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:10} {name:14} {fmt.format(*quartiles(bv)):>32} "
                  f"{fmt.format(*quartiles(cv)):>32} {wins:>3}/{len(pairs):<2}  {v}")
    for side, runs in (("base", base), ("change", change)):
        failed = sum(r["failed"] for w in runs.values() for rs in w.values() for r in rs)
        if failed:
            print(f"{side}: {failed} failed tasks")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
