"""upse benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload embed --seed 1 --seconds 15 --trace 0

Runs the workload's cycle of tasks closed-loop, one client, in whole cycles
until the tasks have taken --seconds reference seconds (speed.py), checking
every output against bench/reference.py as it comes. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones, from a run that times half its cycles untraced
and half with spans around every call into a layer. The line before it is a
JSON summary: task count, tail percentile, wall-clock figures, failed and
undecided ratios, and the first failures. --out FILE also appends both to
FILE for bench/compare.py. The program comes from src/ of the checkout the
benchmark sits in; without it the benchmark exits 2 and prints no result.
See WORKLOADS.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import speed

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)


class Record(NamedTuple):
    task: object
    cycle: int
    wall: float          # seconds
    ref: float           # reference seconds (see speed.py)
    err: str | None      # why the task failed, or None
    counts: dict         # the task's exact counts, when it passed
    undecided: bool      # a decide task that exhausted its node budget


def percentile(xs: list[float], p: float) -> float:
    s = sorted(xs)
    pos = p / 100 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(xs: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least 10 tasks beyond it."""
    for p in TAIL_LADDER:
        if len(xs) * (1 - p / 100) >= 10:
            return p, percentile(xs, p)
    return 50.0, percentile(xs, 50.0)


def timed_loop(wl, seconds: float, tr) -> tuple[list[Record], int]:
    """Whole cycles until the tasks have taken seconds reference seconds, with a
    speed sample before and after each task. Counting reference seconds, not
    wall seconds, keeps the number of cycles a property of the program, not of
    how busy the host happens to be. Each output is checked as soon as its task
    is timed and then dropped, so memory does not grow with the run."""
    raw, samples = [], [speed.sample()]
    spent = 0.0
    cycle = 0
    while cycle == 0 or spent < seconds:
        for task in wl.cycle(cycle):
            if tr is not None:
                tr.task = len(raw)
            t0 = time.perf_counter()
            try:
                out, err = task.run(tr), None
            except Exception as exc:  # a failed task is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            spent += wall * speed.REFERENCE_S / samples[-1]
            raw.append((task, cycle, wall, *checked(task, out, err)))
            samples.append(speed.sample())
        cycle += 1
    records = [Record(task, c, wall, wall * f, *rest)
               for (task, c, wall, *rest), f in zip(raw, speed.factors(samples))]
    return records, cycle


def checked(task, out, err) -> tuple[str | None, dict, bool]:
    """(failure, counts, undecided) for one task's output."""
    if err is None:
        try:
            err = task.check(out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
    if err is not None:
        return f"{task.name}: {err}", {}, False
    return None, task.counts(out), task.decide and out.result == "budget_exhausted"


def setup_samples(args) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes, from spawn to the first timed task;
    returns (wall seconds, reference seconds)."""
    wall, samples = [], [speed.sample()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        # time.monotonic is one system-wide clock, so the child's reading compares
        wall.append(float(proc.stdout.split()[-1]) - t0)
        samples.append(speed.sample())
    return wall, [w * f for w, f in zip(wall, speed.factors(samples))]


def end_to_end(args, wl, records: list[Record]) -> tuple[dict, dict]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.children_rss
                               else resource.RUSAGE_SELF)
    setup_wall, setup_ref = setup_samples(args)
    stats = {}
    for unit in ("ref", "wall"):
        times = [getattr(r, unit) for r in records]
        p, tail_value = tail(times)
        stats[unit] = {
            "tasks_per_s": len(times) / sum(times),
            "task_s.p50": statistics.median(times),
            "task_s.tail": tail_value,
            "setup_s": statistics.median(setup_ref if unit == "ref" else setup_wall),
        }
    units = {"tasks_per_s": "1/s", "task_s.p50": "s", "task_s.tail": "s", "setup_s": "s"}
    metrics = {k: (v, units[k]) for k, v in stats["ref"].items()}
    metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024, "MB")
    return metrics, {"tail_percentile": p, "wall": stats["wall"],
                     "setup_s.samples": setup_wall}


def per_layer(wl, plain: list[Record], traced: list[Record], tr) -> dict:
    n = len(traced)
    scale = [r.ref / r.wall if r.wall else 1.0 for r in traced]
    metrics = {f"{layer}.self_s": (sec / n, "s")
               for layer, sec in tr.self_times(scale).items()}
    metrics["trace.overhead"] = (
        (sum(r.ref for r in traced) / n) / (sum(r.ref for r in plain) / len(plain)), "ratio")

    by_name = defaultdict(list)
    for name, start, end, _, task in tr.spans:
        base, _, tag = name.partition(":")
        by_name[base].append((end - start) * scale[task])
        if tag:
            by_name[f"{base}.{tag}"].append((end - start) * scale[task])
    for name in TIMED_CALLS:
        xs = by_name.get(name, [])
        metrics[name + ".s"] = (sum(xs) / len(xs) if xs else 0.0, "s")
    for name in TIMED_BY_TAG:
        base, _, tag = name.rpartition(".")
        xs = by_name.get(name, [])
        metrics[f"{base}.s.{tag}"] = (sum(xs) / len(xs) if xs else 0.0, "s")

    counts = defaultdict(float)
    for r in traced:
        if r.cycle == 0:
            for k, v in r.counts.items():
                counts[k] += v
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "B" if name.endswith("bytes") else "count")
    attempts = counts.get("constructions.gen_gadget.attempts", 0)
    metrics["constructions.gen_gadget.useful_share"] = (
        counts["constructions.gen_gadget.groups"] / attempts if attempts else 0.0, "ratio")
    decide_s = sum(by_name.get("checker.decide_upse", []))
    nodes = sum(r.counts.get("checker.decide_upse.nodes", 0) for r in traced)
    metrics["checker.decide_upse.nodes_per_s"] = (nodes / decide_s if decide_s else 0.0, "1/s")

    # probes run outside the tasks; their times are scaled by samples around them
    before = speed.sample()
    probed = dict.fromkeys(PROBES, 0.0)
    probed.update(wl.probe(tr))
    f = speed.factors([before, speed.sample()])[0]
    for name, value in probed.items():
        metrics[name] = (value * f, PROBES[name])
    return metrics


# spans whose mean seconds per call are reported as "<name>.s"
TIMED_CALLS = (
    "geometry.PointSet", "geometry.is_general_position", "geometry.convex_hull",
    "digraph.Digraph", "embedder.embed", "checker.verify_upse", "checker.decide_upse",
    "constructions.gen_gadget", "constructions.solution_to_embedding",
    "constructions.embedding_to_solution", "fileio.serialize", "fileio.parse",
    "render.render_svg", "cli.generate", "cli.embed", "cli.verify", "cli.decide",
    "cli.render",
)
# the same, split by a tag of the span: size or shape, reported as "<name>.s.<tag>"
TIMED_BY_TAG = (
    "geometry.is_general_position.n24", "geometry.is_general_position.n48",
    "geometry.is_general_position.n96",
    "checker.verify_upse.n24", "checker.verify_upse.n48", "checker.verify_upse.n96",
    "checker.verify_upse.N30", "checker.verify_upse.N58",
    "embedder.embed.random", "embedder.embed.path", "embedder.embed.caterpillar",
    "embedder.embed.spider", "embedder.embed.one_sided",
    "constructions.gen_gadget.N10", "constructions.gen_gadget.N30",
    "constructions.gen_gadget.N44", "constructions.gen_gadget.N58",
)
# exact counts summed over the first traced cycle
COUNTS = (
    "checker.decide_upse.nodes", "checker.decide_upse.nodes.counterexample",
    "checker.decide_upse.nodes.kswitch", "checker.decide_upse.nodes.random_tree",
    "checker.decide_upse.nodes.random_dag", "checker.decide_upse.nodes.gadget",
    "checker.decide_upse.undecided", "constructions.gen_gadget.attempts",
    "fileio.bytes", "render.svg_bytes",
)
# measured outside the tasks by the workload's probe, with their units
PROBES = {
    "geometry.orientation.us": "us", "geometry.segments_cross.us": "us",
    "digraph.is_switch_tree.s": "s", "digraph.decompose_at.s": "s",
    "cli.startup.s": "s",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="upse benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append the result to this JSON-lines file")
    ap.add_argument("--inject", default=None,
                    help="feed a known fault into the benchmark's inputs (self-test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    import env
    try:
        import workloads
    except env.MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.inject is not None and args.inject not in workloads.INJECTIONS:
        ap.error(f"--inject must be one of {', '.join(workloads.INJECTIONS)}")

    wl = workloads.build(args.workload, args.seed, args.inject)
    try:
        warm = wl.warmup.run(None)
        if wl.warmup.check(warm) is not None:
            raise RuntimeError(f"warm-up task failed: {wl.warmup.check(warm)}")
        if args.setup_only:
            print(time.monotonic())
            return 0

        if args.trace == 0:
            records, cycles = timed_loop(wl, args.seconds, None)
            metrics, info = end_to_end(args, wl, records)
        else:
            from tracing import Tracer
            plain, _ = timed_loop(wl, args.seconds / 2, None)
            tr = Tracer()
            traced, cycles = timed_loop(wl, args.seconds / 2, tr)
            metrics = per_layer(wl, plain, traced, tr)
            records, info = plain + traced, {}
    finally:
        wl.cleanup()

    failures = [r.err for r in records if r.err is not None]
    n_decide = sum(r.task.decide for r in records)
    by_task = defaultdict(list)
    for r in records:
        by_task[r.task.name].append(r.wall)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tasks": len(records), "cycles": cycles, **info,
        "wall_s.median_by_task": {k: round(statistics.median(v), 6)
                                  for k, v in sorted(by_task.items())},
        "failed_ratio": len(failures) / len(records),
        "undecided_ratio": sum(r.undecided for r in records) / n_decide if n_decide else 0.0,
        "failures": failures[:5],
    }
    result = {
        "correct": not failures, "attempted": len(records), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**summary, "result": result}) + "\n")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
