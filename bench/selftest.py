"""Tests of the benchmark itself.

    python3 bench/selftest.py

Asserts the machine-independent ROADMAP Baseline node counts, that a short
run of every workload prints exactly the metrics BENCHMARK.json names with
their units, that faults fed in through the benchmark's inputs are counted as
failures while src/upse stays untouched, that the benchmark refuses to run
without the program, and that the references catch broken drawings. Takes
about two minutes; the file is not collected by the repository's pytest run.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import baseline  # noqa: E402
import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result(workload: str, trace: int, *extra: str) -> dict:
    rc, lines = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                          "--trace", str(trace), *extra)
    assert rc == 0, f"{workload} exited {rc}"
    return json.loads(lines[-1])


class Baseline(unittest.TestCase):
    def test_node_counts_match_the_roadmap(self):
        self.assertEqual(baseline.measured_nodes(), baseline.NODE_COUNTS)


class Smoke(unittest.TestCase):
    def check_metrics(self, res: dict, declared: list[dict]):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = result(w["name"], 0)
                self.check_metrics(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])
                self.check_metrics(result(w["name"], 1), SPEC["per_layer"])


class FaultInjection(unittest.TestCase):
    def test_injected_faults_are_counted(self):
        for workload, fault in (("decide", "wrong-verdict"), ("embed", "corrupt-mapping"),
                                ("reduction", "corrupt-mapping"), ("cli", "wrong-exit")):
            with self.subTest(fault=fault, workload=workload):
                res = result(workload, 0, "--inject", fault)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"] / res["attempted"], 0)


class MissingProgram(unittest.TestCase):
    def test_refuses_to_run_without_src(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, bare / p,
                                ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines = run_bench(*SPEC["command"][2:], "--workload", "embed", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertFalse(any(line.startswith('{"correct"') for line in lines))
        finally:
            shutil.rmtree(bare)


class References(unittest.TestCase):
    def test_drawing_ok_catches_each_defect(self):
        square = [(0, 0), (2, 1), (1, 3), (-1, 2)]
        self.assertTrue(reference.drawing_ok(square, [(0, 2), (1, 2)], (0, 1, 2, 3)))
        self.assertFalse(reference.drawing_ok(square, [(0, 2), (3, 1)], (0, 1, 2, 3)))  # cross
        self.assertFalse(reference.drawing_ok(square, [(1, 0)], (0, 1, 2, 3)))  # downward
        self.assertFalse(reference.drawing_ok(square, [(0, 1)], (0, 0, 2, 3)))  # not injective
        line = [(0, 0), (1, 1), (2, 2), (5, 0)]
        self.assertFalse(reference.drawing_ok(line, [(0, 2)], (0, 1, 2, 3)))  # vertex on arc
        self.assertFalse(reference.drawing_ok(line, [(0, 1), (0, 2)], (0, 1, 2, 3)))  # overlap

    def test_convex_rule_agrees_with_the_general_check(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(3, 9)
            ts = sorted(rng.sample(range(-99, 100), n))
            pts = []
            for t in ts:
                s = Fraction(t, 100)
                x, y = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
                pts.append((-x if rng.random() < 0.5 else x, y))
            arcs = [(a, b) for a in range(n) for b in range(n)
                    if a != b and rng.random() < 0.2]
            perm = tuple(rng.sample(range(n), n))
            self.assertEqual(
                reference.convex_drawing_ok(pts, reference.circle_order(pts), arcs, perm),
                reference.drawing_ok(pts, arcs, perm))

    def test_three_partition(self):
        self.assertTrue(reference.has_three_partition(13, (4, 4, 5, 4, 4, 5)))
        self.assertFalse(reference.has_three_partition(13, (4, 4, 4, 4, 4, 6)))
        self.assertTrue(reference.has_three_partition(17, (5, 6, 7, 6, 5, 6, 5, 5, 6)))
        self.assertFalse(reference.has_three_partition(17, (8, 5, 5, 6, 6, 5, 5, 6, 5)))


if __name__ == "__main__":
    unittest.main()
