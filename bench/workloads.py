"""The four workloads: seeded inputs, the timed task of each, and its check.

A workload is a cycle of tasks that the runner repeats until the run's time
is up, so every run measures whole cycles of the same mix. Inputs are made at
set-up from the seed; tasks rebuild upse's objects from raw coordinates and
arcs, so nothing cached by one task helps the next. The runner checks every
output against bench/reference.py right after timing it. See WORKLOADS.md
for why each workload and size was chosen.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable

import env
import reference
from tracing import call

upse = env.import_upse()
helpers = env.import_helpers()
from upse import fileio  # noqa: E402  (needs the path set up by env)

NAMES = ("embed", "decide", "reduction", "cli")
INJECTIONS = ("wrong-verdict", "corrupt-mapping", "wrong-exit")

EMBED_SIZES = (24, 48, 96)
EMBED_SHAPES = ("random", "path", "caterpillar", "spider", "one_sided")
EMBED_POOL = 8            # distinct instances per (n, shape); cycle i uses i % 8
NODE_BUDGET = 80_000      # above the 59 246 nodes the B=3 gadget needs
DECIDE_RANDOM_PICK = 6    # random instances per family drawn from the recorded pool
# (B, m) of the reduction's solvable and unsolvable instances; N = m(B+1)+2
REDUCTION_SOLVABLE = ((7, 1), (11, 1), (7, 2), (9, 2), (13, 2), (17, 2), (9, 4), (13, 3), (17, 3),
                      (13, 4))
REDUCTION_UNSOLVABLE = ((13, 2), (17, 2), (13, 4))
REDUCTION_POOL = 8        # distinct item sets per (B, m); cycle i uses i % 8
CLI_EMBED_N = 96


@dataclass
class Task:
    name: str
    run: Callable        # run(tracer or None) -> output; the timed work
    check: Callable      # check(output) -> failure reason, or None
    counts: Callable = lambda out: {}   # exact per-task counts for the traced run
    decide: bool = False  # a decide verdict, counted by undecided_ratio


@dataclass
class Workload:
    cycle: Callable[[int], list[Task]]
    warmup: Task
    probe: Callable      # probe(tracer) -> {metric: value}, traced runs only
    children_rss: bool = False
    cleanup: Callable = lambda: None


def _kernel_probe(rng, point_sets, calls: int = 2000) -> dict:
    """Per-call cost of orientation and segments_cross on the workload's own points."""
    triples, quads = [], []
    for _ in range(calls):
        pts = point_sets[rng.randrange(len(point_sets))]
        a, b, c, d = rng.sample(range(len(pts)), 4)
        triples.append((pts[a], pts[b], pts[c]))
        quads.append((pts[a], pts[b], pts[c], pts[d]))
    t0 = time.perf_counter()
    for p, q, r in triples:
        upse.orientation(p, q, r)
    t1 = time.perf_counter()
    for a, b, c, d in quads:
        upse.segments_cross(a, b, c, d)
    t2 = time.perf_counter()
    return {"geometry.orientation.us": (t1 - t0) / calls * 1e6,
            "geometry.segments_cross.us": (t2 - t1) / calls * 1e6}


def _swap(assignment, a: int, b: int) -> tuple:
    out = list(assignment)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


# ---------------------------------------------------------------- embed

def _shape_edges(rng, shape: str, n: int) -> list[tuple[int, int]]:
    if shape == "path":
        return [(v, v + 1) for v in range(n - 1)]
    if shape == "caterpillar":
        spine = (n + 1) // 2
        return [(v, v + 1) for v in range(spine - 1)] + \
            [(rng.randrange(spine), v) for v in range(spine, n)]
    if shape == "spider":
        legs = rng.randrange(3, 7)
        edges, tip = [], [0] * legs
        for v in range(1, n):
            leg = v % legs
            edges.append((tip[leg], v))
            tip[leg] = v
        return edges
    return helpers.random_tree_edges(rng, n)


@dataclass
class _EmbedInstance:
    n: int
    shape: str
    points: tuple
    pos: list
    labels: tuple
    arcs: tuple
    root: int
    role: str         # "convex" (embed_switch_tree), "sink" or "source" (one-sided)
    corrupt: tuple | None = None


def _embed_instance(rng, n: int, shape: str) -> _EmbedInstance:
    side = rng.choice(("left", "right")) if shape == "one_sided" else "mixed"
    S = helpers.random_convex(rng, n, side)
    T = helpers.orient_as_switch(_shape_edges(rng, shape, n), n, rng.randrange(2))
    sources, sinks = upse.sources_and_sinks(T)
    role = rng.choice(("sink", "source")) if shape == "one_sided" else "convex"
    root = min(sources) if role == "source" else min(sinks)
    return _EmbedInstance(n, shape, S.points, reference.circle_order(S.points),
                          T.vertices, T.arcs, root, role)


def _embed_task(inst: _EmbedInstance, inject: str | None) -> Task:
    n, G_arcs = inst.n, inst.arcs
    fn = {"convex": upse.embed_switch_tree, "sink": upse.embed_one_sided_sink,
          "source": upse.embed_one_sided_source}[inst.role]

    def run(tr):
        S = call(tr, "geometry.PointSet", upse.PointSet, inst.points)
        G = call(tr, "digraph.Digraph", upse.Digraph, inst.labels, G_arcs)
        if tr is not None:
            call(tr, f"geometry.is_general_position:n{n}", upse.is_general_position, S)
            call(tr, "geometry.convex_hull", upse.convex_hull, S)
        args = (G, S) if inst.role == "convex" else (G, inst.root, S)
        m = call(tr, f"embedder.embed:{inst.shape}", fn, *args)
        shown = m
        if inject == "corrupt-mapping":
            shown = upse.Mapping(_swap(m.assignment, *G_arcs[0]))
        bad = call(tr, f"checker.verify_upse:n{n}", upse.verify_upse, G, S, shown)
        text = call(tr, "fileio.serialize", lambda: json.dumps(fileio.mapping_to_obj(m, G)))
        svg = call(tr, "render.render_svg", upse.render_svg, S, G, m)
        cbad = None
        if inst.corrupt is not None:
            cm = upse.Mapping(_swap(m.assignment, *inst.corrupt))
            cbad = call(tr, f"checker.verify_upse:n{n}", upse.verify_upse, G, S, cm)
        return m.assignment, bad, text, svg, cbad

    def check(out):
        assignment, bad, text, svg, cbad = out
        if not reference.convex_drawing_ok(inst.points, inst.pos, G_arcs, assignment):
            return "embedding is not a valid drawing"
        ys = sorted(p.y for p in inst.points)
        want = ys[0] if inst.role == "source" else ys[-1]
        if inst.points[assignment[inst.root]].y != want:
            return "anchored vertex is not on the extreme point"
        if bad:
            return f"verify_upse flagged a valid drawing: {bad[0]}"
        if json.loads(text) != {"mapping": dict(zip(inst.labels, assignment))}:
            return "serialized mapping differs from the drawing"
        if not svg.startswith("<svg") or svg.count("<circle") != n:
            return "SVG does not show every point"
        if cbad is not None:
            broken = _swap(assignment, *inst.corrupt)
            if bool(cbad) == reference.convex_drawing_ok(inst.points, inst.pos, G_arcs, broken):
                return "verify_upse disagrees with the reference on a corrupted copy"
        return None

    def counts(out):
        return {"fileio.bytes": len(out[2]), "render.svg_bytes": len(out[3])}

    return Task(f"embed.n{n}.{inst.shape}", run, check, counts)


def build_embed(seed: int, inject: str | None) -> Workload:
    rng = random.Random(seed)
    pool = {(n, shape): [_embed_instance(rng, n, shape) for _ in range(EMBED_POOL)]
            for n in EMBED_SIZES for shape in EMBED_SHAPES}
    shift = rng.randrange(len(EMBED_SHAPES))

    def cycle(i: int) -> list[Task]:
        tasks = []
        for si, n in enumerate(EMBED_SIZES):
            # one task in five per size also verifies a corrupted copy
            corrupt_shape = EMBED_SHAPES[(i + si + shift) % len(EMBED_SHAPES)]
            for shape in EMBED_SHAPES:
                inst = pool[n, shape][i % EMBED_POOL]
                if shape == corrupt_shape:
                    crng = random.Random(seed * 7919 + i * 31 + n)
                    inst = replace(inst, corrupt=tuple(crng.sample(range(n), 2)))
                tasks.append(_embed_task(inst, inject))
        return tasks

    def probe(tr) -> dict:
        out = _kernel_probe(random.Random(seed), [p[0].points for p in pool.values()])
        graphs = [upse.Digraph(inst.labels, inst.arcs)
                  for insts in pool.values() for inst in insts[:1]]
        t0 = time.perf_counter()
        for G in graphs:
            upse.is_switch_tree(G)
        out["digraph.is_switch_tree.s"] = (time.perf_counter() - t0) / len(graphs)
        return out

    warm = _embed_task(_embed_instance(random.Random(seed + 1), EMBED_SIZES[0], "random"), None)
    return Workload(cycle, warm, probe)


# ---------------------------------------------------------------- decide

@dataclass
class _DecideCase:
    family: str
    label: str
    graph: object
    points: tuple
    prune: bool
    expected: str


def _decide_cases(seed: int) -> list[_DecideCase]:
    rng = random.Random(seed)
    recorded = reference.load_decide_cases()
    fixed = [c for c in recorded if not c["family"].startswith("random")]
    picked = []
    for family in ("random_tree", "random_dag"):
        pool = [c for c in recorded if c["family"] == family]
        picked += rng.sample(pool, DECIDE_RANDOM_PICK)
    out = []
    for c in fixed + picked:
        fam = c["family"]
        if fam == "counterexample":
            G, S = upse.gen_binucci_tree(c["n"]), upse.gen_binucci_pointset(c["n"])
            label = f"n{c['n']}" + ("" if c["prune"] else ".noprune")
        elif fam == "kswitch":
            G, S = upse.gen_kswitch_tree(c["n"], c["k"]), upse.gen_binucci_pointset(c["n"])
            label = f"n{c['n']}.k{c['k']}"
        elif fam == "gadget":
            g = upse.gen_gadget(upse.PartitionInstance(c["B"], tuple(c["A"])))
            G, S = g.graph, g.points
            label = f"B{c['B']}." + "-".join(map(str, c["A"]))
        else:
            G = upse.Digraph(c["vertices"], [tuple(a) for a in c["arcs"]])
            S = upse.PointSet(upse.pt(x, y) for x, y in c["points"])
            label = f"n{c['n']}"
        out.append(_DecideCase(fam, label, G, S.points, c["prune"], c["expected"]))
    rng.shuffle(out)
    return out


def _decide_task(case: _DecideCase, expected: str) -> Task:
    opts = upse.SolverOptions(use_consecutive_pruning=case.prune, node_budget=NODE_BUDGET)

    def run(tr):
        S = call(tr, "geometry.PointSet", upse.PointSet, case.points)
        if tr is not None:
            call(tr, f"geometry.is_general_position:n{len(S)}", upse.is_general_position, S)
            call(tr, "geometry.convex_hull", upse.convex_hull, S)
        return call(tr, f"checker.decide_upse:{case.family}", upse.decide_upse,
                    case.graph, S, opts)

    def check(res):
        if res.result == "budget_exhausted":
            return None
        if res.result != expected:
            return f"decided {res.result}, reference says {expected}"
        if res.result == "embeddable" and not reference.drawing_ok(
                case.points, case.graph.arcs, res.mapping.assignment):
            return "embeddable verdict carries an invalid drawing"
        return None

    def counts(res):
        return {"checker.decide_upse.nodes": res.nodes_explored,
                f"checker.decide_upse.nodes.{case.family}": res.nodes_explored,
                "checker.decide_upse.undecided": int(res.result == "budget_exhausted")}

    return Task(f"decide.{case.family}.{case.label}", run, check, counts, decide=True)


def build_decide(seed: int, inject: str | None) -> Workload:
    cases = _decide_cases(seed)
    expected = [c.expected for c in cases]
    if inject == "wrong-verdict":
        k = next(i for i, c in enumerate(cases) if c.family == "counterexample")
        expected[k] = "embeddable"
    tasks = [_decide_task(c, e) for c, e in zip(cases, expected)]

    def probe(tr) -> dict:
        out = _kernel_probe(random.Random(seed), [c.points for c in cases])
        trees = [c.graph for c in cases if upse.underlying_is_tree(c.graph)]
        t0 = time.perf_counter()
        for G in trees:
            for u in range(G.n):
                upse.decompose_at(G, u)
        out["digraph.decompose_at.s"] = time.perf_counter() - t0
        return out

    smallest = next(c for c in cases if c.family == "counterexample" and c.label == "n5")
    return Workload(lambda i: tasks, _decide_task(smallest, smallest.expected), probe)


# ---------------------------------------------------------------- reduction

def _items_range(B: int) -> range:
    return range(B // 4 + 1, (B + 1) // 2)   # B/4 < a < B/2


def _solvable_items(rng, B: int, m: int) -> tuple[tuple[int, ...], tuple]:
    """Items made from m random triples summing to B; returns (A, triples)."""
    lo = _items_range(B)
    triples = []
    while len(triples) < m:
        a, b = rng.choice(lo), rng.choice(lo)
        if B - a - b in lo:
            triples.append((a, b, B - a - b))
    flat = [(x, t) for t, tri in enumerate(triples) for x in tri]
    rng.shuffle(flat)
    A = tuple(x for x, _ in flat)
    sets = tuple(tuple(i for i, (_, t) in enumerate(flat) if t == g) for g in range(m))
    return A, sets


def _unsolvable_items(rng, B: int, m: int) -> tuple[int, ...]:
    lo = _items_range(B)
    while True:
        A = [rng.choice(lo) for _ in range(3 * m - 1)]
        last = m * B - sum(A)
        if last in lo and not reference.has_three_partition(B, A + [last]):
            A.append(last)
            rng.shuffle(A)
            return tuple(A)


def _gadget_attempts(g) -> int:
    """Sum over groups of (slide + 1): the triple scans gen_gadget made."""
    base, _, _ = upse.gadget_base_points(g.instance.B, g.instance.m)
    return sum(int(b[0].y - g.points[grp[0]].y) + 1 for b, grp in zip(base, g.groups))


def _reduction_task(B: int, A: tuple, sets: tuple | None, inject: str | None) -> Task:
    N = len(A) // 3 * (B + 1) + 2

    def run(tr):
        inst = upse.PartitionInstance(B, A)
        g = call(tr, f"constructions.gen_gadget:N{N}", upse.gen_gadget, inst)
        if sets is None:
            return g, None, None, None
        M = call(tr, "constructions.solution_to_embedding", upse.solution_to_embedding,
                 g, upse.PartitionSolution(sets))
        bad = call(tr, f"checker.verify_upse:N{N}", upse.verify_upse, g.graph, g.points, M)
        if inject == "corrupt-mapping":
            M = upse.Mapping(_swap(M.assignment, *g.graph.arcs[0]))
        sol = call(tr, "constructions.embedding_to_solution", upse.embedding_to_solution, g, M)
        return g, M, bad, sol

    def check(out):
        g, M, bad, sol = out
        if len(g.points) != N or g.graph.n != N or len(g.groups) != len(A) // 3:
            return "gadget has the wrong size"
        if sets is None:
            return None
        if not reference.drawing_ok(g.points.points, g.graph.arcs, M.assignment):
            return "solution_to_embedding drew an invalid drawing"
        if bad:
            return f"verify_upse flagged a valid gadget drawing: {bad[0]}"
        if {frozenset(t) for t in sol.sets} != {frozenset(t) for t in sets}:
            return "decoded partition differs from the encoded one"
        return None

    def counts(out):
        return {"constructions.gen_gadget.attempts": _gadget_attempts(out[0]),
                "constructions.gen_gadget.groups": len(out[0].groups)}

    kind = "solvable" if sets is not None else "unsolvable"
    return Task(f"reduction.N{N}.{kind}", run, check, counts)


def build_reduction(seed: int, inject: str | None) -> Workload:
    rng = random.Random(seed)
    # REDUCTION_POOL item sets per (B, m); the drawing, and so verify's cost, depends on them
    variants = [[_reduction_task(B, *_solvable_items(rng, B, m), inject)
                 for _ in range(REDUCTION_POOL)] for B, m in REDUCTION_SOLVABLE]
    variants += [[_reduction_task(B, _unsolvable_items(rng, B, m), None, None)
                  for _ in range(REDUCTION_POOL)] for B, m in REDUCTION_UNSOLVABLE]
    rng.shuffle(variants)

    def probe(tr) -> dict:
        pts = [upse.gen_gadget(upse.PartitionInstance(B, _solvable_items(rng, B, m)[0])).points
               for B, m in REDUCTION_SOLVABLE[2:4]]
        return _kernel_probe(random.Random(seed), [p.points for p in pts])

    warm = _reduction_task(7, *_solvable_items(random.Random(seed + 1), 7, 1), None)
    return Workload(lambda i: [v[i % REDUCTION_POOL] for v in variants], warm, probe)


# ---------------------------------------------------------------- cli

def _cli_env() -> dict:
    environ = dict(os.environ)
    environ["PYTHONPATH"] = str(env.SRC)
    environ.pop("UPSE_NODE_BUDGET", None)
    return environ


def _upse(args: list[str], environ: dict) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "upse", *args], env=environ,
                          capture_output=True, text=True, timeout=120, cwd=env.ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def build_cli(seed: int, inject: str | None) -> Workload:
    rng = random.Random(seed)
    (env.ROOT / ".bench_out").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="cli-", dir=env.ROOT / ".bench_out")
    environ = _cli_env()

    def path(name: str) -> str:
        return os.path.join(work, name)

    # embed / verify inputs: a random switch tree and a zigzag path on random convex sets
    path_inst = _embed_instance(rng, CLI_EMBED_N, "path")
    fileio.write_graph(path("path.json"), upse.Digraph(path_inst.labels, path_inst.arcs))
    fileio.write_points(path("path_points.json"), upse.PointSet(path_inst.points))
    inst = _embed_instance(rng, CLI_EMBED_N, "random")
    G = upse.Digraph(inst.labels, inst.arcs)
    S = upse.PointSet(inst.points)
    fileio.write_graph(path("tree.json"), G)
    fileio.write_points(path("convex.json"), S)
    good = upse.embed_switch_tree(G, S).assignment
    while True:
        a, b = rng.sample(range(G.n), 2)
        broken = _swap(good, a, b)
        if not reference.convex_drawing_ok(inst.points, inst.pos, inst.arcs, broken):
            break
    fileio.write_mapping(path("good.json"), upse.Mapping(good), G)
    fileio.write_mapping(path("broken.json"), upse.Mapping(broken), G)
    # decide inputs: the counterexample, a recorded embeddable instance, a gadget
    fileio.write_graph(path("cex_tree.json"), upse.gen_binucci_tree(5))
    fileio.write_points(path("cex_points.json"), upse.gen_binucci_pointset(5))
    small = rng.choice([c for c in reference.load_decide_cases()
                        if c["family"] == "random_tree" and c["expected"] == "embeddable"])
    sG = upse.Digraph(small["vertices"], [tuple(a) for a in small["arcs"]])
    sS = [upse.pt(x, y) for x, y in small["points"]]
    fileio.write_graph(path("small_graph.json"), sG)
    fileio.write_points(path("small_points.json"), upse.PointSet(sS))
    gadget = upse.gen_gadget(upse.PartitionInstance(13, (4, 4, 5, 4, 4, 5)))
    fileio.write_graph(path("gadget_graph.json"), gadget.graph)
    fileio.write_points(path("gadget_points.json"), gadget.points)
    with open(path("malformed.json"), "w", encoding="utf-8") as fh:
        fh.write('{"points": [[0, 1], [1, "2/0"]]}\n')

    gen_n, gen_k = rng.choice((5, 7)), rng.choice((2, 3))
    gen_items = rng.choice(((2, 2, 3, 2, 2, 3), (2, 3, 2, 3, 2, 2)))
    expected_files = {
        "binucci-tree": fileio.graph_to_obj(upse.gen_binucci_tree(gen_n)),
        "binucci-points": fileio.points_to_obj(upse.gen_binucci_pointset(gen_n)),
        "kswitch": fileio.graph_to_obj(upse.gen_kswitch_tree(7, gen_k)),
        "gadget": fileio.gadget_to_obj(upse.gen_gadget(upse.PartitionInstance(7, gen_items))),
    }
    family_args = {
        "binucci-tree": ["--n", str(gen_n)], "binucci-points": ["--n", str(gen_n)],
        "kswitch": ["--n", "7", "--k", str(gen_k)],
        "gadget": ["--bound", "7", "--items", ",".join(map(str, gen_items))],
    }

    def task(name: str, command: str, args: list[str], want_rc: int, verify, out_file=None,
             parse_graph=None) -> Task:
        if inject == "wrong-exit" and name == "verify.broken":
            want_rc = 0

        def run(tr):
            rc, out, err = call(tr, f"cli.{command}", _upse, [command, *args], environ)
            text = None
            if out_file is not None and rc == 0:
                with open(out_file, encoding="utf-8") as fh:
                    text = fh.read()
            parsed = None
            if rc in (0, 1) and out and parse_graph is not None:
                parsed = call(tr, "fileio.parse", _parse_mapping, out, parse_graph)
            return rc, out, err, text, parsed

        def check(res):
            rc, out, err, text, parsed = res
            if "Traceback" in err:
                return f"{name}: traceback on stderr"
            if rc != want_rc:
                return f"{name}: exit code {rc}, expected {want_rc}"
            return verify(out, err, text, parsed)

        svg = out_file is not None and out_file.endswith(".svg")

        def counts(res):
            written = len(res[3] or "")
            return {"fileio.bytes": len(res[1]) + (0 if svg else written),
                    "render.svg_bytes": written if svg else 0}

        return Task(f"cli.{name}", run, check, counts)

    def gen_verify(family):
        def verify(out, err, text, parsed):
            if err or json.loads(text) != expected_files[family]:
                return f"generate {family}: file differs from the library's output"
            return None
        return verify

    def embed_verify(case):
        def verify(out, err, text, parsed):
            if err or not reference.convex_drawing_ok(case.points, case.pos, case.arcs, parsed):
                return "embed: stdout is not a valid drawing"
            return None
        return verify

    def report(valid: bool):
        def verify(out, err, text, parsed):
            obj = json.loads(out)
            if obj["valid"] is not valid or bool(obj["violations"]) == valid or err:
                return f"verify: report {obj} does not say valid={valid}"
            return None
        return verify

    def verdict(result: str, points=None, graph=None):
        def verify(out, err, text, parsed):
            obj = json.loads(out)
            if obj["result"] != result or err:
                return f"decide: {obj['result']}, expected {result}"
            if result == "embeddable" and not reference.drawing_ok(points, graph.arcs, parsed):
                return "decide: embeddable verdict carries an invalid drawing"
            return None
        return verify

    def render_verify(out, err, text, parsed):
        if err or not text.startswith("<svg") or text.count("<circle") != CLI_EMBED_N:
            return "render: SVG does not show every point"
        return None

    def malformed_verify(out, err, text, parsed):
        if out or json.loads(err)["error"]["kind"] != "FormatError":
            return "malformed input: no FormatError object on stderr"
        return None

    script = [task(f"generate.{fam}", "generate",
                   [fam, *family_args[fam], "--out", path(f"gen_{fam}.json")], 0,
                   gen_verify(fam), out_file=path(f"gen_{fam}.json"))
              for fam in expected_files]
    tg = ["--graph", path("tree.json"), "--points", path("convex.json")]
    script += [
        task("embed.random", "embed", tg, 0, embed_verify(inst), parse_graph=G),
        task("embed.path", "embed", ["--graph", path("path.json"), "--points",
                                     path("path_points.json")], 0, embed_verify(path_inst),
             parse_graph=upse.Digraph(path_inst.labels, path_inst.arcs)),
        task("verify.good", "verify", [*tg, "--mapping", path("good.json")], 0, report(True)),
        task("verify.broken", "verify", [*tg, "--mapping", path("broken.json")], 1,
             report(False)),
        task("decide.counterexample", "decide",
             ["--graph", path("cex_tree.json"), "--points", path("cex_points.json")], 1,
             verdict("not_embeddable")),
        task("decide.embeddable", "decide",
             ["--graph", path("small_graph.json"), "--points", path("small_points.json")], 0,
             verdict("embeddable", sS, sG), parse_graph=sG),
        task("decide.budget", "decide",
             ["--graph", path("gadget_graph.json"), "--points", path("gadget_points.json"),
              "--budget", "10"], 3, verdict("budget_exhausted")),
        task("render", "render", [*tg, "--mapping", path("good.json"), "--out",
                                  path("drawing.svg")], 0, render_verify,
             out_file=path("drawing.svg")),
        task("malformed", "verify", ["--graph", path("tree.json"), "--points",
                                     path("malformed.json"), "--mapping", path("good.json")],
             2, malformed_verify),
    ]
    rng.shuffle(script)

    def probe(tr) -> dict:
        out = _kernel_probe(random.Random(seed), [inst.points])
        starts = []
        for _ in range(5):
            t0 = time.perf_counter()
            rc, _, _ = _upse(["--help"], environ)
            starts.append(time.perf_counter() - t0)
            if rc != 0:
                raise RuntimeError("upse --help failed")
        out["cli.startup.s"] = sorted(starts)[2]
        return out

    warm = Task("cli.help", lambda tr: _upse(["--help"], environ),
                lambda res: None if res[0] == 0 else "upse --help failed")
    return Workload(lambda i: script, warm, probe, children_rss=True,
                    cleanup=lambda: shutil.rmtree(work, ignore_errors=True))


def _parse_mapping(text: str, G) -> tuple:
    obj = json.loads(text)
    if "result" in obj:
        obj = {"mapping": obj.get("mapping", {})}
        if not obj["mapping"]:
            return ()
    return fileio.mapping_from_obj(obj, G).assignment


BUILDERS = {"embed": build_embed, "decide": build_decide,
            "reduction": build_reduction, "cli": build_cli}


def build(name: str, seed: int, inject: str | None = None) -> Workload:
    return BUILDERS[name](seed, inject)
