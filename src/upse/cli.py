"""Command-line interface: embed, decide, verify, generate, render.

Exit codes: 0 success or embeddable; 1 completed run with a negative answer
(not embeddable, or verification found violations); 2 input or precondition
error, with {"error": {"kind", "message"}} on standard error; 3 node budget
exhausted. The UPSE_NODE_BUDGET environment variable supplies a default
budget for decide.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fileio
from .checker import SolverOptions, decide_upse, verify_upse
from .constructions import (PartitionInstance, gen_binucci_pointset,
                            gen_binucci_tree, gen_gadget, gen_kswitch_tree)
from .embedder import embed_switch_tree
from .errors import FormatError, UpseError
from .render import RenderSpec, render_svg


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        fileio.write_text(out, text)


def _cmd_embed(args) -> int:
    G = fileio.read_graph(args.graph)
    S = fileio.read_points(args.points)
    m = embed_switch_tree(G, S)
    bad = verify_upse(G, S, m)
    if bad:
        raise RuntimeError(f"embedder produced an invalid drawing: {bad[0]}")
    _emit(fileio.mapping_to_obj(m, G), args.out)
    return 0


def _cmd_decide(args) -> int:
    G = fileio.read_graph(args.graph)
    S = fileio.read_points(args.points)
    budget = args.budget
    if budget is None:
        env = os.environ.get("UPSE_NODE_BUDGET")
        if env is not None:
            try:
                budget = int(env)
            except ValueError as exc:
                raise FormatError(f"UPSE_NODE_BUDGET is not an integer: {env!r}") from exc
    res = decide_upse(G, S, SolverOptions(use_consecutive_pruning=args.prune,
                                          node_budget=budget))
    _emit(fileio.decide_result_to_obj(res, G), args.out)
    if res.result == "embeddable":
        return 0
    if res.result == "not_embeddable":
        return 1
    return 3


def _cmd_verify(args) -> int:
    G = fileio.read_graph(args.graph)
    S = fileio.read_points(args.points)
    m = fileio.read_mapping(args.mapping, G)
    violations = verify_upse(G, S, m)
    if not violations:
        _emit({"valid": True, "violations": []}, args.out)
        return 0
    _emit({"valid": False,
           "violations": [{"kind": v.kind.value, "detail": v.detail}
                          for v in violations]}, args.out)
    return 1


def _cmd_generate(args) -> int:
    if args.family == "binucci-tree":
        fileio.write_graph(args.out, gen_binucci_tree(args.n))
    elif args.family == "binucci-points":
        fileio.write_points(args.out, gen_binucci_pointset(args.n))
    elif args.family == "kswitch":
        fileio.write_graph(args.out, gen_kswitch_tree(args.n, args.k))
    else:
        try:
            items = tuple(int(x) for x in args.items.split(","))
        except ValueError as exc:
            raise FormatError(f"--items must be comma-separated integers: {args.items!r}") from exc
        g = gen_gadget(PartitionInstance(args.bound, items))
        fileio.write_gadget(args.out, g)
    return 0


def _cmd_render(args) -> int:
    S = fileio.read_points(args.points)
    G = fileio.read_graph(args.graph) if args.graph else None
    m = None
    if args.mapping:
        if G is None:
            raise FormatError("--mapping requires --graph")
        m = fileio.read_mapping(args.mapping, G)
        if any(p >= len(S) for p in m.assignment):
            raise FormatError("mapping refers to point indices outside the point set")
    spec = RenderSpec(width=args.width, height=args.height, margin=args.margin,
                      vertex_radius=args.vertex_radius, arrow_size=args.arrow_size,
                      labels=args.labels)
    fileio.write_text(args.out, render_svg(S, G, m, spec))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="upse",
        description="Upward planar straight-line embeddings of digraphs into point sets.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a switch tree into a convex point set")
    p.add_argument("--graph", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out", default=None, help="mapping JSON (default: stdout)")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("decide", help="exhaustively decide embeddability")
    p.add_argument("--graph", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out", default=None, help="result JSON (default: stdout)")
    p.add_argument("--prune", action=argparse.BooleanOptionalAction, default=True,
                   help="consecutive-arc pruning on trees over convex sets")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget (default: UPSE_NODE_BUDGET if set)")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("verify", help="check a mapping against the three conditions")
    p.add_argument("--graph", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--out", default=None, help="report JSON (default: stdout)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("generate", help="generate named instance families")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("binucci-tree", help="the (3n+1)-vertex counterexample tree")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", required=True)
    q = fam.add_parser("binucci-points", help="the interleaved convex point set")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", required=True)
    q = fam.add_parser("kswitch", help="canonical k-switch family member")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--out", required=True)
    q = fam.add_parser("gadget", help="3-Partition reduction bundle")
    q.add_argument("--bound", type=int, required=True)
    q.add_argument("--items", required=True, help="comma-separated item sizes")
    q.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("render", help="render points (and optionally a drawing) to SVG")
    p.add_argument("--points", required=True)
    p.add_argument("--graph", default=None)
    p.add_argument("--mapping", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=600)
    p.add_argument("--margin", type=int, default=40)
    p.add_argument("--vertex-radius", type=int, default=4)
    p.add_argument("--arrow-size", type=int, default=10)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(fn=_cmd_render)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UpseError as exc:
        json.dump({"error": {"kind": exc.kind, "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except ValueError as exc:
        json.dump({"error": {"kind": "FormatError", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
