"""Command-line interface: embed, decide, verify, generate, render.

Exit codes: 0 success or embeddable; 1 completed run with a negative answer
(not embeddable, or verification found violations); 2 input or precondition
error, or an input too large to process, with {"error": {"kind", "message"}}
on standard error; 3 node budget exhausted. The UPSE_NODE_BUDGET environment
variable supplies a default budget for decide.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fileio
from .checker import SolverOptions, decide_upse, verify_upse
from .embedder import embed_switch_tree
from .errors import FormatError, UpseError
from .render import RenderSpec, render_svg


def _emit(obj: dict, out: str | None) -> None:
    if out is None:
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    else:
        fileio.write_json(out, obj)


def _read(args):
    return fileio.read_graph(args.graph), fileio.read_points(args.points)


def _cmd_embed(args) -> int:
    G, S = _read(args)
    m = embed_switch_tree(G, S)
    bad = verify_upse(G, S, m)
    if bad:
        raise RuntimeError(f"embedder produced an invalid drawing: {bad[0]}")
    _emit(fileio.mapping_to_obj(m, G), args.out)
    return 0


def _cmd_decide(args) -> int:
    G, S = _read(args)
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
    return {"embeddable": 0, "not_embeddable": 1, "budget_exhausted": 3}[res.result]


def _cmd_verify(args) -> int:
    G, S = _read(args)
    m = fileio.read_mapping(args.mapping, G)
    violations = verify_upse(G, S, m)
    _emit({"valid": not violations,
           "violations": [{"kind": v.kind.value, "detail": v.detail}
                          for v in violations]}, args.out)
    return 1 if violations else 0


def _cmd_generate(args) -> int:
    # the only command that builds instances; the others skip this import
    from .constructions import (PartitionInstance, gen_binucci_pointset,
                                gen_binucci_tree, gen_gadget, gen_kswitch_tree)
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
    spec = RenderSpec(*(getattr(args, name) for name in RenderSpec.__slots__))
    fileio.write_text(args.out, render_svg(S, G, m, spec))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="upse",
        description="Upward planar straight-line embeddings of digraphs into point sets.")
    sub = top.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # embed, decide and verify
    common.add_argument("--graph", required=True)
    common.add_argument("--points", required=True)
    common.add_argument("--out", default=None, help="output JSON (default: stdout)")

    p = sub.add_parser("embed", parents=[common],
                       help="embed a switch tree into a convex point set")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("decide", parents=[common], help="exhaustively decide embeddability")
    p.add_argument("--prune", action=argparse.BooleanOptionalAction, default=True,
                   help="consecutive-arc pruning on trees over convex sets")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget (default: UPSE_NODE_BUDGET if set)")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("verify", parents=[common],
                       help="check a mapping against the three conditions")
    p.add_argument("--mapping", required=True)
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
    defaults = RenderSpec()  # --width ... --labels: its fields and their defaults
    for name in RenderSpec.__slots__:
        flag, default = "--" + name.replace("_", "-"), getattr(defaults, name)
        if default is False:
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=int, default=default)
    p.set_defaults(fn=_cmd_render)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UpseError as exc:
        kind, message = exc.kind, str(exc)
    except ValueError as exc:
        kind, message = "FormatError", str(exc)
    except (RecursionError, MemoryError) as exc:  # an input too deep or too large
        kind, message = type(exc).__name__, str(exc) or type(exc).__name__
    json.dump({"error": {"kind": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
