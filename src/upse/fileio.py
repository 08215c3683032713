"""JSON serialization for point sets, digraphs, mappings, solver results, and
gadget bundles. Coordinates are exact: integers stay integers, everything else
becomes a "p/q" string in lowest terms. All load-side problems, including a
zero denominator, and every failure to write an output file surface as
FormatError, also a number past Python's integer string limit either way.
A gadget bundle is read by rebuilding the gadget of its instance with
gen_gadget, and must match what gadget_to_obj writes for that gadget exactly.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .checker import DecideResult
from .constructions import GadgetInstance, PartitionInstance, gen_gadget
from .digraph import Digraph
from .embedder import Mapping
from .errors import FormatError, UpseError
from .geometry import Point, PointSet

_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def rational_from_json(v: Any) -> Fraction:
    if isinstance(v, bool):
        raise FormatError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        m = _RATIONAL.fullmatch(v)
        if not m:
            raise FormatError(f"malformed rational {v!r}")
        try:
            num, den = int(m.group(1)), int(m.group(2))
        except ValueError as exc:  # past Python's integer string limit
            raise FormatError(f"rational of {len(v)} characters: {exc}") from exc
        if den == 0:
            raise FormatError(f"zero denominator in {v!r}")
        return Fraction(num, den)
    raise FormatError(f"not a rational: {v!r}")


def rational_to_json(f: Fraction) -> int | str:
    if f.denominator == 1:
        return int(f)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # past Python's integer string limit
        raise FormatError(f"cannot write a rational: {exc}") from exc


def points_from_obj(obj: Any) -> PointSet:
    if not isinstance(obj, dict) or "points" not in obj:
        raise FormatError('point file must be an object with a "points" key')
    raw = obj["points"]
    if not isinstance(raw, list):
        raise FormatError('"points" must be a list')
    pts = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"each point must be a [x, y] pair, got {entry!r}")
        pts.append(Point(rational_from_json(entry[0]), rational_from_json(entry[1])))
    try:
        return PointSet(pts)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def points_to_obj(S: PointSet) -> dict:
    return {"points": [[rational_to_json(p.x), rational_to_json(p.y)]
                       for p in S.points]}


def graph_from_obj(obj: Any) -> Digraph:
    if not isinstance(obj, dict) or "vertices" not in obj or "arcs" not in obj:
        raise FormatError('graph file must be an object with "vertices" and "arcs"')
    vertices = obj["vertices"]
    arcs = obj["arcs"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise FormatError('"vertices" must be a list of labels')
    if not isinstance(arcs, list):
        raise FormatError('"arcs" must be a list')
    pairs = []
    for a in arcs:
        if not isinstance(a, list) or len(a) != 2 \
                or not all(isinstance(x, str) for x in a):
            raise FormatError(f"each arc must be a [tail, head] label pair, got {a!r}")
        pairs.append((a[0], a[1]))
    try:
        return Digraph.from_labels(vertices, pairs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def graph_to_obj(G: Digraph) -> dict:
    return {"vertices": list(G.vertices),
            "arcs": [[G.vertices[t], G.vertices[h]] for t, h in G.arcs]}


def mapping_from_obj(obj: Any, G: Digraph) -> Mapping:
    if not isinstance(obj, dict) or "mapping" not in obj:
        raise FormatError('mapping file must be an object with a "mapping" key')
    raw = obj["mapping"]
    if not isinstance(raw, dict):
        raise FormatError('"mapping" must be an object')
    try:
        return Mapping.from_labels(G, raw)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def mapping_to_obj(m: Mapping, G: Digraph) -> dict:
    return {"mapping": m.to_labels(G)}


def decide_result_to_obj(res: DecideResult, G: Digraph) -> dict:
    out: dict = {"result": res.result, "nodes_explored": res.nodes_explored}
    if res.mapping is not None:
        out["mapping"] = res.mapping.to_labels(G)
    return out


def gadget_to_obj(g: GadgetInstance) -> dict:
    return {
        "instance": {"B": g.instance.B, "A": list(g.instance.A)},
        "graph": graph_to_obj(g.graph),
        "points": points_to_obj(g.points),
        "groups": [list(grp) for grp in g.groups],
        "b": g.b_index,
        "t": g.t_index,
    }


def gadget_from_obj(obj: Any) -> GadgetInstance:
    """The gadget of the bundle's instance, rebuilt by gen_gadget. The rest
    of the bundle must be exactly what gadget_to_obj writes for it: the same
    keys and values, with true never read as 1, nor 1.0 as 1."""
    if not isinstance(obj, dict):
        raise FormatError("gadget bundle must be an object")
    try:
        text = json.dumps(obj, sort_keys=True)
        inst = PartitionInstance(obj["instance"]["B"], obj["instance"]["A"])
    except (KeyError, TypeError, ValueError, UpseError) as exc:
        raise FormatError(f"malformed gadget bundle: {exc}") from exc
    # the gadget lists its m(B + 1) + 2 vertex labels, so a shorter bundle
    # cannot match it, and a few bytes do not get a huge B built
    if len(text) < inst.m * (inst.B + 1) or \
            text != json.dumps(gadget_to_obj(g := gen_gadget(inst)), sort_keys=True):
        raise FormatError("gadget bundle differs from the gadget of its instance")
    return g


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a number past Python's integer string limit, or bad UTF-8
        raise FormatError(f"cannot read {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write text to path; every output file goes through here."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def write_json(path: str, obj: dict) -> None:
    """Write obj as indented JSON to path."""
    try:
        text = json.dumps(obj, indent=2) + "\n"
    except ValueError as exc:  # an integer past Python's integer string limit
        raise FormatError(f"cannot write {path}: {exc}") from exc
    write_text(path, text)


def read_points(path: str) -> PointSet:
    return points_from_obj(_load(path))


def write_points(path: str, S: PointSet) -> None:
    write_json(path, points_to_obj(S))


def read_graph(path: str) -> Digraph:
    return graph_from_obj(_load(path))


def write_graph(path: str, G: Digraph) -> None:
    write_json(path, graph_to_obj(G))


def read_mapping(path: str, G: Digraph) -> Mapping:
    return mapping_from_obj(_load(path), G)


def write_mapping(path: str, m: Mapping, G: Digraph) -> None:
    write_json(path, mapping_to_obj(m, G))


def read_gadget(path: str) -> GadgetInstance:
    return gadget_from_obj(_load(path))


def write_gadget(path: str, g: GadgetInstance) -> None:
    write_json(path, gadget_to_obj(g))
