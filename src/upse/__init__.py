"""Upward planar straight-line embeddings of digraphs into point sets.

The package provides an exact rational geometry kernel, digraph structure
queries, a constructive embedder for switch trees into convex point sets, an
exhaustive decision procedure with verification, generators for the known
non-embeddable families and the 3-Partition reduction gadget, JSON file
formats, and SVG rendering.

Importing the package loads none of its modules. Each public name is imported
from its module on first access (PEP 562) and kept here after that, so a
process pays only for the modules it uses: ``upse.verify_upse`` loads the
checker and what it needs, never the gadget generator.
"""

from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "checker": ("DecideResult", "SolverOptions", "Violation", "ViolationKind",
                "decide_upse", "verify_upse"),
    "constructions": ("GadgetInstance", "PartitionInstance", "PartitionSolution",
                      "embedding_to_solution", "gadget_base_points",
                      "gen_binucci_pointset", "gen_binucci_tree", "gen_gadget",
                      "gen_kswitch_tree", "solution_to_embedding"),
    "digraph": ("Digraph", "Subtree", "TreeDecomposition", "decompose_at",
                "is_monotone_path", "is_path_dag", "is_switch_tree",
                "longest_directed_path_length", "sources_and_sinks",
                "topological_order", "underlying_is_tree"),
    "embedder": ("Mapping", "embed_convex_sink", "embed_one_sided_sink",
                 "embed_one_sided_source", "embed_switch_tree"),
    "errors": ("BadN", "BadParameters", "Cyclic", "ExtractionFailed",
               "FormatError", "InternalNonConsecutiveResidual",
               "InvalidInstance", "InvalidSolution", "NotAValidUPSE",
               "NotATree", "NotConvex", "NotGeneralPosition", "NotOneSided",
               "NotSink", "NotSource", "NotSwitchTree", "PropertyCheckFailed",
               "SizeMismatch", "UpseError"),
    "geometry": ("Orientation", "Point", "PointSet", "Sidedness", "SideSplit",
                 "classify_sides", "convex_depth", "convex_hull", "cross",
                 "is_consecutive", "is_convex_position", "is_general_position",
                 "is_one_sided", "orientation", "point_left_of_line",
                 "point_right_of_line", "pt", "segments_cross"),
    "render": ("RenderSpec", "render_svg"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
