"""The package surface: lazy public names, what each import loads, and the
value semantics of the records."""

import importlib
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import upse
from upse import (DecideResult, GadgetInstance, Mapping, PartitionInstance,
                  PartitionSolution, RenderSpec, SolverOptions, Subtree,
                  TreeDecomposition, Violation, ViolationKind, gen_gadget)

# Run in a fresh interpreter: the modules each step adds to sys.modules. What
# an interpreter holds before the first step differs by environment, so only
# these differences are compared.
LOADS = """
import json, sys
out, before = {}, set(sys.modules)

def step(name):
    global before
    out[name] = sorted(set(sys.modules) - before)
    before = set(sys.modules)

import upse
step("import upse")
import upse.cli
upse.cli._build_parser()
step("cli")
upse.cli.main(["generate", "binucci-tree", "--n", "3", "--out", sys.argv[1]])
step("generate")
from upse import *
import upse.fileio
step("every module")
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def loads(tmp_path_factory):
    out = tmp_path_factory.mktemp("loads") / "tree.json"
    # the child finds upse where this process did, installed or not
    src = str(pathlib.Path(upse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LOADS, str(out)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


class TestStartup:
    def test_importing_the_package_loads_no_module(self, loads):
        assert [m for m in loads["import upse"] if m.startswith("upse.")] == []

    def test_the_parser_loads_no_dataclasses_and_no_constructions(self, loads):
        assert "dataclasses" not in loads["cli"]
        assert "upse.constructions" not in loads["cli"]
        assert {"upse.cli", "upse.checker", "upse.embedder", "upse.render"} \
            <= set(loads["cli"])

    def test_generate_loads_constructions(self, loads):
        assert "upse.constructions" in loads["generate"]

    def test_no_module_loads_dataclasses(self, loads):
        assert not any("dataclasses" in added for added in loads.values())


class TestPublicNames:
    @pytest.mark.parametrize("name", upse.__all__)
    def test_resolves_to_the_object_of_its_module(self, name):
        obj = getattr(upse, name)
        assert obj.__module__.startswith("upse.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj

    def test_dir_lists_every_public_name(self):
        assert set(upse.__all__) <= set(dir(upse))

    def test_star_import_binds_exactly_all(self):
        ns: dict = {}
        exec("from upse import *", ns)
        assert set(ns) - {"__builtins__"} == set(upse.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'upse' has no attribute 'embed'"):
            upse.embed


def _records():
    g = gen_gadget(PartitionInstance(3, (1,) * 6))
    leaf = Subtree(frozenset({1}), 1, False)
    # (class, its fields in order, one field with another value)
    return [
        (Violation, {"kind": ViolationKind.ARCS_CROSS, "subjects": (0, 1),
                     "detail": "arcs 'a'->'b' and 'c'->'d' cross"},
         ("detail", "arcs cross")),
        (DecideResult, {"result": "embeddable", "mapping": Mapping((1, 0)),
                        "nodes_explored": 2}, ("nodes_explored", 3)),
        (Subtree, {"vertices": frozenset({1, 2}), "attachment": 1,
                   "arc_into_removed": True}, ("arc_into_removed", False)),
        (TreeDecomposition, {"removed_vertex": 0, "subtrees": (leaf,)},
         ("removed_vertex", 1)),
        (GadgetInstance, {"instance": g.instance, "graph": g.graph,
                          "points": g.points, "groups": g.groups,
                          "b_index": g.b_index, "t_index": g.t_index},
         ("b_index", g.t_index)),
        (Mapping, {"assignment": (2, 0, 1)}, ("assignment", (2, 1, 0))),
        (SolverOptions, {"use_consecutive_pruning": False, "node_budget": 100},
         ("node_budget", 101)),
        (PartitionInstance, {"B": 7, "A": (2, 2, 3, 2, 2, 3)},
         ("A", (2, 3, 2, 3, 2, 2))),
        (PartitionSolution, {"sets": ((0, 1, 2), (3, 4, 5))},
         ("sets", ((0, 1, 3), (2, 4, 5)))),
        (RenderSpec, {"width": 900, "height": 700, "margin": 30,
                      "vertex_radius": 5, "arrow_size": 8, "labels": True},
         ("margin", 31)),
    ]


@pytest.mark.parametrize("cls, fields, change",
                         [pytest.param(*r, id=r[0].__name__) for r in _records()])
def test_record_is_a_frozen_value(cls, fields, change):
    r = cls(**fields)
    assert r == cls(**fields) and hash(r) == hash(cls(**fields))
    assert r != cls(**dict(fields, **dict([change])))
    assert repr(r) == cls.__name__ + "(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"
    with pytest.raises(AttributeError):
        setattr(r, change[0], change[1])
    assert getattr(r, change[0]) == fields[change[0]]
    assert pickle.loads(pickle.dumps(r)) == r
