"""End-to-end command tests driven through main(argv).

Exit codes are the contract under test: 0 success/embeddable, 1 negative
answer, 2 input error (JSON diagnostics on stderr), 3 budget exhausted.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import upse
from upse import (Digraph, FormatError, Mapping, PartitionInstance, PointSet,
                  embed_switch_tree, verify_upse)
from upse.cli import main
from upse.fileio import (graph_to_obj, mapping_to_obj, points_from_obj,
                         points_to_obj, read_gadget, read_graph, read_points)

from helpers import random_convex, zigzag_path


def dump(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def star_files(tmp_path):
    g = dump(tmp_path, "g.json", {"vertices": ["r", "a", "b", "c"],
                                  "arcs": [["r", "a"], ["r", "b"], ["r", "c"]]})
    s = dump(tmp_path, "s.json", {"points": [[0, 0], [4, 1], [5, 5], [1, 4]]})
    return g, s


def path_files(tmp_path):
    g = dump(tmp_path, "p.json", {"vertices": ["a", "b", "c"],
                                  "arcs": [["a", "b"], ["b", "c"]]})
    s = dump(tmp_path, "ps.json", {"points": [[3, 0], [0, 2], [5, 7]]})
    return g, s


class TestEmbed:
    def test_writes_verified_mapping_to_stdout(self, tmp_path, capsys):
        g, s = star_files(tmp_path)
        assert main(["embed", "--graph", g, "--points", s]) == 0
        out = json.loads(capsys.readouterr().out)
        G = read_graph(g)
        S = read_points(s)
        m = Mapping.from_labels(G, out["mapping"])
        assert verify_upse(G, S, m) == []

    def test_out_flag_writes_a_file(self, tmp_path, capsys):
        g, s = star_files(tmp_path)
        out = tmp_path / "m.json"
        assert main(["embed", "--graph", g, "--points", s,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert "mapping" in json.loads(out.read_text())

    def test_non_switch_tree_is_a_precondition_error(self, tmp_path, capsys):
        g, s = path_files(tmp_path)  # monotone path: longest path 2
        assert main(["embed", "--graph", g, "--points", s]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "NotSwitchTree"
        assert err["error"]["message"]

    def test_empty_graph_is_not_a_switch_tree(self, tmp_path, capsys):
        g = dump(tmp_path, "g.json", {"vertices": [], "arcs": []})
        s = dump(tmp_path, "s.json", {"points": [[0, 0]]})
        assert main(["embed", "--graph", g, "--points", s]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "NotSwitchTree"

    def test_size_mismatch(self, tmp_path, capsys):
        g, _ = star_files(tmp_path)
        s = dump(tmp_path, "small.json", {"points": [[0, 0], [1, 1]]})
        assert main(["embed", "--graph", g, "--points", s]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "SizeMismatch"

    def test_missing_file(self, tmp_path, capsys):
        g, s = star_files(tmp_path)
        assert main(["embed", "--graph", str(tmp_path / "nope.json"),
                     "--points", s]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "FormatError"

    def test_ten_thousand_vertex_zigzag_path_in_seconds(self, tmp_path, capsys):
        n = 10_000
        g = dump(tmp_path, "g.json", graph_to_obj(zigzag_path(n)))
        s = dump(tmp_path, "s.json", points_to_obj(random_convex(random.Random(3), n)))
        start = time.perf_counter()
        assert main(["embed", "--graph", g, "--points", s]) == 0
        assert time.perf_counter() - start < 10
        G = read_graph(g)
        expected = mapping_to_obj(embed_switch_tree(G, read_points(s)), G)
        assert json.loads(capsys.readouterr().out) == expected


class TestCoordinatesBeyondFloatRange:
    """A coordinate of 10^400 overflows a float; exact answers need none."""

    def files(self, tmp_path):
        g, _ = star_files(tmp_path)
        s = dump(tmp_path, "huge.json", {"points": [[0, 0], [10 ** 400, 1],
                                                    [5, 10 ** 400], [-1, 4]]})
        return g, s

    def test_embed(self, tmp_path, capsys):
        g, s = self.files(tmp_path)
        assert main(["embed", "--graph", g, "--points", s]) in (0, 1)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out

    def test_verify(self, tmp_path, capsys):
        g, s = self.files(tmp_path)
        for k, labels in enumerate(({"r": 0, "a": 1, "b": 2, "c": 3},
                                    {"r": 2, "a": 1, "b": 0, "c": 3})):
            m = dump(tmp_path, f"m{k}.json", {"mapping": labels})
            assert main(["verify", "--graph", g, "--points", s, "--mapping", m]) in (0, 1)
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err + captured.out


class TestDecide:
    def test_embeddable_prints_witness(self, tmp_path, capsys):
        g, s = path_files(tmp_path)
        assert main(["decide", "--graph", g, "--points", s]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == "embeddable"
        assert out["nodes_explored"] >= 3
        G = read_graph(g)
        assert verify_upse(G, read_points(s),
                           Mapping.from_labels(G, out["mapping"])) == []

    def test_counterexample_pair_is_refuted(self, tmp_path, capsys):
        tree = tmp_path / "t.json"
        pts = tmp_path / "pts.json"
        assert main(["generate", "kswitch", "--n", "5", "--k", "2",
                     "--out", str(tree)]) == 0
        assert main(["generate", "binucci-points", "--n", "5",
                     "--out", str(pts)]) == 0
        assert main(["decide", "--graph", str(tree), "--points", str(pts)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == "not_embeddable"
        assert "mapping" not in out

    def test_budget_flag(self, tmp_path, capsys):
        g, s = path_files(tmp_path)
        assert main(["decide", "--graph", g, "--points", s, "--budget", "1"]) == 3
        assert json.loads(capsys.readouterr().out)["result"] == "budget_exhausted"

    def test_budget_caps_the_reported_nodes(self, tmp_path, capsys):
        tree = tmp_path / "t.json"
        pts = tmp_path / "pts.json"
        assert main(["generate", "binucci-tree", "--n", "5", "--out", str(tree)]) == 0
        assert main(["generate", "binucci-points", "--n", "5", "--out", str(pts)]) == 0
        assert main(["decide", "--graph", str(tree), "--points", str(pts),
                     "--budget", "10"]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "result": "budget_exhausted", "nodes_explored": 10}

    def test_budget_env_default(self, tmp_path, capsys, monkeypatch):
        g, s = path_files(tmp_path)
        monkeypatch.setenv("UPSE_NODE_BUDGET", "1")
        assert main(["decide", "--graph", g, "--points", s]) == 3
        capsys.readouterr()

    def test_budget_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        g, s = path_files(tmp_path)
        monkeypatch.setenv("UPSE_NODE_BUDGET", "1")
        assert main(["decide", "--graph", g, "--points", s,
                     "--budget", "100000"]) == 0
        capsys.readouterr()

    def test_malformed_env_budget(self, tmp_path, capsys, monkeypatch):
        g, s = path_files(tmp_path)
        monkeypatch.setenv("UPSE_NODE_BUDGET", "plenty")
        assert main(["decide", "--graph", g, "--points", s]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "FormatError"

    def test_negative_budget_flag_is_an_input_error(self, tmp_path, capsys):
        g, s = path_files(tmp_path)
        assert main(["decide", "--graph", g, "--points", s, "--budget", "-5"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "non-negative" in json.loads(out.err)["error"]["message"]

    def test_negative_env_budget_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        g, s = path_files(tmp_path)
        monkeypatch.setenv("UPSE_NODE_BUDGET", "-3")
        assert main(["decide", "--graph", g, "--points", s]) == 2
        assert "non-negative" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_no_prune_gives_the_same_answer(self, tmp_path, capsys):
        g, s = path_files(tmp_path)
        assert main(["decide", "--graph", g, "--points", s, "--no-prune"]) == 0
        capsys.readouterr()


class TestVerify:
    def test_valid_mapping(self, tmp_path, capsys):
        g, s = path_files(tmp_path)
        # points sorted by y are indices 0, 1, 2 already
        m = dump(tmp_path, "m.json", {"mapping": {"a": 0, "b": 1, "c": 2}})
        assert main(["verify", "--graph", g, "--points", s, "--mapping", m]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"valid": True, "violations": []}

    def test_downward_arc(self, tmp_path, capsys):
        g, s = path_files(tmp_path)
        m = dump(tmp_path, "m.json", {"mapping": {"a": 2, "b": 1, "c": 0}})
        assert main(["verify", "--graph", g, "--points", s, "--mapping", m]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert {v["kind"] for v in out["violations"]} == {"arc_not_upward"}

    def test_crossing_arcs(self, tmp_path, capsys):
        g = dump(tmp_path, "x.json", {"vertices": ["a", "b", "c", "d"],
                                      "arcs": [["a", "b"], ["c", "d"]]})
        s = dump(tmp_path, "xs.json",
                 {"points": [[0, 0], [2, 3], [2, 0], [0, 3]]})
        m = dump(tmp_path, "xm.json",
                 {"mapping": {"a": 0, "b": 1, "c": 2, "d": 3}})
        assert main(["verify", "--graph", g, "--points", s, "--mapping", m]) == 1
        out = json.loads(capsys.readouterr().out)
        kinds = {v["kind"] for v in out["violations"]}
        assert kinds == {"arcs_cross"}


class TestGenerate:
    def test_binucci_tree_n5_has_16_vertices(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["generate", "binucci-tree", "--n", "5",
                     "--out", str(out)]) == 0
        G = read_graph(str(out))
        assert G.n == 16 and len(G.arcs) == 15

    def test_binucci_points_n5_has_16_points(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["generate", "binucci-points", "--n", "5",
                     "--out", str(out)]) == 0
        assert len(read_points(str(out))) == 16

    def test_kswitch_needs_k_at_least_2(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        assert main(["generate", "kswitch", "--n", "5", "--k", "1",
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "BadParameters"
        assert not out.exists()

    def test_gadget_bundle_has_the_stated_size(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["generate", "gadget", "--bound", "12",
                     "--items", "4,4,4,4,4,4", "--out", str(out)]) == 0
        g = read_gadget(str(out))
        assert len(g.points) == 28  # m(B+1) + 2 for m=2, B=12
        assert g.graph.n == 28

    def test_gadget_bundle_round_trips_integer_items(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["generate", "gadget", "--bound", "3",
                     "--items", "1,1,1,1,1,1", "--out", str(out)]) == 0
        raw = json.loads(out.read_text())
        assert raw["instance"] == {"B": 3, "A": [1] * 6}
        assert all(type(v) is int for v in [raw["instance"]["B"], *raw["instance"]["A"]])
        assert read_gadget(str(out)).instance == PartitionInstance(3, (1,) * 6)
        raw["instance"]["A"] = [True] * 6
        out.write_text(json.dumps(raw))
        with pytest.raises(FormatError):
            read_gadget(str(out))

    def test_gadget_rejects_malformed_items(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "gadget", "--bound", "12",
                     "--items", "4,x,4", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "FormatError"

    def test_gadget_rejects_bad_instance(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "gadget", "--bound", "12",
                     "--items", "1,1,10", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "InvalidInstance"


class TestRender:
    def test_points_only(self, tmp_path):
        _, s = star_files(tmp_path)
        out = tmp_path / "plot.svg"
        assert main(["render", "--points", s, "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 4 and "<line" not in svg

    def test_full_drawing(self, tmp_path, capsys):
        g, s = star_files(tmp_path)
        m = tmp_path / "m.json"
        assert main(["embed", "--graph", g, "--points", s, "--out", str(m)]) == 0
        out = tmp_path / "drawing.svg"
        assert main(["render", "--points", s, "--graph", g,
                     "--mapping", str(m), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 4 and svg.count("<line") == 3

    def test_mapping_without_graph(self, tmp_path, capsys):
        _, s = star_files(tmp_path)
        m = dump(tmp_path, "m.json", {"mapping": {"r": 0}})
        assert main(["render", "--points", s, "--mapping", m,
                     "--out", str(tmp_path / "x.svg")]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "FormatError"

    def test_mapping_outside_point_set(self, tmp_path, capsys):
        g, _ = star_files(tmp_path)
        s = dump(tmp_path, "s2.json", {"points": [[0, 0], [4, 1]]})
        m = dump(tmp_path, "m.json",
                 {"mapping": {"r": 0, "a": 1, "b": 2, "c": 3}})
        assert main(["render", "--points", s, "--graph", g,
                     "--mapping", m, "--out", str(tmp_path / "x.svg")]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "SizeMismatch"

    def test_verify_and_render_refuse_a_mapping_alike(self, tmp_path, capsys):
        g, _ = star_files(tmp_path)
        s = dump(tmp_path, "s2.json", {"points": [[0, 0], [4, 1]]})
        m = dump(tmp_path, "m.json",
                 {"mapping": {"r": 0, "a": 1, "b": 2, "c": 3}})
        errors = []
        for argv in (["verify", "--graph", g, "--points", s, "--mapping", m],
                     ["render", "--points", s, "--graph", g, "--mapping", m,
                      "--out", str(tmp_path / "x.svg")]):
            assert main(argv) == 2
            errors.append(json.loads(capsys.readouterr().err))
        assert errors[0] == errors[1]


def unwritable_out_argv(command, tmp_path):
    g, s = path_files(tmp_path)
    out = str(tmp_path / "missing" / "out")
    m = dump(tmp_path, "m.json", {"mapping": {"a": 0, "b": 1, "c": 2}})
    return {
        "embed": ["embed", "--graph", dump(tmp_path, "sw.json", {
            "vertices": ["a", "b", "c"], "arcs": [["a", "b"], ["c", "b"]]}),
            "--points", s, "--out", out],
        "decide": ["decide", "--graph", g, "--points", s, "--out", out],
        "verify": ["verify", "--graph", g, "--points", s, "--mapping", m,
                   "--out", out],
        "generate": ["generate", "binucci-tree", "--n", "5", "--out", out],
        "render": ["render", "--points", s, "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["embed", "decide", "verify", "generate", "render"])
def test_unwritable_out_is_an_input_error(command, tmp_path, capsys):
    assert main(unwritable_out_argv(command, tmp_path)) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "FormatError" and "cannot write" in err["message"]


@pytest.mark.parametrize("command, callee", [("embed", "embed_switch_tree"),
                                             ("decide", "decide_upse")])
@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"),
                                   MemoryError()])
def test_deep_or_huge_input_is_an_input_error(command, callee, error, tmp_path,
                                              capsys, monkeypatch):
    def give_up(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"upse.cli.{callee}", give_up)
    g, s = star_files(tmp_path)
    assert main([command, "--graph", g, "--points", s]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["kind"] == type(error).__name__ and err["message"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        g, s = path_files(tmp_path)
        # the child finds upse where this process did, installed or not
        src = str(pathlib.Path(upse.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "upse", "decide", "--graph", g, "--points", s],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == "embeddable"

    def test_unknown_command_exits_nonzero(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["kind"] == "FormatError"
        assert "usage:" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["decide", "--graph", "g.json", "--points", "p.json", "--budget", "abc"], "--budget"),
        (["generate", "kswitch", "--n", "5", "--k", "x", "--out", "k.json"], "--k"),
        (["render", "--points", "p.json", "--out", "o.svg", "--width", "1.5"], "--width"),
        (["embed", "--graph", "g.json"], "--points"),
        (["frobnicate"], "frobnicate"),
    ], ids=["bad_int", "bad_family_int", "float_width", "missing_flag", "unknown_command"])
    def test_malformed_command_line_is_a_format_error(self, argv, flag, capsys):
        # no file is read: the command line is refused first
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" not in captured.err
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "FormatError" and flag in err["message"]

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: upse decide")
