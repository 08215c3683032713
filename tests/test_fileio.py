"""JSON round trips and malformed-input rejection for every file kind."""

import copy
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upse import (Digraph, FormatError, Mapping, PartitionInstance, Point,
                  PointSet, gen_gadget, pt)
from upse.checker import DecideResult
from upse.fileio import (decide_result_to_obj, gadget_from_obj, gadget_to_obj,
                         graph_from_obj, graph_to_obj, mapping_from_obj,
                         mapping_to_obj, points_from_obj, points_to_obj,
                         rational_from_json, rational_to_json, read_gadget,
                         read_graph, read_mapping, read_points, write_gadget,
                         write_graph, write_mapping, write_points)


class TestRationals:
    def test_integers_stay_integers(self):
        assert rational_to_json(Fraction(7)) == 7
        assert isinstance(rational_to_json(Fraction(-3)), int)

    def test_fractions_become_strings(self):
        assert rational_to_json(Fraction(1, 3)) == "1/3"
        assert rational_to_json(Fraction(-22, 7)) == "-22/7"

    def test_parse_reduces(self):
        assert rational_from_json("-2/4") == Fraction(-1, 2)
        assert rational_from_json(5) == Fraction(5)

    def test_round_trip_is_exact(self):
        for f in (Fraction(0), Fraction(-9), Fraction(3501, 125),
                  Fraction(-1, 10 ** 12)):
            assert rational_from_json(rational_to_json(f)) == f

    @pytest.mark.parametrize("bad", ["1/0", "-7/0"])
    def test_zero_denominator(self, bad):
        with pytest.raises(FormatError):
            rational_from_json(bad)

    @pytest.mark.parametrize("bad", ["1.5", "1/2/3", "/3", "2/", " 1/2",
                                     "0x10", "", 1.5, True, None, [1, 2],
                                     "1/2\n", "\u0661/\u0662"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(FormatError):
            rational_from_json(bad)


def square():
    return PointSet([Point(Fraction(0), Fraction(0)), Point(Fraction(4), Fraction(1)),
                     Point(Fraction(5), Fraction(5)), Point(Fraction(1), Fraction(4))])


class TestPoints:
    def test_file_round_trip(self, tmp_path):
        S = PointSet([Point(Fraction(1, 3), Fraction(-2)),
                      Point(Fraction(0), Fraction(7, 2))])
        path = tmp_path / "pts.json"
        write_points(str(path), S)
        assert read_points(str(path)).points == S.points

    def test_obj_shape(self):
        obj = points_to_obj(square())
        assert obj == {"points": [[0, 0], [4, 1], [5, 5], [1, 4]]}

    @pytest.mark.parametrize("obj", [
        [],                                   # not an object
        {"pts": []},                          # wrong key
        {"points": {}},                       # not a list
        {"points": [[1, 2, 3]]},              # triple, not a pair
        {"points": [[1]]},
        {"points": ["1,2"]},
        {"points": [[1, 2], [1, 2]]},         # duplicate point
    ])
    def test_rejects_malformed(self, obj):
        with pytest.raises(FormatError):
            points_from_obj(obj)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            read_points(str(tmp_path / "missing.json"))

    def test_invalid_json_text(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{points: oops")
        with pytest.raises(FormatError, match="not valid JSON"):
            read_points(str(path))


# Python's cap on the digits of an integer read from or written as a string;
# 0 (no cap) on an interpreter that sets none
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
beyond_limit = pytest.mark.skipif(not LIMIT, reason="no integer string limit")


class TestIntegerStringLimit:
    """Numbers past the interpreter's integer string limit surface as
    FormatError on reading and on writing, like every other file problem."""

    @beyond_limit
    def test_rational_string_past_the_limit(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [[0, 0], [1, "1" + "0" * LIMIT + "/1"],
                                               [2, 3]]}))
        with pytest.raises(FormatError, match="limit"):
            read_points(str(path))

    @beyond_limit
    def test_json_number_past_the_limit(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text('{"points": [[0, 0], [1, 1' + "0" * LIMIT + "], [2, 3]]}")
        with pytest.raises(FormatError, match="limit"):
            read_points(str(path))

    @beyond_limit
    @pytest.mark.parametrize("x", [Fraction(10 ** LIMIT), Fraction(10 ** LIMIT + 1, 3)])
    def test_writing_a_coordinate_past_the_limit(self, tmp_path, x):
        path = tmp_path / "pts.json"
        with pytest.raises(FormatError, match="limit"):
            write_points(str(path), PointSet([Point(x, Fraction(0)), pt(1, 2), pt(3, 5)]))
        assert not path.exists()

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_bytes(b'{"points": [[0, 0], [1, \xff]]}')
        with pytest.raises(FormatError, match="cannot read"):
            read_points(str(path))


class TestGraphs:
    def test_file_round_trip(self, tmp_path):
        G = Digraph(["a", "b", "c"], [(0, 1), (2, 1)])
        path = tmp_path / "g.json"
        write_graph(str(path), G)
        H = read_graph(str(path))
        assert H.vertices == G.vertices and H.arcs == G.arcs

    def test_obj_uses_labels(self):
        obj = graph_to_obj(Digraph(["u", "v"], [(0, 1)]))
        assert obj == {"vertices": ["u", "v"], "arcs": [["u", "v"]]}

    @pytest.mark.parametrize("obj", [
        {"vertices": ["a"]},                                 # arcs missing
        {"arcs": []},                                        # vertices missing
        {"vertices": "ab", "arcs": []},
        {"vertices": ["a", 1], "arcs": []},
        {"vertices": ["a", "b"], "arcs": [["a"]]},
        {"vertices": ["a", "b"], "arcs": [["a", "b", "c"]]},
        {"vertices": ["a", "b"], "arcs": [["a", 2]]},
        {"vertices": ["a", "b"], "arcs": [["a", "z"]]},      # unknown label
        {"vertices": ["a", "a"], "arcs": []},                # duplicate label
        {"vertices": ["a"], "arcs": [["a", "a"]]},           # self loop
        {"vertices": ["a", "b"], "arcs": {"a": "b"}},        # arcs not a list
    ])
    def test_rejects_malformed(self, obj):
        with pytest.raises(FormatError):
            graph_from_obj(obj)


class TestMappings:
    def setup_method(self):
        self.G = Digraph(["a", "b", "c"], [(0, 1), (1, 2)])

    def test_file_round_trip(self, tmp_path):
        m = Mapping((2, 0, 1))
        path = tmp_path / "m.json"
        write_mapping(str(path), m, self.G)
        assert read_mapping(str(path), self.G).assignment == (2, 0, 1)

    def test_obj_is_label_keyed(self):
        assert mapping_to_obj(Mapping((1, 2, 0)), self.G) == {
            "mapping": {"a": 1, "b": 2, "c": 0}}

    @pytest.mark.parametrize("obj", [
        {"mapping": [0, 1, 2]},               # list, not an object
        {"map": {"a": 0, "b": 1, "c": 2}},
        {"mapping": {"a": 0, "b": 1}},        # vertex missing
        {"mapping": {"a": 0, "b": 1, "c": 2, "d": 3}},
        {"mapping": {"a": 0, "b": 1, "c": -1}},
        {"mapping": {"a": 0, "b": 1, "c": True}},
        {"mapping": {"a": 0, "b": 1, "c": "2"}},
    ])
    def test_rejects_malformed(self, obj):
        with pytest.raises(FormatError):
            mapping_from_obj(obj, self.G)


class TestDecideResult:
    def test_with_witness(self):
        G = Digraph(["a", "b"], [(0, 1)])
        obj = decide_result_to_obj(
            DecideResult("embeddable", Mapping((0, 1)), 3), G)
        assert obj == {"result": "embeddable", "nodes_explored": 3,
                       "mapping": {"a": 0, "b": 1}}

    def test_without_witness(self):
        G = Digraph(["a"], [])
        obj = decide_result_to_obj(DecideResult("not_embeddable", None, 11), G)
        assert obj == {"result": "not_embeddable", "nodes_explored": 11}
        assert "mapping" not in obj


def _rename_p1_1(obj):
    # consistent within the graph, but not the gadget of the instance
    def rename(v):
        return "zz" if v == "p1_1" else v
    graph = obj["graph"]
    graph["vertices"] = [rename(v) for v in graph["vertices"]]
    graph["arcs"] = [[rename(t), rename(h)] for t, h in graph["arcs"]]


class TestGadgetBundles:
    def test_file_round_trip_is_exact(self, tmp_path):
        g = gen_gadget(PartitionInstance(3, (1,) * 6))
        path = tmp_path / "bundle.json"
        write_gadget(str(path), g)
        h = read_gadget(str(path))
        assert h.instance == g.instance
        assert h.graph.vertices == g.graph.vertices
        assert h.graph.arcs == g.graph.arcs
        assert h.points.points == g.points.points  # b's 1/125 survives
        assert h.groups == g.groups
        assert h.b_index == g.b_index and h.t_index == g.t_index
        assert h == g

    def test_serialized_rational_is_a_string(self, tmp_path):
        g = gen_gadget(PartitionInstance(3, (1,) * 6))
        path = tmp_path / "bundle.json"
        write_gadget(str(path), g)
        raw = json.loads(path.read_text())
        bx = raw["points"]["points"][raw["b"]][0]
        assert bx == "3501/125"

    @pytest.mark.parametrize("mutate", [
        lambda o: o.pop("instance"),
        lambda o: o.pop("groups"),
        lambda o: o["instance"].pop("B"),
        lambda o: o.update(b="zero"),
        lambda o: o["instance"].update(A=["x"] * 6),
        lambda o: o["instance"].update(A=[True] * 6),  # int() reads true as 1
        lambda o: o["instance"].update(B=True),
        lambda o: o.update(b=True),
        lambda o: o["instance"].update(A=[1.5] * 6),  # int() reads 1.5 as 1
        lambda o: o["groups"][0].__setitem__(0, 0.5),
        lambda o: o.update(b=999),  # the set has 10 points
        _rename_p1_1,
        lambda o: o.update(extra=0),
        lambda o: o["groups"][0].__setitem__(1, True),  # the bundle holds 1
        lambda o: o["groups"][0].__setitem__(1, 1.0),
    ])
    def test_rejects_malformed(self, mutate):
        obj = gadget_to_obj(gen_gadget(PartitionInstance(3, (1,) * 6)))
        mutate(obj)
        with pytest.raises(FormatError):
            gadget_from_obj(obj)

    @pytest.mark.parametrize("obj", [[], "gadget", None])
    def test_rejects_a_bundle_that_is_not_an_object(self, obj):
        with pytest.raises(FormatError, match="must be an object"):
            gadget_from_obj(obj)

    def test_a_bundle_too_short_for_its_instance_builds_nothing(self, monkeypatch):
        # a gadget lists its m(B + 1) + 2 vertex labels; this one would have
        # 10^9 + 3 points
        def build(inst):
            raise AssertionError("built the gadget of a bundle too short to match it")
        monkeypatch.setattr("upse.constructions.gen_gadget", build)
        obj = gadget_to_obj(gen_gadget(PartitionInstance(3, (1,) * 6)))
        obj["instance"] = {"B": 10 ** 9, "A": [333_333_334, 333_333_333, 333_333_333]}
        with pytest.raises(FormatError, match="differs from the gadget"):
            gadget_from_obj(obj)

    def test_rejects_inconsistent_instance(self):
        # items violate the B/4 < a < B/2 window after editing
        obj = gadget_to_obj(gen_gadget(PartitionInstance(3, (1,) * 6)))
        obj["instance"]["A"] = [2] * 6
        with pytest.raises(FormatError):
            gadget_from_obj(obj)


_G = Digraph(["a", "b", "c"], [(0, 1), (1, 2)])
READERS = {
    "points": (points_from_obj,
               points_to_obj(PointSet([pt(0, 0), pt("7/2", "1/3"), pt(-1, 5)]))),
    "graph": (graph_from_obj, graph_to_obj(_G)),
    "mapping": (lambda obj: mapping_from_obj(obj, _G),
                mapping_to_obj(Mapping((2, 0, 1)), _G)),
    "gadget": (gadget_from_obj, gadget_to_obj(gen_gadget(PartitionInstance(3, (1,) * 6)))),
}
LEAVES = (0, 1, -1, 3, 10 ** 30, True, False, 0.5, -2.0, float("inf"), None,
          "", "a", "0/0", "1/2", "-3/4", "x/y", [], [0], [0, 1], ["a", "b"],
          [[0, 0]], {}, {"a": 0}, {"points": []})


def _positions(obj, at=()):
    """The path of keys and indices to every value inside obj."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    out = []
    for key, value in items:
        out.append(at + (key,))
        out += _positions(value, at + (key,))
    return out


@st.composite
def damaged_objects(draw):
    """A valid object of one file kind with one or two values inside it
    replaced by a leaf of another shape, or deleted."""
    kind = draw(st.sampled_from(sorted(READERS)))
    obj = copy.deepcopy(READERS[kind][1])
    for _ in range(draw(st.integers(1, 2))):
        where = _positions(obj)
        if not where:
            break
        *up, last = draw(st.sampled_from(where))
        parent = obj
        for key in up:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(LEAVES)))
    return kind, obj


class TestDamagedObjectsRaiseOnlyFormatError:
    """Every reader either returns or raises FormatError, whatever one or two
    values inside a valid object turn into."""

    @settings(max_examples=400, deadline=None)
    @given(damaged_objects())
    def test_reader_returns_or_raises_format_error(self, case):
        kind, obj = case
        try:
            READERS[kind][0](obj)
        except FormatError:
            pass
