"""SVG output: determinism, element counts, precision, and canvas fitting."""

import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upse import (Digraph, Mapping, Point, PointSet, RenderSpec, SizeMismatch,
                  embed_switch_tree, render_svg, verify_upse)

from helpers import canvas_positions, random_convex, random_switch_tree

NUMBER = re.compile(r"-?\d+\.?\d*(?:e[+-]?\d+)?")


def fan_points():
    return PointSet([Point(Fraction(0), Fraction(0)),
                     Point(Fraction(-3), Fraction(2)),
                     Point(Fraction(1), Fraction(3)),
                     Point(Fraction(4), Fraction(5))])


def fan_graph():
    # out-star from the bottom vertex
    return Digraph(["r", "a", "b", "c"], [(0, 1), (0, 2), (0, 3)])


class TestSpecValidation:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            RenderSpec(width=0)
        with pytest.raises(ValueError):
            RenderSpec(vertex_radius=-1)

    @pytest.mark.parametrize("field", [{"width": "800"}, {"height": 600.0},
                                       {"margin": True}, {"arrow_size": None},
                                       {"labels": "no"}, {"labels": 1}])
    def test_rejects_wrong_types(self, field):
        # "800" would reach min() as a raw TypeError, and "no" would label
        with pytest.raises(ValueError):
            RenderSpec(**field)

    def test_rejects_margin_eating_the_canvas(self):
        with pytest.raises(ValueError):
            RenderSpec(width=100, height=300, margin=50)


class TestPointsOnly:
    def test_circle_per_point_no_arrows(self):
        svg = render_svg(fan_points())
        assert svg.count("<circle") == 4
        assert "<line" not in svg and "<polygon" not in svg

    def test_is_a_standalone_document(self):
        svg = render_svg(fan_points())
        assert svg.startswith("<svg xmlns=")
        assert svg.rstrip().endswith("</svg>")

    def test_deterministic(self):
        S = random_convex(random.Random(5), 9)
        assert render_svg(S) == render_svg(S)

    def test_single_point_sits_at_canvas_center(self):
        svg = render_svg(PointSet([Point(Fraction(17), Fraction(-4))]))
        assert 'cx="400" cy="300"' in svg


class TestDrawings:
    def test_arrow_per_arc(self):
        m = Mapping((0, 1, 2, 3))
        svg = render_svg(fan_points(), fan_graph(), m)
        assert svg.count("<circle") == 4
        assert svg.count("<line") == 3
        assert svg.count("<polygon") == 3

    def test_arcs_point_upward_on_canvas(self):
        # SVG y grows downward, so the head end must have smaller y
        m = Mapping((0, 1, 2, 3))
        svg = render_svg(fan_points(), fan_graph(), m)
        for line in re.findall(r"<line [^/]*/>", svg):
            y1 = float(re.search(r'y1="([^"]+)"', line).group(1))
            y2 = float(re.search(r'y2="([^"]+)"', line).group(1))
            assert y2 < y1

    def test_embedder_output_renders(self):
        rng = random.Random(11)
        G = random_switch_tree(rng, 8)
        S = random_convex(rng, 8)
        m = embed_switch_tree(G, S)
        svg = render_svg(S, G, m)
        assert svg.count("<circle") == 8
        assert svg.count("<line") == 7


class TestLabels:
    def test_point_indices_by_default(self):
        svg = render_svg(fan_points(), spec=RenderSpec(labels=True))
        assert svg.count("<text") == 4
        assert ">0</text>" in svg and ">3</text>" in svg

    def test_vertex_names_under_a_mapping(self):
        svg = render_svg(fan_points(), fan_graph(), Mapping((1, 0, 2, 3)),
                         RenderSpec(labels=True))
        assert ">r</text>" in svg and ">a</text>" in svg
        assert ">0</text>" not in svg

    def test_markup_in_names_is_escaped(self):
        G = Digraph(["a<b", "c&d", 'e">', "f"], [(0, 1), (0, 2), (0, 3)])
        svg = render_svg(fan_points(), G, Mapping((0, 1, 2, 3)),
                         RenderSpec(labels=True))
        root = ET.fromstring(svg)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert sorted(texts) == sorted(G.vertices)


class TestPrecisionAndFit:
    def test_six_significant_digits(self):
        # thirds produce repeating decimals; %.6g must clip every one
        S = PointSet([Point(Fraction(1, 3), Fraction(2, 3)),
                      Point(Fraction(-5, 7), Fraction(9, 11)),
                      Point(Fraction(2), Fraction(4))])
        svg = render_svg(S)
        for token in NUMBER.findall(svg):
            digits = token.split("e")[0].lstrip("-").replace(".", "").lstrip("0")
            assert len(digits) <= 6, token

    def test_all_points_inside_margins(self):
        rng = random.Random(3)
        for wide in (True, False):
            pts = [Point(Fraction(rng.randrange(-500, 500) * (100 if wide else 1)),
                         Fraction(rng.randrange(-500, 500)))
                   for _ in range(12)]
            S = PointSet(list(dict.fromkeys(pts)))
            spec = RenderSpec(width=640, height=480, margin=30)
            svg = render_svg(S, spec=spec)
            for c in re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg):
                x, y = float(c[0]), float(c[1])
                assert 30 - 1e-6 <= x <= 610 + 1e-6
                assert 30 - 1e-6 <= y <= 450 + 1e-6

    def test_aspect_ratio_preserved(self):
        # a 2:1 data box scaled into a square canvas keeps 2:1 on screen
        S = PointSet([Point(Fraction(0), Fraction(0)), Point(Fraction(20), Fraction(1)),
                      Point(Fraction(20), Fraction(10)), Point(Fraction(0), Fraction(9))])
        svg = render_svg(S, spec=RenderSpec(width=400, height=400, margin=50))
        xs, ys = [], []
        for c in re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg):
            xs.append(float(c[0]))
            ys.append(float(c[1]))
        spanx = max(xs) - min(xs)
        spany = max(ys) - min(ys)
        assert spanx == pytest.approx(2 * spany, rel=1e-4)


class TestMappingFit:
    """A mapping that does not place every vertex on a point of the set is
    refused as verify_upse refuses it, before anything is drawn."""

    @pytest.mark.parametrize("G, assignment", [
        (Digraph(["a", "b", "c"], [(0, 1), (1, 2)]), (0, 1)),     # too short
        (fan_graph(), (0, 1, 2, 3, 0)),                           # too long
        (Digraph(["a", "b", "c"], [(0, 1), (1, 2)]), (0, 1, 4)),  # past the set
        (fan_graph(), (0, 1, 2, 9)),
    ])
    def test_refused_like_verify(self, G, assignment):
        m = Mapping(assignment)
        with pytest.raises(SizeMismatch) as drawn:
            render_svg(fan_points(), G, m)
        with pytest.raises(SizeMismatch) as verified:
            verify_upse(G, fan_points(), m)
        assert str(drawn.value) == str(verified.value)


SPECS = (RenderSpec(labels=True),
         RenderSpec(width=640, height=480, margin=30, vertex_radius=5, arrow_size=8,
                    labels=True),
         RenderSpec(width=123, height=977, margin=7, vertex_radius=1, arrow_size=3,
                    labels=True))


@st.composite
def fit_cases(draw):
    """A point set of 1 to 8 points, possibly with equal xs or equal ys, with
    int or Fraction coordinates scaled by 10^0, 10^300 or 10^-300, and a spec."""
    shape = draw(st.sampled_from(("free", "equal x", "equal y")))
    coord = st.integers(-50, 50)
    raw = set()
    for _ in range(draw(st.integers(1, 8))):
        x, y = draw(coord), draw(coord)
        raw.add((7 if shape == "equal x" else x, -3 if shape == "equal y" else y))
    scale = Fraction(10) ** draw(st.sampled_from((0, 300, -300)))
    if scale.denominator == 1 and draw(st.booleans()):
        k = int(scale)
        pts = [(x * k, y * k) for x, y in raw]
    else:
        den = draw(st.integers(1, 9))
        pts = [(Fraction(x, den) * scale, Fraction(y, den) * scale) for x, y in raw]
    return PointSet(pts), draw(st.sampled_from(SPECS))


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class TestExactFit:
    """Every circle and label sits where the exact fit puts it, rounded once."""

    @staticmethod
    def assert_fitted(S, spec):
        svg = render_svg(S, spec=spec)
        r = spec.vertex_radius
        exact = [(float(cx), float(cy)) for cx, cy in canvas_positions(S, spec)]
        assert re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg) == \
            [(_fmt(cx), _fmt(cy)) for cx, cy in exact]
        assert re.findall(r'<text x="([^"]+)" y="([^"]+)"', svg) == \
            [(_fmt(cx + r + 2), _fmt(cy - r)) for cx, cy in exact]

    def test_integer_coordinates_beyond_float_range(self):
        self.assert_fitted(PointSet([(0, 0), (10 ** 400, 1), (3, 7)]), SPECS[0])

    def test_integer_midpoints_beyond_two_to_the_53(self):
        big = 2 ** 60
        self.assert_fitted(PointSet([(big + 1, 0), (big + 4, 3), (big, 1)]), SPECS[1])

    @settings(max_examples=200, deadline=None)
    @given(fit_cases())
    def test_matches_the_point_by_point_fit(self, case):
        self.assert_fitted(*case)
