import re
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from delayswitch import engine
from delayswitch.engine import SimTrace
from delayswitch.render import _vertices, _viewport, render_trajectory


def polyline_points(svg: str) -> list[str]:
    m = re.search(r'<polyline class="trajectory" points="([^"]*)"', svg)
    assert m, "trajectory polyline missing"
    return m.group(1).split()


def test_single_segment_trace():
    trace = SimTrace(F(1), ((0, 0, "hit"), (1, 1, "hit")))
    svg = render_trajectory(engine.Undetermined(0, trace), width=300, height=200)
    pts = polyline_points(svg)
    vp = _viewport([(0.0, 0.0), (1.0, 1.0)], 300, 200)
    assert pts == [vp.point_attr(0.0, 0.0), vp.point_attr(1.0, 1.0)]


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        render_trajectory(engine.Undetermined(0, SimTrace(F(1), ())))


def test_byte_determinism():
    outcome = engine.run(F(64, 43))
    first = render_trajectory(outcome, label_indices=(5, 7), title="tau = 64/43")
    second = render_trajectory(outcome, label_indices=(5, 7), title="tau = 64/43")
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_turning_points_are_vertices():
    outcome = engine.run(F(64, 43))
    svg = render_trajectory(outcome)
    pts = set(polyline_points(svg))
    vertices = _vertices(outcome)
    vp = _viewport(vertices, 900, 380)
    for point in outcome.turning_points:
        assert vp.point_attr(float(point.beta), float(point.alpha)) in pts


def test_coinciding_events_collapse_to_one_vertex():
    outcome = engine.run(F(4, 3))
    vertices = _vertices(outcome)
    assert len(vertices) == len(set(vertices))


def test_divergent_ray_and_marker():
    divergent = engine.run(F(63, 43))
    svg = render_trajectory(divergent)
    assert 'marker-end="url(#ray-arrow)"' in svg
    vertices = _vertices(divergent)
    last, prev = vertices[-1], vertices[-2]
    assert last[0] > prev[0] and last[1] < prev[1]  # descending tail
    periodic_svg = render_trajectory(engine.run(F(4, 3)))
    assert "marker-end" not in periodic_svg


def test_guides_and_labels():
    outcome = engine.run(F(4, 3))
    svg = render_trajectory(outcome, label_indices=(1, 3), title="demo")
    assert svg.count("stroke-dasharray") == 2  # x = 0 and x = 1 guides
    assert "&#945;1" in svg and "&#945;3" in svg
    assert ">demo<" in svg
    for bad in (0, 99):  # 1-based indices of the 7 turning points
        with pytest.raises(ValueError, match="label index"):
            render_trajectory(outcome, label_indices=(1, bad))


def test_svg_element_subset():
    svg = render_trajectory(engine.run(F(63, 43)), label_indices=(1,))
    tags = set(re.findall(r"<([a-zA-Z][a-zA-Z0-9]*)", svg))
    assert tags <= {"svg", "defs", "marker", "line", "polyline", "text"}


def test_title_is_escaped():
    svg = render_trajectory(engine.run(F(4, 3)), title="a<b & c")
    root = ET.fromstring(svg)
    texts = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a<b & c" in texts

