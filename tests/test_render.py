import hashlib
import re
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayswitch import analysis, engine
from delayswitch.engine import SimTrace
from delayswitch.render import _projection, render_trajectory
from pathcheck import projected_path, vertices


def polyline_points(svg: str) -> list[str]:
    return polyline_attribute(svg).split()


def polyline_attribute(svg: str) -> str:
    m = re.search(r'<polyline class="trajectory" points="([^"]*)"', svg)
    assert m, "trajectory polyline missing"
    return m.group(1)


def test_single_vertex_trace_gets_a_unit_time_range():
    trace = SimTrace(F(1), ((0, 0, "hit"),))
    svg = render_trajectory(engine.Undetermined(0, trace), width=300, height=200)
    to_px, (t0, t1, *_) = _projection(0.0, 0.0, {0.0}, 300, 200)
    assert (t0, t1) == (0.0, 1.0)
    assert polyline_points(svg) == ["%.2f,%.2f" % to_px(0.0, 0.0)]
    # the guide lines span the plot area, t = 0 to t = 1
    assert '<line x1="48.00" y1="152.00" x2="252.00" y2="152.00"' in svg


def test_single_vertex_trace_past_2_to_the_53_gets_one_float_step():
    # t0 + 1.0 == t0 once t0 >= 2^53, so a unit widening would divide by zero
    trace = SimTrace(F(1), ((2**60, 0, "hit"),))
    svg = render_trajectory(engine.Undetermined(0, trace), width=300, height=200)
    to_px, (t0, t1, *_) = _projection(2.0**60, 2.0**60, {0.0}, 300, 200)
    assert (t0, t1) == (2.0**60, 2.0**60 + 256.0)
    assert polyline_points(svg) == ["%.2f,%.2f" % to_px(2.0**60, 0.0)] == ["48.00,152.00"]
    # at the largest float, one step further is past the float range
    at_max = SimTrace(F(1), ((int(sys.float_info.max), 0, "hit"),))
    with pytest.raises(ValueError, match="past the float range"):
        render_trajectory(engine.Undetermined(0, at_max))


def test_single_segment_trace():
    trace = SimTrace(F(1), ((0, 0, "hit"), (1, 1, "hit")))
    svg = render_trajectory(engine.Undetermined(0, trace), width=300, height=200)
    pts = polyline_points(svg)
    to_px, _ = _projection(0.0, 1.0, {0.0, 1.0}, 300, 200)
    assert pts == ["%.2f,%.2f" % to_px(0.0, 0.0), "%.2f,%.2f" % to_px(1.0, 1.0)]


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        render_trajectory(engine.Undetermined(0, SimTrace(F(1), ())))


def test_a_trajectory_past_the_float_range_is_refused():
    with pytest.raises(ValueError, match="past the float range"):
        render_trajectory(engine.run(F(10**400)))


def test_a_ray_ending_past_the_float_range_is_refused():
    # 1.7e308 is a float, but the ray drawn a tenth of the time range past
    # it is not, and a ray end of inf would be drawn as nan
    outcome = engine.run(F(17 * 10**307))
    assert isinstance(outcome, engine.Divergent)
    with pytest.raises(ValueError, match="the trajectory runs past the float range"):
        render_trajectory(outcome)


def test_a_size_past_the_float_range_is_refused():
    # the scales divide the size by the data's span: 10**400 has no float
    outcome = engine.run(F(4, 3))
    for size in ({"width": 10**400}, {"height": 10**400}, {"width": float("inf")}):
        with pytest.raises(ValueError, match="width and height must lie in the float range"):
            render_trajectory(outcome, **size)


def test_a_scale_past_the_float_range_is_refused():
    # 10**308 is a float, but spread over the 1/10 time units of one switch
    # it scales past the float range, which would write inf and nan
    outcome = engine.run(F(1, 10), max_switches=1)
    with pytest.raises(ValueError, match="scale runs past the float range"):
        render_trajectory(outcome, width=10**308)


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
    ts, xs = vertices(outcome)
    to_px, _ = _projection(ts[0], ts[-1], xs, 900, 380)
    for point in outcome.turning_points:
        assert "%.2f,%.2f" % to_px(float(point.beta), float(point.alpha)) in pts


def test_coinciding_events_collapse_to_one_vertex():
    outcome = engine.run(F(4, 3))
    points = polyline_points(render_trajectory(outcome))
    assert len(points) == len(set(points)) == len(vertices(outcome)[0])


def test_rows_equal_as_floats_merge_into_one_vertex():
    # with tau = 1 a row reads as the floats (T, X); 2**60 + 1 and + 2 round
    # to 2**60, so three rows unequal as ints are one vertex
    big = 2**60
    rows = ((0, 0, "hit"), (big, big, "hit"), (big + 1, big + 1, "switch"), (big + 2, big, "hit"))
    outcome = engine.Undetermined(0, SimTrace(F(1), rows))
    path = polyline_attribute(render_trajectory(outcome))
    assert len(path.split()) == 2
    assert path == projected_path(outcome, 900, 380)


def test_rows_at_one_float_time_apart_in_position_stay_two_vertices():
    big = 2**60
    rows = ((0, 0, "hit"), (big, 0, "hit"), (big + 1, 1, "switch"))
    outcome = engine.Undetermined(0, SimTrace(F(1), rows))
    path = polyline_attribute(render_trajectory(outcome))
    assert len(path.split()) == 3
    assert path == projected_path(outcome, 900, 380)


# every critical delay's trace holds a hit and a switch at one instant, which
# the path draws as one vertex
@pytest.mark.parametrize("kind", list(analysis.CriticalKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("k", range(1, 41))
def test_coinciding_rows_of_critical_delays_match_the_per_vertex_projection(kind, k):
    outcome = engine.run(analysis.critical_value(kind, k))
    rows = outcome.trace.rows
    assert any(a[0] == b[0] for a, b in zip(rows, rows[1:]))
    svg = render_trajectory(outcome)
    assert polyline_attribute(svg) == projected_path(outcome, 900, 380)


def test_divergent_ray_and_marker():
    divergent = engine.run(F(63, 43))
    svg = render_trajectory(divergent)
    assert 'marker-end="url(#ray-arrow)"' in svg
    ts, xs = vertices(divergent)
    assert ts[-1] > ts[-2] and xs[-1] < xs[-2]  # descending tail
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


def test_title_with_a_character_xml_cannot_carry_is_refused():
    outcome = engine.run(F(4, 3))
    for bad in ("a\x01b", "\x00", "\x0b\x0c", "a\x1f", "\ufffe", "\uffff", "\ud800"):
        with pytest.raises(ValueError, match="XML cannot carry"):
            render_trajectory(outcome, title=bad)
    # tab, LF and CR are XML characters, as are DEL and astral characters
    title = "a\tb\nc\rd\x7f\U0001d70f"
    root = ET.fromstring(render_trajectory(outcome, title=title).encode("utf-8"))
    texts = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a\tb\nc\nd\x7f\U0001d70f" in texts  # parsers read CR as LF


def _replay(tau, switches):
    trace = engine.simulate_switches(tau, switches)
    return engine.Undetermined(len(trace.turning_points), trace)


# delays below, inside and above the window [4/3, 3/2), periodic and divergent,
# run to their outcome, cut short, or replayed for a few switches
@st.composite
def outcomes(draw):
    tau = draw(
        st.one_of(
            st.fractions(F(4, 3), F(3, 2), max_denominator=10**7),
            st.fractions(F(1, 5), F(5), max_denominator=10**6),
        )
    )
    switches = draw(st.integers(min_value=1, max_value=200))
    how = draw(st.sampled_from(["run", "cut", "replay"]))
    if how == "replay":
        return _replay(tau, switches)
    return engine.run(tau, switches if how == "cut" else None)


@settings(max_examples=150, deadline=None)
@given(outcomes(), st.integers(97, 4000), st.integers(97, 4000))
def test_path_matches_a_per_vertex_projection(outcome, width, height):
    # the path formats each level once; each vertex must read as to_px
    # formats it alone, and the vertex times must come in order, since the
    # path reads the time range off the first and last rows
    ts, _ = vertices(outcome)
    assert ts == sorted(ts)
    svg = render_trajectory(outcome, width=width, height=height)
    assert polyline_attribute(svg) == projected_path(outcome, width, height)


# sha256 of renders far longer than the golden files, whose paths hold at
# most 23 vertices: a 2,000-switch replay of a delay with a 7-digit
# denominator (4,000 vertices), a divergent ray with labels, tau_20, whose
# hit and switch rows coincide at a denominator of about 7e11, and a
# 20,000-switch replay (40,000 vertices)
@pytest.mark.parametrize(
    "outcome, kwargs, digest",
    [
        pytest.param(
            lambda: _replay(F(3941071, 3105281), 2000),
            {"title": "tau = 3941071/3105281"},
            "e013444f2aa5c2519aba6ba43fcb235c632598994834a4813d0e3d9afb539bea",
            id="replay-2000",
        ),
        pytest.param(
            lambda: engine.run(F(63, 43)),
            {"label_indices": (1, 4, 7), "title": "tau = 63/43 & <ray>"},
            "3bb451e753d8d4a1055c41f8372439af59f2f9121c00ec826b7376f788ad35a1",
            id="divergent-labelled",
        ),
        pytest.param(
            lambda: engine.run(analysis.critical_value(analysis.CriticalKind.TAU, 20)),
            {},
            "23eb13a89f974b2ce48318ede945361abd4089c3f878f8c852552e3a98fe8107",
            id="tau_20",
        ),
        # a benchmark-sized replay: 40,000 vertices on 6 levels
        pytest.param(
            lambda: _replay(F(11699476, 9778863), 20000),
            {"title": "tau = 11699476/9778863"},
            "6aa3bce461ef7e40055a73a6e0dfc064d2e73fec2901c014490979d1f0a4016b",
            id="replay-20000",
        ),
    ],
)
def test_long_renders_keep_their_bytes(outcome, kwargs, digest):
    svg = render_trajectory(outcome(), **kwargs)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest
