"""Deterministic SVG rendering of simulated trajectories.

Time runs along the horizontal axis, position along the vertical; the piece-
wise-linear path goes through every event point (turning points plus interior
boundary hits), guide lines mark x = 0 and x = 1, and selected turning points
can be labeled.  Divergent traces get a final ray drawn out to the plot edge
with an arrow marker.  Output is plain SVG 1.1 text built from line, polyline,
text and marker elements; coordinates are converted to decimal for layout
only and formatted with fixed precision, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Divergent, Outcome, SimTrace

DEFAULT_WIDTH = 900
DEFAULT_HEIGHT = 380
_PAD = 48.0  # pixel margin around the plot area


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """XML character data for ``text``: ``xml.sax.saxutils.escape`` without
    importing ``xml.sax``, which would slow down every CLI start."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass(frozen=True)
class Viewport:
    """Affine map from data coordinates (t, x) to pixel coordinates."""

    width: int
    height: int
    t0: float
    t1: float
    x0: float
    x1: float

    def to_px(self, t: float, x: float) -> tuple[float, float]:
        sx = (self.width - 2 * _PAD) / (self.t1 - self.t0)
        sy = (self.height - 2 * _PAD) / (self.x1 - self.x0)
        return (_PAD + (t - self.t0) * sx, self.height - _PAD - (x - self.x0) * sy)

    def point_attr(self, t: float, x: float) -> str:
        px, py = self.to_px(t, x)
        return f"{_fmt(px)},{_fmt(py)}"


def fit_viewport(points, width: int, height: int) -> Viewport:
    """Viewport covering all points plus the two guide levels 0 and 1."""
    ts = [p[0] for p in points]
    xs = [p[1] for p in points] + [0.0, 1.0]
    t0, t1 = min(ts), max(ts)
    x0, x1 = min(xs), max(xs)
    if t0 == t1:
        t1 = t0 + 1.0
    return Viewport(width, height, t0, t1, x0, x1)


def _sim_trace(trace: Outcome | SimTrace) -> SimTrace:
    return trace if isinstance(trace, SimTrace) else trace.trace


def trajectory_vertices(trace: Outcome | SimTrace) -> list[tuple[float, float]]:
    """Polyline vertices for an engine Outcome or SimTrace: every event
    point, consecutive duplicates merged, plus the ray endpoint for
    divergent outcomes.

    Vertices are read off the scaled rows as T/q, X/q; int true division
    rounds correctly, so they equal the floats of the Fraction events.
    """
    sim = _sim_trace(trace)
    q = sim.tau.denominator
    points: list[tuple[float, float]] = []
    for t, x, _ in sim.rows:
        pt = (t / q, x / q)
        if not points or points[-1] != pt:  # hit+switch at one instant: one vertex
            points.append(pt)
    if not points:
        raise ValueError("empty trace")
    if isinstance(trace, Divergent):
        t_last, x_last = points[-1]
        span = max(1.0, 0.1 * (t_last - points[0][0]))
        points.append((t_last + span, x_last + trace.direction * span))
    return points


def render_trajectory(
    trace: Outcome | SimTrace,
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
    label_indices=(),
    title: str | None = None,
) -> str:
    """Render an engine Outcome or SimTrace as deterministic SVG text.

    ``label_indices`` selects 1-based turning-point indices to annotate.
    Raises ValueError on an empty trace.
    """
    vertices = trajectory_vertices(trace)
    vp = fit_viewport(vertices, width, height)
    divergent = isinstance(trace, Divergent)
    lines: list[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    lines.append(
        '<defs><marker id="ray-arrow" markerWidth="10" markerHeight="10" '
        'refX="7" refY="3.5" orient="auto">'
        '<polyline points="0,0 7,3.5 0,7" fill="none" stroke="#000000" stroke-width="1"/>'
        "</marker></defs>"
    )
    if title:
        lines.append(
            f'<text x="{_fmt(_PAD)}" y="20.00" font-family="monospace" '
            f'font-size="14">{_escape(title)}</text>'
        )
    for level, name in ((0.0, "0"), (1.0, "1")):
        (px0, py) = vp.to_px(vp.t0, level)
        (px1, _) = vp.to_px(vp.t1, level)
        lines.append(
            f'<line x1="{_fmt(px0)}" y1="{_fmt(py)}" x2="{_fmt(px1)}" y2="{_fmt(py)}" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        lines.append(
            f'<text x="{_fmt(px0 - 16.0)}" y="{_fmt(py + 4.0)}" '
            f'font-family="monospace" font-size="12">{name}</text>'
        )
    axis_x, axis_y = vp.to_px(vp.t1, 0.0)
    lines.append(
        f'<text x="{_fmt(axis_x + 4.0)}" y="{_fmt(axis_y + 4.0)}" '
        'font-family="monospace" font-size="12">t</text>'
    )
    top_x, top_y = vp.to_px(vp.t0, vp.x1)
    lines.append(
        f'<text x="{_fmt(top_x - 16.0)}" y="{_fmt(top_y - 6.0)}" '
        'font-family="monospace" font-size="12">x</text>'
    )
    marker = ' marker-end="url(#ray-arrow)"' if divergent else ""
    path = " ".join(vp.point_attr(t, x) for t, x in vertices)
    lines.append(
        f'<polyline class="trajectory" points="{path}" '
        f'fill="none" stroke="#000000" stroke-width="1.5"{marker}/>'
    )
    sim = _sim_trace(trace)
    q, turning = sim.tau.denominator, sim.switches if label_indices else []
    for j in label_indices:
        if not 1 <= j <= len(turning):
            continue
        t, x = turning[j - 1]
        px, py = vp.to_px(t / q, x / q)
        lines.append(
            f'<text x="{_fmt(px + 5.0)}" y="{_fmt(py - 6.0)}" '
            f'font-family="monospace" font-size="12">&#945;{j}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
