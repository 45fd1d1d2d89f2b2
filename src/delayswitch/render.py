"""Deterministic SVG rendering of simulated trajectories.

Time runs along the horizontal axis, position along the vertical; the piece-
wise-linear path goes through every event point (turning points plus interior
boundary hits), guide lines mark x = 0 and x = 1, and selected turning points
can be labeled.  Divergent traces get a final ray drawn out to the plot edge
with an arrow marker.  Output is plain SVG 1.1 text built from line, polyline,
text and marker elements; coordinates are converted to decimal for layout
only and formatted with fixed precision, so identical inputs produce
byte-identical files.  A path's positions are formatted once per level: a
periodic path of any length visits only the few turning values of its
period and the levels 0 and 1.
"""

from __future__ import annotations

import math
import sys

from .engine import Divergent, Outcome

DEFAULT_WIDTH = 900
DEFAULT_HEIGHT = 380
_PAD = 48.0  # pixel margin around the plot area


def _escape(text: str) -> str:
    """XML character data for ``text``: ``xml.sax.saxutils.escape`` without
    importing ``xml.sax``, which would slow down every CLI start."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x: float, y: float, body: str, size: int = 12) -> str:
    """A monospace ``<text>`` element at pixel (x, y); ``body`` is markup."""
    return f'<text x="{x:.2f}" y="{y:.2f}" font-family="monospace" font-size="{size}">{body}</text>'


def _projection(ts: list[float], levels, width: int, height: int):
    """Affine map from data (t, x) to pixels, fitted to the vertex times
    ``ts``, in time order, and the positions ``levels`` (any collection of
    them) plus the guide levels 0 and 1.  Returns ``to_px`` and the ranges
    and scales it applies, ``(t0, t1, x0, x1, sx, sy)``: a point maps to
    ``_PAD + (t - t0) * sx, height - _PAD - (x - x0) * sy``.  A scale past
    the float range, as from a huge size over a short span, raises
    ValueError."""
    t0, t1 = ts[0], ts[-1]
    x0, x1 = min(min(levels), 0.0), max(max(levels), 1.0)
    if t0 == t1:
        t1 = t0 + 1.0
    sx = (width - 2 * _PAD) / (t1 - t0)
    sy = (height - 2 * _PAD) / (x1 - x0)
    if not (math.isfinite(sx) and math.isfinite(sy)):
        raise ValueError("the plot's scale runs past the float range")

    def to_px(t: float, x: float) -> tuple[float, float]:
        return _PAD + (t - t0) * sx, height - _PAD - (x - x0) * sy

    return to_px, (t0, t1, x0, x1, sx, sy)


def _vertices(outcome: Outcome) -> tuple[list[float], list[float]]:
    """Polyline vertices of an engine Outcome as columns ``(ts, xs)``: every
    event point, consecutive duplicates merged, plus the ray endpoint for
    divergent outcomes.

    Vertices are read off the scaled rows as T/q, X/q; int true division
    rounds correctly, so they equal the floats of the Fraction events.
    """
    sim = outcome.trace
    q = sim.tau.denominator
    ts: list[float] = []
    xs: list[float] = []
    last = None
    for t, x, _ in sim.rows:
        try:
            point = (t / q, x / q)
        except OverflowError:
            raise ValueError("the trajectory runs past the float range") from None
        if point != last:  # hit+switch at one instant: one vertex
            ts.append(point[0])
            xs.append(point[1])
            last = point
    if not ts:
        raise ValueError("empty trace")
    if isinstance(outcome, Divergent):
        span = max(1.0, 0.1 * (ts[-1] - ts[0]))
        ts.append(ts[-1] + span)
        xs.append(xs[-1] + outcome.direction * span)
    return ts, xs


def render_trajectory(
    outcome: Outcome,
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
    label_indices=(),
    title: str | None = None,
) -> str:
    """Render an engine Outcome as deterministic SVG text.

    ``label_indices`` selects 1-based turning-point indices to annotate.
    Raises ValueError on an empty trace, on a trajectory past the float
    range, on a width or height of at most twice the margin, past the float
    range or scaling the trajectory past it, on a label index outside the
    turning points, and on a title holding a character XML 1.0 cannot
    carry, such as U+0001.
    """
    if min(width, height) <= 2 * _PAD:
        raise ValueError(f"width and height must exceed {2 * _PAD:.0f} px")
    if max(width, height) > sys.float_info.max:
        raise ValueError("width and height must lie in the float range")
    for char in title or "":
        # no escape carries these in XML 1.0: see its Char production
        control = char < " " and char not in "\t\n\r"
        if control or "\ud800" <= char <= "\udfff" or char in "\ufffe\uffff":
            raise ValueError(f"the title holds U+{ord(char):04X}, which XML cannot carry")
    turning = outcome.trace.switches if label_indices else []
    for j in label_indices:
        if not 1 <= j <= len(turning):
            raise ValueError(f"label index {j} is outside 1..{len(turning)}")
    ts, xs = _vertices(outcome)
    levels = set(xs)
    to_px, (t0, t1, x0, x1, sx, sy) = _projection(ts, levels, width, height)
    divergent = isinstance(outcome, Divergent)
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
        lines.append(_text(_PAD, 20.0, _escape(title), 14))
    for level, name in ((0.0, "0"), (1.0, "1")):
        px0, py = to_px(t0, level)
        px1, _ = to_px(t1, level)
        lines.append(
            f'<line x1="{px0:.2f}" y1="{py:.2f}" x2="{px1:.2f}" y2="{py:.2f}" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        lines.append(_text(px0 - 16.0, py + 4.0, name))
    axis_x, axis_y = to_px(t1, 0.0)
    lines.append(_text(axis_x + 4.0, axis_y + 4.0, "t"))
    top_x, top_y = to_px(t0, x1)
    lines.append(_text(top_x - 16.0, top_y - 6.0, "x"))
    marker = ' marker-end="url(#ray-arrow)"' if divergent else ""
    # to_px inlined over the columns, in its order of operations, with each
    # level's y formatted once.  The dict merges 0.0 and -0.0, which give the
    # same y; no vertex is NaN, as the rows are ints.
    bottom = height - _PAD
    y_text = {x: "%.2f" % (bottom - (x - x0) * sy) for x in levels}
    coords = [0.0] * (2 * len(ts))
    coords[0::2] = [_PAD + (t - t0) * sx for t in ts]
    coords[1::2] = map(y_text.__getitem__, xs)
    path = ("%.2f,%s " * len(ts) % tuple(coords))[:-1]
    lines.append(
        f'<polyline class="trajectory" points="{path}" '
        f'fill="none" stroke="#000000" stroke-width="1.5"{marker}/>'
    )
    q = outcome.trace.tau.denominator
    for j in label_indices:
        t, x = turning[j - 1]
        px, py = to_px(t / q, x / q)
        lines.append(_text(px + 5.0, py - 6.0, f"&#945;{j}"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
