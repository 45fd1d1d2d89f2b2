"""Per-vertex reference for the rendered trajectory.

``render`` builds its path in one walk over a trace's rows and formats each
level's pixel y once; the tests hold it to this plainer reading instead:
the vertices as two columns, merged one row at a time, each mapped through
the projection on its own.
"""

from delayswitch.engine import Divergent
from delayswitch.render import _projection


def vertices(outcome) -> tuple[list[float], list[float]]:
    """Polyline vertices of an engine Outcome as columns ``(ts, xs)``: every
    event point, consecutive duplicates merged, plus the ray endpoint for
    divergent outcomes.

    Vertices are read off the scaled rows as T/q, X/q; int true division
    rounds correctly, so they equal the floats of the Fraction events.  Two
    rows merge when these floats are equal, however their ints differ.
    """
    sim = outcome.trace
    q = sim.tau.denominator
    ts: list[float] = []
    xs: list[float] = []
    last = None
    for t, x, _ in sim.rows:
        point = (t / q, x / q)
        if point != last:  # hit+switch at one instant: one vertex
            ts.append(point[0])
            xs.append(point[1])
            last = point
    if isinstance(outcome, Divergent):
        span = max(1.0, 0.1 * (ts[-1] - ts[0]))
        ts.append(ts[-1] + span)
        xs.append(xs[-1] + outcome.direction * span)
    return ts, xs


def projected_path(outcome, width: int, height: int) -> str:
    """The polyline's points attribute, each vertex formatted on its own."""
    ts, xs = vertices(outcome)
    to_px, _ = _projection(ts[0], ts[-1], xs, width, height)
    return " ".join("%.2f,%.2f" % to_px(t, x) for t, x in zip(ts, xs))
