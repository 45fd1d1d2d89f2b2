"""Reference check that a trace's scaled rows obey the dynamics, and a plain
stepper that writes such rows.

The tests use them in place of reading the engine's internals: with
tau = p/q, every row (T, X, kind) of a trace is an event at T/q, X/q, and a
trace is a solution of the system exactly when its rows pass this check.
Neither imports the engine, so the tests can hold the engine to them.
"""

from fractions import Fraction


def step_rows(tau, max_switches: int) -> tuple[tuple[int, int, str], ...]:
    """The rows of the run from x(0) = 0, one event per step, on ints scaled by q.

    Each step takes the earliest of the next due switch and the next
    boundary strictly ahead of the ray, the hit first when they coincide.
    The run stops on divergence (nothing due, no boundary ahead) and after
    the instant at which max_switches switches have run; an instant ends
    only once its due switch has run.
    Nothing here looks for a recurrence: a periodic run is stepped to the end.
    """
    tau = Fraction(tau)
    p, q = tau.numerator, tau.denominator
    t, x, slope, switches = 0, 0, 1, 0
    pending = [p]  # switch times due, in order
    rows = [(0, 0, "hit")]
    while True:
        ahead = [abs(b - x) for b in (0, q) if (b - x) * slope > 0]
        hit_at = t + min(ahead) if ahead else None
        if pending and (hit_at is None or pending[0] < hit_at):
            t, kind = pending.pop(0), "switch"
        else:
            t, kind = hit_at, "hit"
        x = rows[-1][1] + slope * (t - rows[-1][0])
        rows.append((t, x, kind))
        if kind == "hit":
            pending.append(t + p)
        else:
            switches += 1
            slope = -slope
        if pending and pending[0] == t:
            continue  # the switch at this hit's instant is still to run
        if not pending and not any((b - x) * slope > 0 for b in (0, q)):
            return tuple(rows)
        if switches >= max_switches:
            return tuple(rows)


def check_rows(trace) -> str | None:
    """The first way ``trace.rows`` break the dynamics, or None if they obey it.

    - The first row is the hit (0, 0), where the path starts rising.
    - Each row follows from the previous one at slope +1 or -1, and the
      slope toggles exactly at switch rows.
    - No segment meets 0 or q strictly inside it, and every row on 0 or q
      is a hit (a switch there comes right after the hit at that instant).
    - The switches are the hits delayed by p, in hit order: every hit whose
      switch falls by the last row's time has exactly that switch.
    """
    p, q = trace.tau.numerator, trace.tau.denominator
    rows = trace.rows
    if not rows or rows[0] != (0, 0, "hit"):
        return "the first row is not the hit (0, 0)"
    slope = 1
    for n, ((t0, x0, kind0), (t1, x1, kind1)) in enumerate(zip(rows, rows[1:]), start=1):
        if t1 < t0 or x1 - x0 != slope * (t1 - t0):
            return f"row {n} does not follow row {n - 1} at slope {slope}"
        if any(min(x0, x1) < bound < max(x0, x1) for bound in (0, q)):
            return f"the segment from row {n - 1} to row {n} meets 0 or 1 inside"
        on_bound = x1 in (0, q)
        if kind1 == "hit" and not on_bound:
            return f"hit row {n} lies off 0 and 1"
        if kind1 == "switch" and on_bound and (t0, x0, kind0) != (t1, x1, "hit"):
            return f"switch row {n} touches 0 or 1 without a hit"
        if kind1 == "switch":
            slope = -slope
    hits = [t for t, _, kind in rows if kind == "hit"]
    end = rows[-1][0]
    if [t for t, _, kind in rows if kind == "switch"] != [h + p for h in hits if h + p <= end]:
        return "the switches are not the hits delayed by tau, in hit order"
    return None
