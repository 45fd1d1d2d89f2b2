"""Reference check that a trace's scaled rows obey the dynamics.

The tests use it in place of reading the engine's internals: with
tau = p/q, every row (T, X, kind) of a trace is an event at T/q, X/q, and a
trace is a solution of the system exactly when its rows pass this check.
"""


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
