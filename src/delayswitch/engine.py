"""Exact event-driven simulation of the delay-switched unit-slope system.

The position moves with slope +1 or -1.  Whenever the path reaches the
critical set {0, 1} (a "hit", including tangential touches) the active slope
is toggled exactly ``tau`` later (a "switch"; the point (beta_j, alpha_j) is
the j-th turning point).  Between events the path is linear, so with a
rational delay tau = p/q every event time and coordinate lies in (1/q)*Z.
The event loop therefore runs on plain integers scaled by q (boundaries 0
and q, delay p), which is exact without any gcd work.  A trace keeps those
scaled rows; its ``Fraction`` events and turning points are each built from
them on first access, so checks that read the rows never pay for them.
``run`` sizes its own limits: in the paper's window it raises the defaults to
cover the longest run the window can need, so every window delay ends
Periodic or Divergent unless the caller sets a tighter limit.

The complete Markov state is (slope, position, pending switch offsets):
exact recurrence of that state across two switch instants certifies
periodicity, and an empty pending queue while the path moves away from both
boundaries certifies divergence.  The loop keeps every scheduled switch
time in one append-only list and indexes the states it has seen by (slope,
position), comparing pending offsets only when such a pair repeats.
Simulation starts on the rising branch from x(0) = 0.  As in the paper, the
history on [-tau, 0] stays clear of {0, 1} before time zero; every such
history then yields the same solution, because the only inherited event is
the hit at t = 0, so the engine takes no history.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import analysis
from .exact import Rat

DEFAULT_MAX_SWITCHES = 10_000
DEFAULT_MAX_TIME = 10_000


class TurningPoint(NamedTuple):
    """A switch instant beta with its position alpha = x(beta); beta lies
    exactly tau after the hit that scheduled it."""

    beta: Rat
    alpha: Rat


class TraceEvent(NamedTuple):
    t: Rat
    x: Rat
    kind: str  # "hit" | "switch"; coinciding instants produce one of each


class _TraceFields(NamedTuple):
    tau: Rat
    rows: tuple[tuple[int, int, str], ...]


class SimTrace(_TraceFields):
    """The events of one run as the loop's scaled rows.

    With tau = p/q each row (T, X, kind) is the event at time T/q and
    position X/q.  ``events`` and ``turning_points`` are their ``Fraction``
    views, each built from the rows on its own first access and kept in the
    instance ``__dict__`` this subclass adds to the named tuple.
    """

    @property
    def switches(self) -> list[tuple[int, int]]:
        """Scaled (T, X) of every switch: the turning points times q."""
        return [(t, x) for t, x, kind in self.rows if kind == "switch"]

    @cached_property
    def events(self) -> tuple[TraceEvent, ...]:
        q = self.tau.denominator
        return tuple(TraceEvent(Fraction(t, q), Fraction(x, q), kind) for t, x, kind in self.rows)

    @cached_property
    def turning_points(self) -> tuple[TurningPoint, ...]:
        q = self.tau.denominator
        return tuple(TurningPoint(Fraction(t, q), Fraction(x, q)) for t, x in self.switches)


class Periodic(NamedTuple):
    least_period: Rat
    switchings_per_period: int
    start_switch: int  # i, 1-based: first switch of the recurring cycle
    trace: SimTrace

    @property
    def turning_points(self) -> tuple[TurningPoint, ...]:
        """One full period: switches i..j-1."""
        i = self.start_switch
        return self.trace.turning_points[i - 1 : i - 1 + self.switchings_per_period]


class Divergent(NamedTuple):
    direction: int  # -1: x -> -inf, +1: x -> +inf
    total_switchings: int
    trace: SimTrace


class Undetermined(NamedTuple):
    switchings_executed: int
    trace: SimTrace
    stopped_by: str = "max_switches"  # the limit that ended the run, or "max_time"


Outcome = Periodic | Divergent | Undetermined


def _simulate(
    tau: Rat,
    max_switches: int | None,
    max_time: Rat | None,
    detect_period: bool,
) -> Outcome:
    """The event loop behind :func:`run` and :func:`simulate_switches`.

    A limit left None is sized as :func:`run` describes, on the ints p and q.
    Works in units of 1/q for tau = p/q: the boundaries are 0 and q, the
    delay is p, and time T, position X and the pending switch times are
    ints.  ``due`` lists every switch time scheduled, the pending ones being
    ``due[head:]``.  Each step advances to the earliest event: a boundary
    hit (the ray meeting 0 or q, touches included) appends the switch time
    T + p to ``due``; a due switch advances ``head`` and toggles the slope.
    A hit and a switch at one instant are both processed there, the hit
    first, so the post-switch state already holds the freshly scheduled
    switch.  The post-switch state (slope, X, pending offsets) is the
    complete Markov state; with ``detect_period`` its first exact recurrence
    ends the run as Periodic.  ``seen`` maps (slope, X) to the entries
    (switch number, T, head, len(due)) of the states seen there, whose
    offsets are compared only when the pair repeats.  An empty queue with
    the ray pointing away from both boundaries ends the run as Divergent;
    the limits end it as Undetermined, and a limit of zero or less raises
    ValueError.
    """
    if (max_switches is not None and max_switches <= 0) or (max_time is not None and max_time <= 0):
        raise ValueError("limits must be positive")
    if tau <= 0:
        raise ValueError("tau must be positive")
    tau = Fraction(tau)
    p, q = tau.numerator, tau.denominator
    n = 0  # 4k + 6 for a window delay whose run sizes a limit
    if (max_switches is None or max_time is None) and 4 * q <= 3 * p and 2 * p < 3 * q:
        n = 4 * analysis._window_k(tau) + 6
    if max_switches is None:
        max_switches = max(DEFAULT_MAX_SWITCHES, n)
    if max_time is None:
        t_cap = max(DEFAULT_MAX_TIME, 2 * n) * q
    else:
        max_time = Fraction(max_time)
        # T * den >= num * q  <=>  T >= ceil(num * q / den), T being an int
        t_cap = -(-max_time.numerator * q // max_time.denominator)
    t = x = switches = head = 0
    slope = 1  # +1 exactly while the number of executed switches is even
    due = [p]  # every switch time scheduled, increasing; pending: due[head:]
    events = [(0, 0, "hit")]
    seen: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    while True:
        if head == len(due) and (x < 0 if slope < 0 else x > q):
            return Divergent(slope, switches, SimTrace(tau, tuple(events)))
        if switches >= max_switches or t >= t_cap:
            stopped_by = "max_switches" if switches >= max_switches else "max_time"
            return Undetermined(switches, SimTrace(tau, tuple(events)), stopped_by)
        if slope > 0:
            hit = t - x if x < 0 else (t + q - x if x < q else None)
        else:
            hit = t + x - q if x > q else (t + x if x > 0 else None)
        if head < len(due) and (hit is None or due[head] <= hit):
            t_next = due[head]
            did_hit, did_switch = hit == t_next, True
        elif hit is None:
            raise RuntimeError("no future event in a non-divergent state")
        else:
            t_next, did_hit, did_switch = hit, True, False
        x += slope * (t_next - t)
        t = t_next
        if did_hit:
            assert x == 0 or x == q
            scheduled = t + p
            # hits are isolated instants, so the schedule stays strictly increasing
            assert due[-1] < scheduled
            due.append(scheduled)
            events.append((t, x, "hit"))
        if did_switch:
            assert did_hit or (x != 0 and x != q)
            head += 1
            slope = -slope
            switches += 1
            events.append((t, x, "switch"))
            if detect_period:
                entry = (switches, t, head, len(due))
                entries = seen.get((slope, x))
                if entries is None:
                    seen[slope, x] = [entry]
                    continue
                offsets = [d - t for d in due[head:]]
                same = [e for e in entries if [d - e[1] for d in due[e[2] : e[3]]] == offsets]
                if same:
                    i, t_i, _, _ = same[0]
                    return Periodic(
                        least_period=Fraction(t - t_i, q),
                        switchings_per_period=switches - i,
                        start_switch=i,
                        trace=SimTrace(tau, tuple(events)),
                    )
                entries.append(entry)


def run(
    tau: Rat,
    max_switches: int | None = None,
    max_time: Rat | None = None,
) -> Outcome:
    """Simulate until the outcome is certain or the limits are reached.

    After every switch the state is checked for exact recurrence (Periodic)
    and for divergence; hitting max_switches or max_time first yields
    Undetermined.  All arithmetic is exact.  A limit left None is 10,000
    (switchings or time units), raised for tau_k <= tau < tau_{k+1} in
    [4/3, 3/2) to 4k + 6 switchings and twice that in time: the paper's
    counts (at most 4k + 2 per period, 4k + 5 before divergence) leave room
    for the switchings before the cycle, and these runs take under two time
    units per switching.  The bound reads only where tau lies, not the
    predicted outcome, so a wrong bound can leave a run Undetermined but
    never decide it.
    """
    return _simulate(tau, max_switches, max_time, detect_period=True)


def simulate_switches(
    tau: Rat,
    n_switches: int,
    max_time: Rat = 10 * DEFAULT_MAX_TIME,
) -> SimTrace:
    """Advance through n_switches switchings with recurrence detection off.

    A fixed-length replay for long traces, such as many periods drawn or
    cross-checked at once (``perfbench``'s horizon workload); the package
    itself never calls it.  Stops early only on divergence or the time cap;
    callers inspect the trace length.
    """
    return _simulate(tau, n_switches, max_time, detect_period=False).trace


def behavior_label(outcome: Outcome) -> str:
    if isinstance(outcome, Periodic):
        return "periodic"
    if isinstance(outcome, Divergent):
        return "divergent_minus_inf" if outcome.direction < 0 else "divergent_plus_inf"
    return "undetermined"


def trace_records(trace: SimTrace) -> list[dict]:
    """Wire form of the event trace: {"t": "p/q", "x": "p/q", "kind": ...}."""
    from .exact import rat_format

    return [
        {"t": rat_format(e.t), "x": rat_format(e.x), "kind": e.kind}
        for e in trace.events
    ]
