"""Exact event-driven simulation of the delay-switched unit-slope system.

The position moves with slope +1 or -1.  Whenever the path reaches the
critical set {0, 1} (a "hit", including tangential touches) the active slope
is toggled exactly ``tau`` later (a "switch"; the point (beta_j, alpha_j) is
the j-th turning point).  Between events the path is linear, so with a
rational delay tau = p/q every event time and coordinate lies in (1/q)*Z.
The event loop therefore runs on plain integers scaled by q (boundaries 0
and q, delay p), which is exact without any gcd work.  A trace keeps those
scaled rows; its ``Fraction`` events and turning points are built on first
access, so checks that read the rows never pay for them.

The complete Markov state is (slope, position, pending switch offsets):
exact recurrence of that state across two switch instants certifies
periodicity, and an empty pending queue while the path moves away from both
boundaries certifies divergence.  Simulation starts on the rising branch
from x(0) = 0.  As in the paper, the history on [-tau, 0] stays clear of
{0, 1} before time zero; every such history then yields the same solution,
because the only inherited event is the hit at t = 0, so the engine takes
no history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import Rat

LOW = Fraction(0)
HIGH = Fraction(1)

DEFAULT_MAX_SWITCHES = 10_000
DEFAULT_MAX_TIME = Fraction(10_000)


@dataclass(frozen=True, slots=True)
class TurningPoint:
    """A switch instant beta with its position alpha = x(beta).

    ``hit_time`` is the hit that scheduled the switch; beta - hit_time == tau
    always (stored for audit).
    """

    beta: Rat
    alpha: Rat
    hit_time: Rat


@dataclass(frozen=True, slots=True)
class TraceEvent:
    t: Rat
    x: Rat
    kind: str  # "hit" | "switch"; coinciding instants produce one of each


@dataclass(frozen=True)
class SimTrace:
    """The events of one run as the loop's scaled rows.

    With tau = p/q each row (T, X, kind) is the event at time T/q and
    position X/q.  ``events`` and ``turning_points`` are their ``Fraction``
    views, built together on first access.
    """

    tau: Rat
    rows: tuple[tuple[int, int, str], ...]

    @property
    def switches(self) -> list[tuple[int, int]]:
        """Scaled (T, X) of every switch: the turning points times q."""
        return [(t, x) for t, x, kind in self.rows if kind == "switch"]

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return self._views[0]

    @property
    def turning_points(self) -> tuple[TurningPoint, ...]:
        return self._views[1]

    @cached_property
    def _views(self) -> tuple[tuple[TraceEvent, ...], tuple[TurningPoint, ...]]:
        """Fraction events and turning points from the rows.

        Hits sit on 0 or 1, and every switch at T was scheduled by the hit at
        T - p, so each distinct instant is converted only once.
        """
        p, q = self.tau.numerator, self.tau.denominator
        hit_at: dict[int, Fraction] = {}
        events: list[TraceEvent] = []
        points: list[TurningPoint] = []
        for t, x, kind in self.rows:
            if kind == "hit":
                when = hit_at[t] = Fraction(t, q)
                events.append(TraceEvent(when, HIGH if x else LOW, kind))
                continue
            when = hit_at.get(t)
            if when is None:
                when = Fraction(t, q)
            where = Fraction(x, q)
            events.append(TraceEvent(when, where, kind))
            points.append(TurningPoint(when, where, hit_at[t - p]))
        return tuple(events), tuple(points)


@dataclass(frozen=True)
class Periodic:
    least_period: Rat
    switchings_per_period: int
    start_switch: int  # i, 1-based: first switch of the recurring cycle
    trace: SimTrace

    @property
    def turning_points(self) -> tuple[TurningPoint, ...]:
        """One full period: switches i..j-1."""
        i = self.start_switch
        return self.trace.turning_points[i - 1 : i - 1 + self.switchings_per_period]


@dataclass(frozen=True)
class Divergent:
    direction: int  # -1: x -> -inf, +1: x -> +inf
    total_switchings: int
    trace: SimTrace


@dataclass(frozen=True)
class Undetermined:
    switchings_executed: int
    trace: SimTrace
    stopped_by: str = "max_switches"  # the limit that ended the run, or "max_time"


Outcome = Periodic | Divergent | Undetermined


def _simulate(
    tau: Rat,
    max_switches: int,
    max_time: Rat,
    detect_period: bool,
) -> Outcome:
    """The event loop behind :func:`run` and :func:`simulate_switches`.

    Works in units of 1/q for tau = p/q: the boundaries are 0 and q, the
    delay is p, and time T, position X and the pending switch times are
    ints.  Each step advances to the earliest event: a boundary hit (the
    ray meeting 0 or q, touches included) appends the switch time T + p;
    a due switch pops the queue head and toggles the slope.  A hit and a
    switch at one instant are both processed there, the hit first, so the
    post-switch state already holds the freshly scheduled switch.  The
    post-switch state (slope, X, pending offsets) is the complete Markov
    state; with ``detect_period`` its first exact recurrence ends the run
    as Periodic.  An empty queue with the ray pointing away from both
    boundaries ends it as Divergent; the limits end it as Undetermined.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    tau = Fraction(tau)
    p, q = tau.numerator, tau.denominator
    max_time = Fraction(max_time)
    # T * den >= num * q  <=>  T >= ceil(num * q / den), T being an int
    t_cap = -(-max_time.numerator * q // max_time.denominator)
    t = x = switches = 0
    slope = 1  # +1 exactly while the number of executed switches is even
    pending = deque([p])  # strictly increasing switch times in (t, t + p]
    events = [(0, 0, "hit")]
    first_seen: dict[tuple, tuple[int, int]] = {}  # state -> (switch number, T)
    while True:
        if not pending and (x < 0 if slope < 0 else x > q):
            result = (Divergent, slope)
            break
        if switches >= max_switches or t >= t_cap:
            result = (Undetermined, "max_switches" if switches >= max_switches else "max_time")
            break
        if slope > 0:
            hit = t - x if x < 0 else (t + q - x if x < q else None)
        else:
            hit = t + x - q if x > q else (t + x if x > 0 else None)
        if pending and (hit is None or pending[0] <= hit):
            t_next = pending[0]
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
            # hits are isolated instants, so the queue stays strictly increasing
            assert not pending or pending[-1] < scheduled
            pending.append(scheduled)
            events.append((t, x, "hit"))
        if did_switch:
            assert did_hit or (x != 0 and x != q)
            pending.popleft()
            slope = -slope
            switches += 1
            events.append((t, x, "switch"))
            if detect_period:
                state = (slope, x, tuple(s - t for s in pending))
                first = first_seen.setdefault(state, (switches, t))
                if first[0] != switches:
                    result = (Periodic, first)
                    break
    trace = SimTrace(tau, tuple(events))
    kind, value = result
    if kind is Undetermined:
        return Undetermined(switches, trace, value)
    if kind is Divergent:
        return Divergent(value, switches, trace)
    i, t_i = value
    return Periodic(
        least_period=Fraction(t - t_i, q),
        switchings_per_period=switches - i,
        start_switch=i,
        trace=trace,
    )


def run(
    tau: Rat,
    max_switches: int = DEFAULT_MAX_SWITCHES,
    max_time: Rat = DEFAULT_MAX_TIME,
) -> Outcome:
    """Simulate until the outcome is certain or the limits are reached.

    After every switch the state is checked for exact recurrence (Periodic)
    and for divergence; hitting max_switches or max_time first yields
    Undetermined.  All arithmetic is exact.
    """
    if max_switches <= 0 or max_time <= 0:
        raise ValueError("limits must be positive")
    return _simulate(tau, max_switches, max_time, detect_period=True)


def simulate_switches(
    tau: Rat,
    n_switches: int,
    max_time: Rat = 10 * DEFAULT_MAX_TIME,
) -> SimTrace:
    """Advance through n_switches switchings with recurrence detection off.

    Used to replay past a detected period (the periodicity certificate).
    Stops early only on divergence or the time cap; callers inspect the
    trace length.
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
