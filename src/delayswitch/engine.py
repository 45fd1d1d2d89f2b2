"""Exact event-driven simulation of the delay-switched unit-slope system.

The position moves with slope +1 or -1.  Whenever the path reaches the
critical set {0, 1} (a "hit", including tangential touches) the active slope
is toggled exactly ``tau`` later (a "switch"; the point (beta_j, alpha_j) is
the j-th turning point).  Between two switches the path is a straight
segment meeting each of 0 and 1 at most once, so the event loop runs from
switch to switch, one iteration each, and with a rational delay tau = p/q
every event time and coordinate lies in (1/q)*Z.  The loop therefore runs
on plain integers scaled by q (boundaries 0 and q, delay p), which is exact
without any gcd work.  A trace keeps those scaled rows; its ``Fraction``
events and turning points are each built from them on first access, so
checks that read the rows never pay for them.
One limit bounds a run, its number of switches.  Left unset it is 4n + 8,
n = floor(log4(p // |2p - 3q|)) counting the powers of 4 between tau = p/q
and 3/2, so every delay ends Periodic or Divergent unless the caller sets
a tighter limit.

The complete Markov state is (slope, position, pending switch offsets):
exact recurrence of that state across two switch instants certifies
periodicity, and an empty pending queue while the path moves away from both
boundaries certifies divergence.  The loop keeps every scheduled switch
time in one append-only list and branches once per switch on the slope.
It indexes the switches it has run by the slope and position they leave:
per slope, one dict maps a position to the first switch that left it, an
int, and another lists the later switches that left it.  It reads a
switch's pending offsets back from the schedule only when its position
repeats.  A fixed-length replay runs the same loop and, past a Periodic
outcome, repeats that cycle's rows, shifted by whole periods, up to its
switch count.
Simulation starts on the rising branch from x(0) = 0.  As in the paper, the
history on [-tau, 0] stays clear of {0, 1} before time zero; every such
history then yields the same solution, because the only inherited event is
the hit at t = 0, so the engine takes no history.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .exact import Rat


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
        """One full period: switches i..i+m-1, m being switchings_per_period."""
        i = self.start_switch
        return self.trace.turning_points[i - 1 : i - 1 + self.switchings_per_period]


class Divergent(NamedTuple):
    direction: int  # -1: x -> -inf, +1: x -> +inf
    total_switchings: int
    trace: SimTrace


class Undetermined(NamedTuple):
    # the run reached its switch limit, the only limit a run has
    switchings_executed: int
    trace: SimTrace


Outcome = Periodic | Divergent | Undetermined


def _simulate(tau: Rat, max_switches: int | None) -> Outcome:
    """The event loop behind :func:`run` and :func:`simulate_switches`.

    Works in units of 1/q for tau = p/q: the boundaries are 0 and q, the
    delay is p, and time T, position X and the pending switch times are
    ints.  ``due`` lists every switch time scheduled, the pending ones being
    ``due[head:]``.  Each iteration runs to the next switch and branches
    once on the slope.  Up to it the path is a ray, which meets each
    boundary at most once: a rising ray meets 0 when X < 0, then q when
    X < q; a falling ray meets q when X > q, then 0 when X > 0.  Each such
    meeting, in that order, is a hit unless a due switch comes strictly
    earlier, which ends the walk; a hit appends its switch time T + p to
    ``due``.  A hit at the switch instant is recorded first, so the
    post-switch state already holds the freshly scheduled switch.  The
    switch advances ``head`` and toggles the slope; ``head`` thus counts
    iterations and switches alike, and switch i runs at ``due[i - 1]``.
    The post-switch state (slope, X, pending offsets) is the complete
    Markov state, and its first exact recurrence ends the run as Periodic.
    ``first_rising`` and ``first_falling`` map X to the first switch i that
    left X at that slope, an int, and ``again_rising`` and ``again_falling``
    to the later ones, in order; the slopes share no list.  Switch i's
    pending offsets are read back when X repeats: the hits at or before
    t_i = ``due[i - 1]`` scheduled exactly
    ``due[i : bisect_right(due, t_i + p, i)]``.  An empty queue with the ray
    pointing away from both boundaries ends the run as Divergent; the switch
    limit, 4n + 8 as :func:`run` describes when left None, ends it as
    Undetermined.  Short of both, a switch lies ahead: one is pending, or
    the ray meets a boundary that schedules one.
    """
    if max_switches is not None and max_switches <= 0:
        raise ValueError("the switch limit must be positive")
    tau = tau if isinstance(tau, Fraction) else Fraction(tau)
    p, q = tau.numerator, tau.denominator
    if p <= 0:
        raise ValueError("tau must be positive")
    if max_switches is None:  # 4n + 8, n = floor(log4(p // d)): 0 at 3/2, -1 if p < d
        d = abs(2 * p - 3 * q)
        n = ((p // d).bit_length() - 1) // 2 if d else 0
        max_switches = 4 * n + 8
    t = x = head = 0
    rising = True  # exactly while the number of executed switches is even
    due = [p]  # every switch time scheduled, increasing; pending: due[head:]
    events = [(0, 0, "hit")]
    first_rising: dict[int, int] = {}  # X -> the first switch i that left X rising
    first_falling: dict[int, int] = {}
    again_rising: dict[int, list[int]] = {}  # X -> the later switches that left X rising
    again_falling: dict[int, list[int]] = {}
    while True:
        if (x > q if rising else x < 0) and head == len(due):
            return Divergent(1 if rising else -1, head, SimTrace(tau, tuple(events)))
        if head >= max_switches:
            return Undetermined(head, SimTrace(tau, tuple(events)))
        if rising:
            if x < 0:
                hit = t - x
                if head == len(due) or due[head] >= hit:
                    due.append(hit + p)
                    events.append((hit, 0, "hit"))
                    if due[head] >= hit + q:
                        due.append(hit + q + p)
                        events.append((hit + q, q, "hit"))
            elif x < q:
                hit = t + q - x
                if head == len(due) or due[head] >= hit:
                    due.append(hit + p)
                    events.append((hit, q, "hit"))
            x += due[head] - t
            first, again = first_falling, again_falling
        else:
            if x > q:
                hit = t + x - q
                if head == len(due) or due[head] >= hit:
                    due.append(hit + p)
                    events.append((hit, q, "hit"))
                    if due[head] >= hit + q:
                        due.append(hit + q + p)
                        events.append((hit + q, 0, "hit"))
            elif x > 0:
                hit = t + x
                if head == len(due) or due[head] >= hit:
                    due.append(hit + p)
                    events.append((hit, 0, "hit"))
            x -= due[head] - t
            first, again = first_rising, again_rising
        rising = not rising
        t = due[head]
        head += 1
        events.append((t, x, "switch"))
        i = first.setdefault(x, head)
        if i != head:
            offsets = [d - t for d in due[head:]]
            entries = again.setdefault(x, [])
            for i in (i, *entries):  # in order, so the first match is the earliest
                t_i = due[i - 1]
                if [d - t_i for d in due[i : bisect_right(due, t_i + p, i)]] == offsets:
                    return Periodic(Fraction(t - t_i, q), head - i, i, SimTrace(tau, tuple(events)))
            entries.append(head)


def run(tau: Rat, max_switches: int | None = None) -> Outcome:
    """Simulate until the outcome is certain or the switch limit is reached.

    After every switch the state is checked for exact recurrence (Periodic)
    and for divergence; reaching max_switches first yields Undetermined.
    All arithmetic is exact.  A limit left None is 4n + 8 switchings for
    tau = p/q, where n = floor(log4(p // |2p - 3q|)) counts the powers of 4
    between tau and 3/2: 0 at 3/2, and -1 (a limit of 4) below 1 and above
    3, where p // |2p - 3q| is 0.  For tau_k <= tau < tau_{k+1} n is k, and
    the paper's counts (at most 4k + 2 per period, 4k + 5 before
    divergence) leave room for the switchings before the cycle.  Above 3/2,
    for sigma_(m+1) < tau <= sigma_m with sigma_m = 6*4^m / (4^(m+1) - 1),
    n is m or m + 1.  Exact runs show sigma_m closing its cycle at switch
    4m + 7, the delays between diverging after 2m + 4 and delays below 1
    recurring at switch 3.  Elsewhere n is at most 1.  The limit reads only
    p and q, so a wrong limit can leave a run Undetermined but never decide it.
    """
    return _simulate(tau, max_switches)


def simulate_switches(tau: Rat, n_switches: int) -> SimTrace:
    """Advance through n_switches switchings, past any recurrence.

    Internal and unexported; the package never calls it.  It stays for
    ``perfbench``'s horizon workload, which draws and cross-checks
    20,000-switch replays, until that workload draws a long first cycle of
    ``run``.  It runs the event loop once.  Past a Periodic outcome every
    row repeats the cycle's rows, those after switch i up to switch i + m,
    shifted by whole periods, so whole periods are appended and then the
    next period's rows up to the n_switches-th switch, where stepping would
    stop.  Stops early only on divergence; callers inspect the trace length.
    """
    out = _simulate(tau, n_switches)
    if not isinstance(out, Periodic):
        return out.trace
    rows, i, m = out.trace.rows, out.start_switch, out.switchings_per_period
    switch_rows = [n for n, (_, _, kind) in enumerate(rows) if kind == "switch"]
    at = switch_rows[i - 1]  # switch i; the run ends on switch i + m
    block, period = rows[at + 1 :], rows[-1][0] - rows[at][0]
    r, extra = divmod(n_switches - i - m, m)
    cut = switch_rows[i - 1 + extra] - at  # the block's rows up to its extra-th switch
    shifts = range(period, r * period + 1, period)
    cycles = [(u + s, y, kind) for s in shifts for u, y, kind in block]
    last = [(u + (r + 1) * period, y, kind) for u, y, kind in block[:cut]]
    return SimTrace(out.trace.tau, (*rows, *cycles, *last))


def behavior_label(outcome: Outcome) -> str:
    if isinstance(outcome, Periodic):
        return "periodic"
    if isinstance(outcome, Divergent):
        return "divergent_minus_inf" if outcome.direction < 0 else "divergent_plus_inf"
    return "undetermined"

