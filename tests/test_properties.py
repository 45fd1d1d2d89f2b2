"""Property tests: the exact engine against the closed forms on random delays,
its rows against the dynamics, its own switch limit against the old fixed
one and against every delay, a limit at the deciding switch against one
short of it, every branch of its loop against a plain stepper, the row
period certificate against that stepper's replay, and the replay's
repeated cycle against that stepper.

Delays are random rationals in [4/3, 3/2) with denominators up to 10^12,
plus the exact critical values, where the behaviour changes, and, for the
switch limit, delays above 3/2 and across [10^-30, 10^30].
"""

from fractions import Fraction as F

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from delayswitch.analysis import (
    Behavior,
    CriticalKind,
    alpha_closed,
    beta_closed,
    classify,
    critical_value,
    horizon_J,
)
from delayswitch.engine import (
    Divergent,
    Periodic,
    SimTrace,
    Undetermined,
    run,
    simulate_switches,
)
from delayswitch.validate import periodicity_certificate
from rowcheck import check_rows, step_rows


@st.composite
def window_delays(draw) -> F:
    q = draw(st.integers(min_value=3, max_value=10**12))
    lo = -(-4 * q // 3)  # smallest p with p/q >= 4/3
    hi = -(-3 * q // 2) - 1  # largest p with p/q < 3/2
    assume(lo <= hi)
    return F(draw(st.integers(min_value=lo, max_value=hi)), q)


critical_delays = st.builds(
    critical_value, st.sampled_from(CriticalKind), st.integers(min_value=1, max_value=20)
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(window_delays(), critical_delays))
def test_engine_agrees_with_the_closed_forms(tau):
    prediction = classify(tau)
    out = run(tau)
    if prediction.behavior is Behavior.PERIODIC:
        assert isinstance(out, Periodic)
        assert out.switchings_per_period == prediction.switch_count
        # the rows end with switch i + m, the state that closes the cycle
        end = out.start_switch + out.switchings_per_period
        assert len(out.trace.switches) == end
        assert out.trace.rows[-1] == (*out.trace.switches[-1], "switch")
    else:
        assert isinstance(out, Divergent) and out.direction == -1
        assert out.total_switchings == prediction.switch_count

    points = out.trace.turning_points
    J = horizon_J(tau)
    assert len(points) >= J
    for j in range(1, J + 1):
        assert points[j - 1].beta == beta_closed(j, tau)
        assert points[j - 1].alpha == alpha_closed(j, tau)

    events = out.trace.events
    hits = sum(e.kind == "hit" for e in events)  # the hit at t = 0 included
    assert len(points) <= hits  # each switch is scheduled by exactly one hit
    for a, b in zip(events, events[1:]):
        assert abs(b.x - a.x) == b.t - a.t  # unit speed between events
    assert check_rows(out.trace) is None  # each switch lies tau after its hit


@settings(max_examples=100, deadline=None)
@given(window_delays(), st.integers(min_value=1, max_value=60))
def test_fraction_views_equal_the_scaled_rows(tau, n_switches):
    trace = simulate_switches(tau, n_switches)
    q = tau.denominator
    assert len(trace.events) == len(trace.rows)
    for event, (t, x, kind) in zip(trace.events, trace.rows):
        assert (event.t, event.x, event.kind) == (F(t, q), F(x, q), kind)
    assert len(trace.turning_points) == len(trace.switches)
    for point, (t, x) in zip(trace.turning_points, trace.switches):
        assert (point.beta, point.alpha) == (F(t, q), F(x, q))


def replay_certificate(outcome: Periodic) -> bool:
    """The reference certificate: step one extra period from t = 0 with the
    plain stepper and require switch n + m to fall least_period after switch
    n at the same position, for every n in the claimed cycle."""
    i, m = outcome.start_switch, outcome.switchings_per_period
    rows = step_rows(outcome.trace.tau, i + 2 * m - 1)
    points = [(t, x) for t, x, kind in rows if kind == "switch"]
    period = outcome.least_period * outcome.trace.tau.denominator
    if len(points) < i + 2 * m - 1:
        return False
    return all(
        points[n + m - 1][0] - points[n - 1][0] == period
        and points[n + m - 1][1] == points[n - 1][1]
        for n in range(i, i + m)
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(window_delays(), critical_delays))
def test_row_certificate_agrees_with_a_replay(tau):
    out = run(tau)
    assume(isinstance(out, Periodic))
    assert periodicity_certificate(out) and replay_certificate(out)
    i, m = out.start_switch, out.switchings_per_period
    off = Periodic(out.least_period + F(1, tau.denominator), m, i, out.trace)
    assert not periodicity_certificate(off) and not replay_certificate(off)


# delays inside the window and on both sides of it, run to the end or cut
# short by a switch limit
any_delays = st.one_of(
    window_delays(),
    critical_delays,
    st.fractions(F(1, 5), F(5), max_denominator=2000).filter(lambda tau: tau > 0),
)


def _mutants(rows):
    """Each row changed one way the engine never writes it: a switch moved
    in time or position, a hit dropped (but for the last row, whose loss
    leaves a shorter valid trace), a kind swapped."""
    for n, (t, x, kind) in enumerate(rows[1:], start=1):
        changed = [(t, x, "hit" if kind == "switch" else "switch")]
        if kind == "switch":
            changed += [(t + 1, x, kind), (t, x + 1, kind), (t - 1, x, kind)]
        for row in changed:
            yield rows[:n] + (row,) + rows[n + 1 :]
        if kind == "hit" and n < len(rows) - 1:
            yield rows[:n] + rows[n + 1 :]


@settings(max_examples=150, deadline=None)
@given(any_delays, st.sampled_from([None, 7, 60]))
def test_rows_obey_the_dynamics_and_no_mutant_does(tau, max_switches):
    trace = run(tau, max_switches).trace
    assert check_rows(trace) is None
    assert check_rows(simulate_switches(tau, 30)) is None
    for rows in _mutants(trace.rows[:120]):
        assert check_rows(SimTrace(tau, rows)) is not None, rows
    # the whole run moved in time, and the rows read with a delay 1/q longer
    later = tuple((t + 1, x, kind) for t, x, kind in trace.rows)
    assert check_rows(SimTrace(tau, later)) is not None
    longer = tau + F(1, tau.denominator)
    assert longer.denominator != tau.denominator or check_rows(SimTrace(longer, trace.rows))


def executed_switches(out) -> int:
    """The switches the run executed: those up to its deciding one."""
    if isinstance(out, Periodic):
        return out.start_switch + out.switchings_per_period
    if isinstance(out, Divergent):
        return out.total_switchings
    return out.switchings_executed


@settings(max_examples=150, deadline=None)
@given(st.one_of(window_delays(), critical_delays))
@example(F(63, 43))
@example(F(4, 3))
def test_a_limit_at_the_deciding_switch_decides_the_run(tau):
    # the run is decided at its n-th switch: a limit of n decides it too, and
    # a limit of n - 1 leaves it Undetermined; both keep the stepper's rows
    out = run(tau)
    n = executed_switches(out)
    for limit, kind in ((n, type(out)), (n - 1, Undetermined)):
        limited = run(tau, limit)
        assert type(limited) is kind
        assert limited.trace.rows == step_rows(tau, limit)


@st.composite
def window_delays_up_to_k_64(draw) -> F:
    """Delays of [tau_k, tau_{k+1}) for k <= 64: critical values and points
    at a random fraction of the interval, every regime included."""
    k = draw(st.integers(min_value=1, max_value=64))
    kind = draw(st.sampled_from(CriticalKind))
    lo, hi = critical_value(CriticalKind.TAU, k), critical_value(CriticalKind.TAU, k + 1)
    where = draw(st.fractions(0, 1, max_denominator=10**6).filter(lambda s: s < 1))
    return draw(st.sampled_from([critical_value(kind, k), lo + (hi - lo) * where]))


@settings(max_examples=100, deadline=None)
@given(window_delays_up_to_k_64())
def test_the_sized_limit_decides_window_runs_up_to_k_64(tau):
    # the limit a bare run sizes in window k, 4k + 8, decides each of these
    # runs (every one the benchmark makes) as a limit of 10,000 does
    assert run(tau) == run(tau, 10_000)


def sigma(m: int) -> F:
    return F(6 * 4**m, 4 ** (m + 1) - 1)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.fractions(F(1, 1000), F(1, 5), max_denominator=10**4).filter(lambda tau: tau > F(1, 1000)),
        any_delays,
        st.builds(sigma, st.integers(min_value=0, max_value=30)),
        st.fractions(F(5), F(10**6), max_denominator=10**4),
    ),
    st.sampled_from([1, 2, 3, 7, None]),
)
@example(F(7, 5), None)  # a falling ray from above 1 meets 1, then 0 just as a switch falls due
@example(F(60, 59), None)  # a rising ray from below 0 meets 0, then 1
def test_every_branch_of_the_loop_writes_the_stepper_rows(tau, limit):
    # below 1/5 the path turns about 0 alone, each ray meeting 0 with
    # nothing pending; delays in (1, 2] send rays across both boundaries in
    # one stretch; of all p/q with q < 60 only sigma_m sends a falling ray
    # from above 1 with nothing pending; above 5 the path turns twice, its
    # falling ray stopped short of 1 by the switch due, and then diverges
    out = run(tau, limit)
    assert out.trace.rows == step_rows(tau, executed_switches(out))


@st.composite
def delays_above_the_window(draw) -> F:
    """sigma_m or a point between sigma_(m+1) and sigma_m, for m <= 300."""
    m = draw(st.integers(min_value=0, max_value=300))
    where = draw(st.fractions(0, 1, max_denominator=10**6).filter(lambda s: s < 1))
    return draw(st.sampled_from([sigma(m), sigma(m + 1) + (sigma(m) - sigma(m + 1)) * where]))


@st.composite
def delays_across_magnitudes(draw) -> F:
    """p/q in [10^-30, 10^30], spread over its orders of magnitude."""
    scale = F(10) ** draw(st.integers(min_value=-30, max_value=29))
    return scale * draw(st.fractions(1, 10, max_denominator=10**6))


@settings(max_examples=150, deadline=None)
@given(st.one_of(window_delays(), delays_above_the_window(), delays_across_magnitudes()))
@example(F(10**4))
@example(F(10**5))
# zeta_2499 diverges after 4k + 5 = 10,001 switchings and sigma_2499 closes
# its cycle at switch 4m + 7 = 10,003, both past 10,000 and within the sized
# limit 4 * 2499 + 8 = 10,004
@example(critical_value(CriticalKind.ZETA, 2499))
@example(sigma(2499))
@example(sigma(5100))  # closes its cycle at switch 20,407
# 3/2 + 3/4^5102 lies between sigma_5101 and sigma_5100 and diverges after
# 10,204 switchings; unlike their midpoint, its terms stay under 4,300 digits
# for the repr of an example
@example(F(3, 2) + F(3, 4**5102))
def test_a_run_with_no_limit_set_always_ends(tau):
    # the switch limit is the only cap, and a limit left unset, 4n + 8,
    # lets each of these runs decide
    assert not isinstance(run(tau), Undetermined)


@st.composite
def replay_cuts(draw) -> tuple[F, int]:
    """A delay below, inside or above the window, and a switch count that
    ends its replay before the recurrence is seen, exactly there or after
    it, some on an instant holding a hit and a switch."""
    tau = draw(
        st.one_of(
            window_delays(),
            critical_delays,
            st.fractions(F(1, 5), F(4, 3), max_denominator=10**6).filter(lambda tau: tau > 0),
            st.fractions(F(3, 2), F(5, 2), max_denominator=2000),
        )
    )
    out = run(tau)
    if isinstance(out, Periodic):  # the replay meets the same earliest recurrence
        seen = out.start_switch + out.switchings_per_period
        end = seen + 3 * out.switchings_per_period + 3
    else:
        seen = end = len(out.trace.switches) + 2
    rows = step_rows(tau, end)
    at = [n for n, (_, _, kind) in enumerate(rows) if kind == "switch"]
    on_hits = [j for j, n in enumerate(at, start=1) if rows[n - 1][0] == rows[n][0]]
    n = draw(st.sampled_from([seen - 1, seen, seen + 1, end, *on_hits]) | st.integers(1, end))
    return tau, max(n, 1)


@settings(max_examples=200, deadline=None)
@given(replay_cuts())
# the 21st and 24th switches of 4/3 and the 25th of 16/11 fall on a hit (the
# event words' B and A): the cut keeps that instant's hit and switch
@example((critical_value(CriticalKind.TAU, 1), 21))
@example((critical_value(CriticalKind.TAU, 1), 24))
@example((critical_value(CriticalKind.TAU, 2), 25))
@example((critical_value(CriticalKind.TAU, 1), 18))
@example((critical_value(CriticalKind.TAU, 1), 20_000))
@example((F(63, 43), 50))  # divergent: no recurrence
@example((critical_value(CriticalKind.THETA, 1), 50))
@example((F(5, 2), 50))
def test_replay_repeats_its_cycle_as_the_stepper_runs(cut):
    # past a recurrence the replay repeats the cycle's rows instead of
    # stepping; it must stop on the very row where stepping would
    tau, n = cut
    trace = simulate_switches(tau, n)
    assert trace.rows == step_rows(tau, n)
    assert check_rows(trace) is None
