"""Property tests: the exact engine against the closed forms on random delays,
and the row period certificate against a replay of the engine.

Delays are random rationals in [4/3, 3/2) with denominators up to 10^12,
plus the exact critical values, where the behaviour changes.
"""

from fractions import Fraction as F

from hypothesis import assume, given, settings
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
from delayswitch.engine import Divergent, Periodic, run, simulate_switches
from delayswitch.validate import periodicity_certificate


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
    for point in points:
        assert point.beta - point.hit_time == tau


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
        assert (point.beta, point.alpha, point.hit_time) == (F(t, q), F(x, q), F(t, q) - tau)


def replay_certificate(outcome: Periodic) -> bool:
    """The reference certificate: replay one extra period from t = 0 and
    require switch n + m to fall least_period after switch n at the same
    position, for every n in the claimed cycle."""
    i, m = outcome.start_switch, outcome.switchings_per_period
    points = simulate_switches(outcome.trace.tau, i + 2 * m - 1).switches
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
