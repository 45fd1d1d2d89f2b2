import random
from fractions import Fraction as F

import pytest

from delayswitch.analysis import alpha_closed, beta_closed, horizon_J
from delayswitch.engine import (
    Divergent,
    Periodic,
    TraceEvent,
    Undetermined,
    behavior_label,
    run,
    simulate_switches,
    trace_records,
)


def random_tau_in_window(rng: random.Random) -> F:
    den = rng.randint(50, 5000)
    lo = 4 * den // 3 + 1
    hi = (3 * den - 1) // 2
    return F(rng.randint(lo, hi), den)


# --- initial hit -----------------------------------------------------------


def test_initial_hits_canonical():
    # the only inherited event is the hit at t = 0; it schedules switch 1 at tau
    for tau in (F(7, 5), F(4, 3)):
        trace = run(tau).trace
        assert trace.events[0] == TraceEvent(F(0), F(0), "hit")
        first = trace.turning_points[0]
        assert (first.beta, first.hit_time) == (tau, 0)


# --- ray geometry ----------------------------------------------------------


def test_next_boundary_hit_cases():
    # from (0, 0) rising, the first hit is at 1 after unit time
    assert run(F(4, 3)).trace.events[1] == TraceEvent(F(1), F(1), "hit")
    # 63/43 falls from 48/43 (switch 5) to 1 and on to 0, then rises from
    # -10/43 (switch 6) back to 0: each contact is the next hit of the ray
    events = run(F(63, 43)).trace.events
    assert [(e.t, e.x, e.kind) for e in events[10:15]] == [
        (F(226, 43), F(48, 43), "switch"),
        (F(231, 43), F(1), "hit"),
        (F(274, 43), F(0), "hit"),
        (F(284, 43), F(-10, 43), "switch"),
        (F(294, 43), F(0), "hit"),
    ]
    for tau in sample_taus():
        events = run(tau).trace.events
        for a, b in zip(events, events[1:]):
            # no contact with {0, 1} strictly between two consecutive events
            lo, hi = min(a.x, b.x), max(a.x, b.x)
            assert not lo < 0 < hi and not lo < 1 < hi
        on_boundary = {(e.t, e.x) for e in events if e.x in (0, 1)}
        hit_points = {(e.t, e.x) for e in events if e.kind == "hit"}
        assert on_boundary == hit_points  # every contact is a hit, every hit a contact


def test_step_orders_hit_before_scheduled_switch():
    events = run(F(4, 3)).trace.events
    assert events[1] == TraceEvent(F(1), F(1), "hit")
    assert events[2] == TraceEvent(F(4, 3), F(4, 3), "switch")
    assert run(F(4, 3)).turning_points[0].alpha == F(4, 3)
    # at a coinciding instant the hit is recorded first, the switch second
    for tau in sample_taus():
        events = run(tau).trace.events
        for a, b in zip(events, events[1:]):
            if a.t == b.t:
                assert (a.kind, b.kind) == ("hit", "switch") and a.x == b.x


def test_step_requires_future_event():
    # the loop stops at divergence instead of stepping into an eventless state
    out = run(F(63, 43))
    assert isinstance(out, Divergent) and out.direction == -1
    last = out.trace.events[-1]
    assert last.kind == "switch" and last.x < 0
    replay = simulate_switches(F(63, 43), 50)
    assert replay == out.trace


# --- divergence ------------------------------------------------------------


def test_detect_divergence_cases():
    out = run(F(63, 43))  # theta_2: to -inf after 9 switchings
    assert (out.direction, out.total_switchings) == (-1, 9)
    out = run(F(5, 2))  # above 2 the path leaves through 1 after 2 switchings
    assert isinstance(out, Divergent)
    assert (out.direction, out.total_switchings) == (1, 2)
    assert out.trace.events[-1].x > 1
    # below 0 with a switch still pending is not divergence: 63/43 turns at
    # -10/43 (switch 6) and comes back up to 0
    points = run(F(63, 43)).trace.turning_points
    assert points[5].alpha == F(-10, 43) and points[6].alpha == 0


# --- period detection ------------------------------------------------------


def post_switch_states(points, tau):
    """(slope, x, pending offsets) right after each switch, rebuilt from the
    turning points alone: the switches pending after switch n are the later
    ones whose hit happened at or before beta_n.  Only switches at least tau
    before the last one are returned, so that no pending switch is cut off."""
    states = []
    for n, point in enumerate(points, start=1):
        if point.beta + tau > points[-1].beta:
            break
        offsets = tuple(
            b.beta - point.beta for b in points[n:] if b.hit_time <= point.beta
        )
        states.append(((-1) ** n, point.alpha, offsets))
    return states


def earliest_recurrence(states):
    seen = {}
    for j, state in enumerate(states, start=1):
        if state in seen:
            return seen[state], j
        seen[state] = j
    return None


def test_detect_period_earliest_pair():
    # the reported cycle is the earliest exact recurrence of the full state
    for tau in sample_taus():
        out = run(tau)
        if not isinstance(out, Periodic):
            continue
        i, m = out.start_switch, out.switchings_per_period
        replay = simulate_switches(tau, i + 2 * m + 4).turning_points
        assert earliest_recurrence(post_switch_states(replay, tau)) == (i, i + m)
        assert out.least_period == replay[i + m - 1].beta - replay[i - 1].beta


def test_detect_period_distinguishes_offsets():
    # 11/8 is at -7/8 with slope +1 after switch 6 and after switch 8, with
    # two switches pending the first time and none the second: only the full
    # state may close the cycle
    tau = F(11, 8)
    out = run(tau)
    i, m = out.start_switch, out.switchings_per_period
    states = post_switch_states(simulate_switches(tau, i + 2 * m + 4).turning_points, tau)
    assert states[5] == (1, F(-7, 8), (F(1, 4), F(1, 2)))
    assert states[7] == (1, F(-7, 8), ())
    assert (i, i + m) != (6, 8) and i + m > 8


# --- golden traces ---------------------------------------------------------


def test_golden_trace_tau_4_3():
    out = run(F(4, 3))
    assert isinstance(out, Periodic)
    assert out.switchings_per_period == 6
    assert out.least_period == 6
    assert out.start_switch == 1
    assert [p.alpha for p in out.turning_points] == [
        F(4, 3), F(1, 3), F(1), F(-1, 3), F(2, 3), F(0),
    ]


def test_golden_trace_theta_2():
    out = run(F(63, 43))
    assert isinstance(out, Divergent)
    assert (out.direction, out.total_switchings) == (-1, 9)
    assert [p.alpha for p in out.trace.turning_points] == [
        F(63, 43), F(20, 43), F(60, 43), F(14, 43), F(48, 43),
        F(-10, 43), F(0), F(-1), F(-23, 43),
    ]
    # the 8th turning point sits at -1, which is not in the critical set:
    # no hit may be recorded at that instant
    beta_8 = out.trace.turning_points[7].beta
    kinds_at_beta8 = {e.kind for e in out.trace.events if e.t == beta_8}
    assert kinds_at_beta8 == {"switch"}


def test_golden_trace_zeta_1():
    out = run(F(7, 5))
    assert isinstance(out, Divergent)
    assert (out.direction, out.total_switchings) == (-1, 9)
    # zeta is defined by the turning point landing exactly on 0 (switch 4)
    assert out.trace.turning_points[3].alpha == 0


def test_ten_point_window_147_100():
    tau = F(147, 100)
    out = run(tau)
    assert isinstance(out, Periodic)
    assert out.switchings_per_period == 10
    forms = [(1, 0), (1, -1), (3, -3), (5, -7), (11, -15),
             (21, -31), (43, -63), (43, -64), (1, -2), (-85, 124)]
    assert [p.alpha for p in out.turning_points] == [a * tau + b for a, b in forms]


def test_spec_window_145_99_is_eight_point():
    tau = F(145, 99)
    out = run(tau)
    assert isinstance(out, Periodic)
    assert out.switchings_per_period == 8
    forms = [(1, 0), (1, -1), (3, -3), (5, -7), (11, -15), (21, -31), (43, -63), (43, -64)]
    assert [p.alpha for p in out.turning_points] == [a * tau + b for a, b in forms]


def test_tangential_touch_at_tau_2():
    # at tau_k the turning point 2k+1 lands exactly on 1; the touch is a hit
    tau = F(16, 11)
    out = run(tau)
    assert isinstance(out, Periodic)
    assert out.switchings_per_period == 10  # 4k+2, k=2
    point = out.trace.turning_points[4]
    assert point.alpha == 1
    kinds = {e.kind for e in out.trace.events if e.t == point.beta}
    assert kinds == {"hit", "switch"}


def test_out_of_window_tau_runs_empirically():
    out = run(F(1, 2))
    assert isinstance(out, Periodic)
    assert out.switchings_per_period == 2
    out = run(F(2))  # above 3/2: still concludes on its own
    assert isinstance(out, (Periodic, Divergent))


def test_limits_give_undetermined():
    out = run(F(89, 66), max_switches=3)
    assert isinstance(out, Undetermined)
    assert out.switchings_executed == 3
    assert out.stopped_by == "max_switches"
    out = run(F(89, 66), max_time=F(2))
    assert isinstance(out, Undetermined)
    assert out.stopped_by == "max_time"
    with pytest.raises(ValueError):
        run(F(89, 66), max_switches=0)
    with pytest.raises(ValueError):
        run(F(0))


def test_stopped_by_names_the_limit_that_fired():
    tau = F(89, 66)
    by_switches = run(tau, max_switches=5, max_time=F(1000))
    assert (by_switches.stopped_by, by_switches.switchings_executed) == ("max_switches", 5)
    by_time = run(tau, max_switches=1000, max_time=F(7, 2))
    assert by_time.stopped_by == "max_time"
    assert by_time.trace.events[-1].t >= F(7, 2) > by_time.trace.events[-2].t
    # the two-argument constructor still works and defaults to max_switches
    assert Undetermined(3, by_switches.trace).stopped_by == "max_switches"


# --- runtime invariants ----------------------------------------------------


def sample_taus():
    rng = random.Random(8675309)
    taus = [F(4, 3), F(16, 11), F(63, 43), F(7, 5), F(147, 100), F(145, 99)]
    taus += [random_tau_in_window(rng) for _ in range(30)]
    return taus


def test_unit_speed_between_events():
    for tau in sample_taus():
        events = run(tau).trace.events
        for a, b in zip(events, events[1:]):
            assert abs(b.x - a.x) == b.t - a.t


def test_delay_exactness_and_slope_parity():
    for tau in sample_taus():
        trace = run(tau).trace
        for point in trace.turning_points:
            assert point.beta - point.hit_time == tau
        switches = 0
        for a, b in zip(trace.events, trace.events[1:]):
            switches += a.kind == "switch"
            if b.t > a.t:  # slope +1 exactly while the switch count is even
                assert (b.x - a.x) / (b.t - a.t) == (-1) ** switches


def test_snapshot_offsets_invariant():
    for tau in sample_taus():
        points = simulate_switches(tau, 80).turning_points
        for _, _, offsets in post_switch_states(points, tau):
            assert all(0 < off <= tau for off in offsets)
            assert all(a < b for a, b in zip(offsets, offsets[1:]))


def test_simulation_matches_closed_forms_up_to_horizon():
    for tau in sample_taus():
        if not F(4, 3) < tau < F(3, 2):
            continue
        J = horizon_J(tau)
        points = run(tau).trace.turning_points
        assert len(points) >= J
        for j in range(1, J + 1):
            assert points[j - 1].beta == beta_closed(j, tau)
            assert points[j - 1].alpha == alpha_closed(j, tau)


def test_lemma_even_turning_points_positive():
    # for 2m+1 < J every even-indexed turning value is strictly positive
    for tau in sample_taus():
        if not F(4, 3) < tau < F(3, 2):
            continue
        J = horizon_J(tau)
        points = run(tau).trace.turning_points
        for m in range(1, (J - 2) // 2 + 1):
            if 2 * m + 1 < J:
                assert points[2 * m - 1].alpha > 0


def test_determinism():
    for tau in (F(4, 3), F(147, 100), F(63, 43)):
        assert run(tau) == run(tau)


def test_simulate_switches_replay():
    out = run(F(4, 3))
    replay = simulate_switches(F(4, 3), 13)
    assert len(replay.turning_points) == 13
    period = out.least_period
    for n in range(1, 7):
        a = replay.turning_points[n - 1]
        b = replay.turning_points[n + 5]
        assert b.beta - a.beta == period
        assert b.alpha == a.alpha


def test_behavior_labels_and_trace_records():
    assert behavior_label(run(F(4, 3))) == "periodic"
    assert behavior_label(run(F(63, 43))) == "divergent_minus_inf"
    assert behavior_label(run(F(89, 66), max_switches=2)) == "undetermined"
    records = trace_records(run(F(4, 3)).trace)
    assert records[0] == {"t": "0", "x": "0", "kind": "hit"}
    assert all(set(r) == {"t", "x", "kind"} for r in records)
    assert any(r["kind"] == "switch" for r in records)
