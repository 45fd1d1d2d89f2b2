import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayswitch import engine
from delayswitch.analysis import CriticalKind, alpha_closed, beta_closed, critical_value, horizon_J
from delayswitch.engine import (
    Divergent,
    Periodic,
    SimTrace,
    TraceEvent,
    Undetermined,
    behavior_label,
    run,
    simulate_switches,
)
from rowcheck import check_rows, step_rows


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
        assert trace.turning_points[0].beta == tau
        assert check_rows(trace) is None  # so switch 1 is the hit at 0 delayed by tau


# --- ray geometry ----------------------------------------------------------


def test_hits_are_the_boundaries_ahead_of_the_ray():
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


def test_a_hit_at_a_switch_instant_comes_first():
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


def test_a_divergent_run_ends_on_its_last_switch():
    # nothing is due after switch 9 and the ray points away from 0 and 1
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
    ones whose hit, tau before them, happened at or before beta_n.  Only
    switches at least tau before the last one are returned, so that no
    pending switch is cut off."""
    states = []
    for n, point in enumerate(points, start=1):
        if point.beta + tau > points[-1].beta:
            break
        offsets = tuple(
            b.beta - point.beta for b in points[n:] if b.beta - tau <= point.beta
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


_DELAYS = st.one_of(
    st.fractions(F(4, 3), F(3, 2), max_denominator=5000).filter(lambda tau: tau < F(3, 2)),
    st.fractions(F(1), F(4, 3), max_denominator=300),
    st.fractions(F(3, 2), F(3), max_denominator=300),
)


@settings(max_examples=150, deadline=None)
@given(tau=_DELAYS, max_switches=st.sampled_from([5, 40, 200]))
@example(F(4, 3), 200)
@example(F(11, 8), 200)
@example(F(63, 43), 200)
@example(F(147, 100), 200)
@example(F(145, 99), 5)
@example(F(1, 2), 40)
def test_periodic_outcome_is_the_earliest_recurrence(tau, max_switches):
    # the reported cycle is the earliest exact recurrence of the full state;
    # a run that ends otherwise shows no recurrence in its own turning points
    out = run(tau, max_switches)
    if not isinstance(out, Periodic):
        assert earliest_recurrence(post_switch_states(out.trace.turning_points, tau)) is None
        return
    i, m = out.start_switch, out.switchings_per_period
    replay = SimTrace(tau, step_rows(tau, i + 2 * m + 4)).turning_points
    assert earliest_recurrence(post_switch_states(replay, tau)) == (i, i + m)
    assert out.least_period == replay[i + m - 1].beta - replay[i - 1].beta


def test_recurrence_compares_pending_offsets():
    # 11/8 is at -7/8 with slope +1 after switch 6 and after switch 8, with
    # two switches pending the first time and none the second: only the full
    # state may close the cycle
    tau = F(11, 8)
    out = run(tau)
    i, m = out.start_switch, out.switchings_per_period
    states = post_switch_states(SimTrace(tau, step_rows(tau, i + 2 * m + 4)).turning_points, tau)
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
    # 10^5 meets 0 and 1 before its first switch at t = 10^5, and after
    # the second it rises past 1 for good: no time cap cuts it short
    out = run(F(10**5))
    assert (type(out), out.direction, out.total_switchings) == (Divergent, 1, 2)


def test_sized_limit_covers_the_sigma_delays_above_the_window():
    # sigma_m = 6*4^m/(4^(m+1) - 1) closes its cycle at switch 4m + 7, and
    # the delays between sigma_(m+1) and sigma_m diverge after 2m + 4
    # switchings, within the limit a bare run sizes, 4n + 8 with n = m at
    # sigma_m and m or m + 1 between; at m = 4,990 and 5,000 both run past
    # 10,000
    tau = F(6 * 4**4990, 4**4991 - 1)
    out = run(tau)
    assert isinstance(out, Periodic)
    assert out.start_switch + out.switchings_per_period == 4 * 4990 + 7
    out = run(F(3, 2) + F(3, 4**5002))  # between sigma_5001 and sigma_5000
    assert (type(out), out.direction, out.total_switchings) == (Divergent, 1, 2 * 5000 + 4)
    # an explicit limit keeps its meaning
    out = run(tau, 10_000)
    assert (type(out), out.switchings_executed) == (Undetermined, 10_000)


def test_engine_does_not_import_the_classifier():
    # the engine sizes its limit from p/q alone, so the route the classifier
    # is checked against reads nothing of it
    imported = set()
    for node in ast.walk(ast.parse(Path(engine.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # a relative import is from delayswitch
            module = ".".join(filter(None, ["delayswitch" if node.level else "", node.module]))
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert imported and not any(
        name.split(".")[:2] == ["delayswitch", "analysis"] for name in imported
    ), imported


@pytest.mark.parametrize(
    "tau, n, decided, rows_before",
    [(F(63, 43), 9, Divergent, 17), (F(4, 3), 7, Periodic, 13), (F(5, 2), 2, Divergent, 3)],
)
def test_a_limit_at_the_deciding_switch_decides(tau, n, decided, rows_before):
    # divergence and recurrence are checked at the switch that reaches the
    # limit, so a limit of n decides the run and a limit of n - 1 does not
    before, at = run(tau, n - 1), run(tau, n)
    assert (type(before), type(at)) == (Undetermined, decided)
    assert (before.switchings_executed, len(before.trace.rows)) == (n - 1, rows_before)
    assert before.trace.rows == at.trace.rows[: len(before.trace.rows)]
    assert at == run(tau)


def test_limits_give_undetermined():
    out = run(F(89, 66), max_switches=3)
    assert isinstance(out, Undetermined)
    assert out.switchings_executed == 3
    with pytest.raises(ValueError):
        run(F(89, 66), max_switches=0)
    with pytest.raises(ValueError):
        run(F(0))


def test_simulate_switches_refuses_non_positive_limits_as_run_does():
    for limits in ((0,), (-3,)):
        with pytest.raises(ValueError, match="the switch limit must be positive"):
            simulate_switches(F(89, 66), *limits)
        with pytest.raises(ValueError, match="the switch limit must be positive"):
            run(F(89, 66), *limits)


def test_an_explicit_limit_is_kept_as_given():
    # tau_2600 needs 10,403 switchings: the engine sizes a limit left unset,
    # never one the caller gives
    tau = critical_value(CriticalKind.TAU, 2600)
    by_switches = run(tau, max_switches=10_000)
    assert (type(by_switches), by_switches.switchings_executed) == (Undetermined, 10_000)
    # a float delay runs as the Fraction it equals
    assert run(1.4) == run(F(1.4))


def test_an_undetermined_run_ends_on_its_limit_th_switch():
    tau = F(89, 66)
    by_switches = run(tau, max_switches=5)
    assert (type(by_switches), by_switches.switchings_executed) == (Undetermined, 5)
    assert by_switches.trace.rows[-1][2] == "switch"  # the run ends on its 5th switch
    # an undetermined outcome is its switch count and its trace, nothing more
    assert Undetermined(5, by_switches.trace) == by_switches


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
        assert check_rows(trace) is None  # each switch lies tau after its hit
        switches = 0
        for a, b in zip(trace.events, trace.events[1:]):
            switches += a.kind == "switch"
            if b.t > a.t:  # slope +1 exactly while the switch count is even
                assert (b.x - a.x) / (b.t - a.t) == (-1) ** switches


def test_pending_offsets_lie_in_0_tau_and_increase():
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
    events = run(F(4, 3)).trace.events
    assert events[0] == TraceEvent(F(0), F(0), "hit")
    assert {e.kind for e in events} == {"hit", "switch"}
