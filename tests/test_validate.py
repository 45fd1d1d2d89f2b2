import bisect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delayswitch import engine, validate
from delayswitch.analysis import CriticalKind, critical_value, distance_to_critical, horizon_J
from delayswitch.render import render_trajectory
from delayswitch.validate import (
    OracleRefusal,
    check_closed_form,
    check_theorem,
    float_oracle,
    periodicity_certificate,
    sweep,
    sweep_taus,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_check_theorem_tau_3():
    record = check_theorem(F(64, 43))  # tau_3
    assert record.agree
    assert record.simulated_behavior == "periodic"
    assert record.simulated_switches == 14
    assert record.certificate_ok is True
    # a float delay is recorded as the Fraction it checks, which a report writes
    record = check_theorem(1.375)
    assert (type(record.tau), record.tau, record.agree) == (F, F(11, 8), True)
    assert validate.SweepReport(1, 0, (record,)).to_csv().splitlines()[1].startswith("11/8,")


def test_check_theorem_theta_1_and_zeta_2():
    record = check_theorem(F(15, 11))
    assert record.agree
    assert (record.simulated_behavior, record.simulated_switches) == (
        "divergent_minus_inf",
        7,
    )
    record = check_theorem(F(31, 21))
    assert record.agree
    assert (record.simulated_behavior, record.simulated_switches) == (
        "divergent_minus_inf",
        13,
    )


def test_bare_check_theorem_answers_past_10_000_switchings():
    # tau_2600 cycles with 10,402 switchings per period and theta_5100
    # diverges after 10,205, past 10,000 and within the limits a bare call
    # sizes, 4k + 8: 10,408 and 20,408
    for kind, k, switches in ((CriticalKind.TAU, 2600, 10_402), (CriticalKind.THETA, 5100, 10_205)):
        record = check_theorem(critical_value(kind, k))
        assert (record.agree, record.reason) == (True, ""), kind
        assert record.simulated_switches == record.prediction.switch_count == switches


def test_check_theorem_horizon_reason():
    record = check_theorem(F(89, 66), engine.run(F(89, 66), max_switches=3))
    assert not record.agree
    assert record.reason == "horizon"
    assert record.simulated_behavior == "undetermined"


def test_check_theorem_out_of_range():
    with pytest.raises(ValueError):
        check_theorem(F(1, 2))


def test_periodicity_certificate():
    outcome = engine.run(F(4, 3))
    assert periodicity_certificate(outcome)
    outcome = engine.run(F(147, 100))
    assert periodicity_certificate(outcome)


def test_check_closed_form_cases():
    record = check_closed_form(F(145, 99))
    assert record.agree and record.horizon == 7
    record = check_closed_form(F(4, 3))
    assert record.agree and record.horizon == 3
    record = check_closed_form(F(1499, 1000))
    assert record.agree and record.horizon == 11
    record = check_closed_form(F(16, 11))
    assert record.agree and record.horizon == 5


def test_checks_read_the_scaled_rows_without_building_views(monkeypatch):
    def refuse(self):
        raise AssertionError("Fraction views built")

    monkeypatch.setattr(engine.SimTrace, "events", property(refuse))
    monkeypatch.setattr(engine.SimTrace, "turning_points", property(refuse))
    for tau in (F(63, 43), F(147, 100), F(16, 11)):
        outcome = engine.run(tau)
        record = check_theorem(tau, outcome)
        assert record.agree and record.certificate_ok is not False
        assert check_closed_form(tau, outcome).agree
        if isinstance(outcome, engine.Periodic):
            assert periodicity_certificate(outcome)
        assert "&#945;3" in render_trajectory(outcome, label_indices=(1, 3))
    for view in ("events", "turning_points"):
        with pytest.raises(AssertionError, match="views built"):
            getattr(engine.run(F(16, 11)).trace, view)


def _move_switch(trace, j, dt=0, dx=1):
    """The trace with switch j's scaled row moved by (dt, dx) units."""
    rows = list(trace.rows)
    n = [i for i, row in enumerate(rows) if row[2] == "switch"][j - 1]
    rows[n] = (rows[n][0] + dt, rows[n][1] + dx, "switch")
    return engine.SimTrace(trace.tau, tuple(rows))


def test_checks_catch_a_corrupted_trace():
    tau = F(147, 100)
    honest = engine.run(tau)
    i, m = honest.start_switch, honest.switchings_per_period
    wrong_period = engine.Periodic(honest.least_period + F(1, 100), m, i, honest.trace)
    assert not periodicity_certificate(wrong_period)
    moved = engine.Periodic(honest.least_period, m, i, _move_switch(honest.trace, i + m))
    assert not periodicity_certificate(moved)
    corrupted = engine.Periodic(honest.least_period, m, i, _move_switch(honest.trace, 1))
    assert "alpha_1" in check_closed_form(tau, corrupted).mismatches


def test_check_theorem_names_each_failed_agreement():
    # 147/100 lies in (theta_2, zeta_2): periodic, 10 switchings per period
    tau = F(147, 100)
    honest = engine.run(tau)
    assert honest.switchings_per_period == 10
    cases = {
        "switch_count": honest._replace(switchings_per_period=12),
        "behavior": engine.Divergent(-1, 10, honest.trace),
        "certificate": honest._replace(least_period=honest.least_period + 1),
    }
    for reason, outcome in cases.items():
        record = check_theorem(tau, outcome)
        assert (record.agree, record.reason) == (False, reason)
        assert record.certificate_ok is (False if reason == "certificate" else None)


def test_check_closed_form_names_each_mismatch():
    tau = F(147, 100)
    horizon = horizon_J(tau)
    short = check_closed_form(tau, engine.run(tau, horizon - 1))
    assert short.simulated_horizon is None
    assert short.mismatches == (
        f"trace has {horizon - 1} switchings, horizon is {horizon}",
        f"simulated horizon None != {horizon}",
    )
    # switch 3 one unit (1/q) late: beta_3 differs, every alpha_j still holds
    honest = engine.run(tau)
    late = honest._replace(trace=_move_switch(honest.trace, 3, dt=1, dx=0))
    assert check_closed_form(tau, late).mismatches == ("beta_3",)


def test_check_closed_form_compares_up_to_the_horizon_past_an_early_failure():
    # 147/100: J = 7.  alpha_3 moved from 141/100 to 81/100 fails alpha_3 > 1
    # at j = 3, and switch 5 one unit late differs only in beta_5, which the
    # check still compares
    tau = F(147, 100)
    honest = engine.run(tau)
    assert horizon_J(tau) == 7 and honest.trace.switches[2] == (341, 141)
    trace = _move_switch(_move_switch(honest.trace, 3, dx=-60), 5, dt=1, dx=0)
    record = check_closed_form(tau, honest._replace(trace=trace))
    assert record.simulated_horizon == 3
    assert record.mismatches == ("alpha_3", "beta_5", "simulated horizon 3 != 7")


def test_checks_given_an_outcome_do_not_simulate(monkeypatch):
    outcomes = {tau: engine.run(tau) for tau in sweep_taus(6, 3)}
    expected = {tau: (check_theorem(tau), check_closed_form(tau)) for tau in outcomes}

    def refuse(*args, **kwargs):
        raise AssertionError("simulated again")

    monkeypatch.setattr(engine, "_simulate", refuse)
    for tau, outcome in outcomes.items():
        given = (check_theorem(tau, outcome), check_closed_form(tau, outcome))
        assert given == expected[tau], tau
        if isinstance(outcome, engine.Periodic):
            assert periodicity_certificate(outcome), tau


def test_periodicity_certificate_rejects_mutants():
    honest = engine.run(F(147, 100))
    i, m, period = honest.start_switch, honest.switchings_per_period, honest.least_period
    trace = honest.trace
    p, q = trace.tau.numerator, trace.tau.denominator
    assert periodicity_certificate(honest)
    t_end = trace.switches[i + m - 1][0]
    rows = trace.rows
    window = [n for n, (t, _, kind) in enumerate(rows) if kind == "hit" and t_end - p < t <= t_end]
    dropped = rows[: window[0]] + rows[window[0] + 1 :]
    t_short = trace.switches[i + m - 3][0] - trace.switches[i - 1][0]
    mutants = {
        "switch i + m moved by 1/q": engine.Periodic(period, m, i, _move_switch(trace, i + m)),
        "pending hit dropped": engine.Periodic(period, m, i, engine.SimTrace(trace.tau, dropped)),
        "wrong least period": engine.Periodic(period - F(1, q), m, i, trace),
        "cycle two switchings short": engine.Periodic(F(t_short, q), m - 2, i, trace),
    }
    # 11/8 repeats (slope, X) at switches 6 and 8, but not the pending switches
    other = engine.run(F(11, 8)).trace
    (t6, x6), (t8, x8) = other.switches[5], other.switches[7]
    assert x6 == x8
    mutants["only (slope, X) repeats"] = engine.Periodic(F(t8 - t6, 8), 2, 6, other)
    # equal X, nothing pending, the claimed gap: only the slope differs
    odd = engine.SimTrace(F(3, 2), ((0, 0, "hit"), (3, 3, "switch"), (13, 3, "switch")))
    mutants["odd switchings per period"] = engine.Periodic(F(5), 1, 1, odd)
    mutants["empty cycle"] = engine.Periodic(F(0), 0, 1, odd)
    mutants["cycle from switch 0"] = engine.Periodic(F(0), 2, 0, odd)
    for name, mutant in mutants.items():
        assert not periodicity_certificate(mutant), name


def test_checks_refuse_an_outcome_of_another_delay():
    outcome = engine.run(F(147, 100))
    for check in (check_theorem, check_closed_form):
        with pytest.raises(ValueError, match="not 16/11"):
            check(F(16, 11), outcome)


def test_sweep_keeps_no_traces():
    tracemalloc.start()
    try:
        report = sweep(30, 3)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.all_agree
    # the records alone; rows that kept their outcomes would hold about 4 MB
    assert current < 2**20


def test_bare_tau_closed_form_check_runs_only_the_horizon(monkeypatch):
    # the check reads switchings 1..J, so a bare tau simulates no further
    asked = []
    simulate = engine._simulate

    def spy(tau, max_switches, *args, **kwargs):
        asked.append(max_switches)
        return simulate(tau, max_switches, *args, **kwargs)

    monkeypatch.setattr(engine, "_simulate", spy)
    for tau in sweep_taus(3, 2) + [critical_value(CriticalKind.ZETA, 40)]:
        asked.clear()
        record = check_closed_form(tau)
        assert record.agree, (tau, record.mismatches)
        assert asked and max(asked) <= horizon_J(tau), tau


def test_check_closed_form_horizon_at_k_99_and_130():
    # J is 2k+1 at tau_k and 2k+3 elsewhere in [tau_k, tau_{k+1})
    for k in (99, 130):
        tau_k = critical_value(CriticalKind.TAU, k)
        zeta_k = critical_value(CriticalKind.ZETA, k)
        tau_next = critical_value(CriticalKind.TAU, k + 1)
        cases = ((tau_k, 2 * k + 1), (zeta_k, 2 * k + 3), (tau_next - F(1, 10**90), 2 * k + 3))
        for tau, horizon in cases:
            record = check_closed_form(tau)
            assert record.agree, record.mismatches
            assert record.horizon == record.simulated_horizon == horizon
            assert horizon_J(tau) == horizon
    with pytest.raises(ValueError):
        check_closed_form(F(3, 2))


@pytest.mark.parametrize("kind", list(CriticalKind))
def test_check_closed_form_agrees_at_k_3000(kind):
    # J = 6,001 or 6,003 rows of ints of about 6,000 bits, from the horizon
    # run of a bare tau and from the full run of a given outcome
    tau = critical_value(kind, 3000)
    horizon = 6001 if kind is CriticalKind.TAU else 6003
    for outcome in (None, engine.run(tau)):
        record = check_closed_form(tau, outcome)
        assert record.agree, record.mismatches[:3]
        assert record.horizon == record.simulated_horizon == horizon


def test_float_oracle_refuses_critical_values():
    # the window's critical values, and outside it 1 and the periodic sigma_m
    # = 6*4^m/(4^(m+1) - 1) above 3/2 (2, 8/5, 32/21, 128/85, ...)
    for tau in (F(63, 43), F(4, 3), F(7, 5), F(1), F(2), F(8, 5), F(32, 21), F(128, 85)):
        with pytest.raises(OracleRefusal):
            float_oracle(tau)
    # within 1000*dt of theta_2 but not equal
    with pytest.raises(OracleRefusal):
        float_oracle(F(63, 43) + F(1, 10**7))
    with pytest.raises(OracleRefusal):
        float_oracle(1 + F(1, 10**8))


def test_float_oracle_refuses_delays_past_the_float_range():
    # 10^400 has no float; 10^307 has one, but not its count of steps
    for tau in (F(10**400), F(10**307)):
        with pytest.raises(OracleRefusal, match="past the float range"):
            float_oracle(tau)
    # a delay of 1.451e300 steps has a float, but 10^310 steps to t_end do not
    with pytest.raises(OracleRefusal, match=r"t_end/dt = .* is past the float range"):
        float_oracle(F(1451, 1000), dt=1e-300, t_end=1e10)


def test_float_oracle_rejects_a_delay_that_is_not_positive():
    # not an OracleRefusal: no float resolution could simulate tau = 0
    for tau in (F(0), F(-1, 2)):
        with pytest.raises(ValueError, match="tau must be positive") as raised:
            float_oracle(tau)
        assert raised.type is ValueError


def test_float_oracle_rejects_bad_dt():
    with pytest.raises(ValueError):
        float_oracle(F(27, 20), dt=1e-3)


def test_float_oracle_rejects_a_t_end_that_is_not_finite_and_positive():
    # inf overflowed in round(), nan raised from it, and t_end <= 0 returned []
    for t_end in (math.inf, math.nan, 0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="t_end must be finite and positive"):
            float_oracle(F(1451, 1000), t_end=t_end)
    assert float_oracle(F(1451, 1000), t_end=3.0)


SHORT_DELAY = """
from fractions import Fraction
from delayswitch.validate import OracleRefusal, float_oracle
try:
    float_oracle(Fraction(1, 10**7), t_end=0.001)
except OracleRefusal as exc:
    print("refused:", exc)
"""


def test_float_oracle_refuses_delays_shorter_than_a_step():
    # run apart, so that a loop which never advances fails by timeout
    # instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SHORT_DELAY], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: tau = 1/10000000 is shorter than one step")


def test_float_oracle_first_turning_points():
    pts = float_oracle(F(27, 20), dt=1e-6, t_end=3.2)
    exact = engine.run(F(27, 20)).trace.turning_points
    assert len(pts) >= 2
    for (t, x), point in zip(pts, exact):
        assert abs(t - float(point.beta)) < 1e-5
        assert abs(x - float(point.alpha)) < 1e-5


def _whole_history_oracle(tau_f, dt, t_end):
    """The oracle stepped by brute force: the whole history in one array,
    every delayed sample of a chunk compared with 0 and 1, and each run of
    constant increment filled as its first position plus step counts times
    the increment."""
    n_steps = int(round(t_end / dt))
    delay = tau_f / dt
    d_int = int(delay)
    d_frac = delay - d_int
    off = d_int + 1  # x[off + n] is the position at step n
    x = np.empty(off + n_steps + 1)
    first, x_first, inc = -off, -off * dt, dt  # the run being filled: the history
    written = -off  # steps before this one hold their positions

    def fill(end):  # the positions of steps written..end-1
        nonlocal written
        x[off + written : off + end] = x_first + np.arange(written - first, end - first) * inc
        written = end

    slope, turning, filled = 1.0, [], 0
    while filled < n_steps:
        lo, hi = filled + 1, filled + min(d_int, n_steps - filled)
        fill(filled + 1)
        seg = x[off + lo - 2 - d_int : off + hi - d_int + 1]
        delayed = (1.0 - d_frac) * seg[1:] + d_frac * seg[:-1]  # steps lo-1..hi
        crossings = []
        for bound in (0.0, 1.0):
            left, right = delayed[:-1] - bound, delayed[1:] - bound
            for i in np.nonzero((left * right < 0.0) | ((right == 0.0) & (left != 0.0)))[0]:
                frac = 1.0 if right[i] == 0.0 else float(left[i] / (left[i] - right[i]))
                crossings.append((lo + int(i), frac))
        for n, frac in sorted(crossings):
            fill(n)
            x_prev = float(x[off + n - 1])
            turning.append(((n - 1 + frac) * dt, x_prev + slope * frac * dt))
            x_first = x_prev + (slope * frac - slope * (1.0 - frac)) * dt
            slope = -slope
            first, inc = n, slope * dt
        filled = hi
    return turning


@pytest.mark.parametrize(
    "tau, dt, t_end",
    [(F(1449, 1000), 1e-6, 3.0), (F(13, 10), 1e-6, 3.0), (F(1, 2), 1e-6, 3.0),
     (F(3, 100), 1e-6, 3.0), (F(5, 2), 1e-6, 3.0), (F(27, 20), 2.5e-7, 3.0),
     # turns close to a bound, so the delayed sample crosses it next to a run start
     (F(2003, 1500), 1e-6, 5.0),
     # a falling stretch of samples that passes 1 and then 0
     (F(27, 20), 1e-6, 6.0)],
)
def test_float_oracle_matches_whole_history_version(tau, dt, t_end):
    # the same floats, bit for bit, as the brute-force stepper gives
    assert float_oracle(tau, dt=dt, t_end=t_end) == _whole_history_oracle(float(tau), dt, t_end)



@settings(max_examples=30, deadline=None)
@given(
    tau=st.fractions(F(1, 20), F(3), max_denominator=10**6),
    dt=st.sampled_from([1e-6, 5e-7]),
    t_end=st.floats(0.01, 1.5),
)
def test_float_oracle_matches_whole_history_version_on_random_delays(tau, dt, t_end):
    assume(distance_to_critical(tau) >= 1000 * F(dt))
    assert float_oracle(tau, dt=dt, t_end=t_end) == _whole_history_oracle(float(tau), dt, t_end)


@settings(max_examples=150, deadline=None)
@given(
    steps=st.fractions(1, 300, max_denominator=1000),
    dt=st.sampled_from([1e-6, 5e-7, 2.5e-7]),
    delays=st.floats(0.5, 60),
)
def test_float_oracle_matches_whole_history_version_on_short_delays(steps, dt, delays):
    # delays of a few hundred steps at most, with crossings every delay or
    # so: they fall at the reference's chunk edges and right after the start
    # of a run, where a pair of samples reads both sides of it
    tau = steps * F(dt)
    t_end = delays * float(tau)
    assume(tau / dt >= 1 and int(float(tau) / dt) >= 1)
    assert float_oracle(tau, dt=dt, t_end=t_end) == _whole_history_oracle(float(tau), dt, t_end)


@settings(max_examples=100, deadline=None)
@given(
    tau=st.one_of(
        st.fractions(F(4, 3), F(3, 2), max_denominator=10**6),
        st.fractions(F(1, 10), F(3), max_denominator=10**6),
    ),
    t_end=st.floats(1.0, 6.0),
)
def test_float_oracle_turns_within_ten_steps_of_the_engine(tau, t_end):
    # the oracle's documented contract, against the exact engine
    dt = 1e-6
    assume(distance_to_critical(tau) >= 1000 * F(dt))
    cut = t_end - 20 * dt  # the oracle may miss a turn in the last steps
    approx = [(t, x) for t, x in float_oracle(tau, dt=dt, t_end=t_end) if t <= cut]
    points = engine.simulate_switches(tau, 200).turning_points  # past t = 6 for tau >= 1/10
    exact = [(float(p.beta), float(p.alpha)) for p in points]
    # an exact turn within 10*dt of the cut may fall on either side of it
    below, above = (sum(t <= cut + s * dt for t, _ in exact) for s in (-10, 10))
    assert below <= len(approx) <= above
    for (t, x), (t_exact, x_exact) in zip(approx, exact):
        assert abs(t - t_exact) <= 10 * dt and abs(x - x_exact) <= 10 * dt, (t_exact, x_exact)


def test_float_oracle_cost_follows_the_crossings(monkeypatch):
    # the oracle's calls into bisect: one per stretch of samples that read
    # one run and one per position lookup, two per sample; a stretch reads
    # its two end samples and one per bisection step, and the crossing step
    # reuses the two samples the bisection ends on
    calls = []

    def counted(*args):
        calls.append(None)
        return bisect.bisect_right(*args)

    monkeypatch.setattr(validate, "bisect", SimpleNamespace(bisect_right=counted))
    # 5/2 diverges after two turns: 10^11 steps, 40,000 delays, 165 calls
    assert len(float_oracle(F(5, 2), t_end=1e5)) == 2
    assert len(calls) < 170
    # a periodic delay: a bisection of about log2(1.45e6) steps per crossing,
    # 65.4 calls per turning point
    calls.clear()
    turning = float_oracle(F(1451, 1000), t_end=200.0)
    assert len(turning) > 100
    assert len(calls) <= 66 * len(turning)


def test_float_oracle_memory_does_not_grow_with_t_end():
    tracemalloc.start()
    try:
        float_oracle(F(27, 20), dt=1e-6, t_end=20.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two floats per run of constant increment, that is per crossing (about
    # 7 kB), not the history's delay's worth of samples (1.35e6 floats,
    # 11 MB and a copy) nor the 20e6 steps of the whole run (160 MB)
    assert peak < 2**20


def test_sweep_endpoints_only():
    taus = sweep_taus(1, 0)
    assert taus == [F(4, 3), F(15, 11), F(7, 5)]


def test_sweep_sampling_is_deterministic_and_ordered():
    taus = sweep_taus(3, 3)
    assert taus == sweep_taus(3, 3)
    assert all(a < b for a, b in zip(taus, taus[1:]))
    assert len(taus) == 3 * (3 + 3 * 3)
    # fixed fractions 1/4, 1/2, 3/4 of each open interval
    lo, hi = F(4, 3), F(15, 11)
    assert taus[1:4] == [lo + (hi - lo) * F(i, 4) for i in (1, 2, 3)]


def test_sweep_agrees_and_serializes():
    report = sweep(2, 1)
    assert report.all_agree
    assert report.agreements == len(report.entries) == 2 * 6
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == (
        "tau,regime,predicted_behavior,predicted_switches,"
        "simulated_behavior,simulated_switches,agree"
    )
    assert lines[1] == "4/3,tau_k,periodic,6,periodic,6,true"
    assert len(lines) == len(report.entries) + 1
    doc = json.loads(report.to_json())
    assert doc["all_agree"] is True
    assert doc["total"] == len(report.entries)
    assert doc["entries"][0]["tau"] == "4/3"
    assert doc["entries"][0]["k"] == 1
    # byte determinism
    assert report.to_csv() == sweep(2, 1).to_csv()
    assert report.to_json() == sweep(2, 1).to_json()


def test_sweep_limits_reach_every_run():
    report = sweep(1, 0, max_switches=3)
    assert (len(report.entries), report.agreements) == (3, 0)
    assert {(e.simulated_behavior, e.reason) for e in report.entries} == {
        ("undetermined", "horizon")
    }


def test_sweep_validates_arguments():
    with pytest.raises(ValueError):
        sweep_taus(0, 1)
    with pytest.raises(ValueError):
        sweep_taus(2, -1)
