"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; every comparison is exact unless a tolerance is stated in the test.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache

from delayswitch import analysis, engine, render, validate
from delayswitch.analysis import CriticalKind, beta_closed, beta_recurrence, horizon_J

TAU, THETA, ZETA = CriticalKind.TAU, CriticalKind.THETA, CriticalKind.ZETA


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d}: FAIL - {description}")
        raise
    print(f"criterion {n:2d}: PASS - {description}")


def regime_table_rows(k: int) -> list[tuple[F, str, int]]:
    """The six regime tests for one k: value, expected behavior, switch count."""
    tau_k = analysis.critical_value(TAU, k)
    theta_k = analysis.critical_value(THETA, k)
    zeta_k = analysis.critical_value(ZETA, k)
    tau_next = analysis.critical_value(TAU, k + 1)
    mid = lambda lo, hi: (lo + hi) / 2
    return [
        (tau_k, "periodic", 4 * k + 2),
        (mid(tau_k, theta_k), "periodic", 2 * k + 4),
        (theta_k, "divergent_minus_inf", 2 * k + 5),
        (mid(theta_k, zeta_k), "periodic", 2 * k + 6),
        (zeta_k, "divergent_minus_inf", 4 * k + 5),
        (mid(zeta_k, tau_next), "periodic", 2 * k + 4),
    ]


GRID_200 = [F(1608 + i, 1206) for i in range(1, 201)]  # 4/3 + (1/6)*i/201

TEN_POINT_FORMS = [
    (1, 0), (1, -1), (3, -3), (5, -7), (11, -15),
    (21, -31), (43, -63), (43, -64), (1, -2), (-85, 124),
]


@lru_cache(maxsize=None)
def cached_run(tau: F) -> engine.Outcome:
    return engine.run(tau)


def simulated_behavior(outcome: engine.Outcome) -> tuple[str, int]:
    label = engine.behavior_label(outcome)
    if isinstance(outcome, engine.Periodic):
        return label, outcome.switchings_per_period
    assert isinstance(outcome, engine.Divergent)
    return label, outcome.total_switchings


def test_criterion_01_regime_table_k1_to_k6():
    with criterion(1, "36 regime tests, k = 1..6, exact counts, < 5 s"):
        start = time.perf_counter()
        rows = 0
        for k in range(1, 7):
            for tau, behavior, count in regime_table_rows(k):
                outcome = engine.run(tau)
                assert simulated_behavior(outcome) == (behavior, count), (k, tau)
                rows += 1
        elapsed = time.perf_counter() - start
        assert rows == 36
        assert elapsed < 5.0, f"regime table took {elapsed:.2f}s"


def test_criterion_02_golden_trace_tau_4_3():
    with criterion(2, "tau = 4/3 golden trace and 6-switch least period"):
        outcome = cached_run(F(4, 3))
        assert isinstance(outcome, engine.Periodic)
        assert [p.alpha for p in outcome.turning_points] == [
            F(4, 3), F(1, 3), F(1), F(-1, 3), F(2, 3), F(0),
        ]
        assert outcome.switchings_per_period == 6


def test_criterion_03_golden_trace_63_43():
    with criterion(3, "tau = 63/43 golden divergent trace, 9 switchings"):
        outcome = cached_run(F(63, 43))
        assert isinstance(outcome, engine.Divergent)
        assert [p.alpha for p in outcome.trace.turning_points] == [
            F(63, 43), F(20, 43), F(60, 43), F(14, 43), F(48, 43),
            F(-10, 43), F(0), F(-1), F(-23, 43),
        ]
        assert outcome.direction == -1
        assert outcome.total_switchings == 9


def test_criterion_04_ten_point_window():
    # The ten-point symbolic turning list belongs to (63/43, 31/21).  The
    # originally quoted tau = 145/99 lies below that window by exact
    # comparison (145*43 = 6235 < 6237 = 63*99), so the list is pinned at two
    # delays genuinely inside it, and 145/99 is additionally pinned to its
    # true eight-switch behavior (see the decisions ledger).
    with criterion(4, "ten-point symbolic turning list on (63/43, 31/21)"):
        midpoint = (F(63, 43) + F(31, 21)) / 2  # = 1328/903
        assert F(63, 43) < midpoint < F(31, 21)
        assert F(63, 43) < F(147, 100) < F(31, 21)
        for tau in (midpoint, F(147, 100)):
            outcome = cached_run(tau)
            assert isinstance(outcome, engine.Periodic)
            assert outcome.switchings_per_period == 10
            expected = [a * tau + b for a, b in TEN_POINT_FORMS]
            assert [p.alpha for p in outcome.turning_points] == expected

        tau = F(145, 99)
        assert tau < F(63, 43)
        outcome = cached_run(tau)
        assert isinstance(outcome, engine.Periodic)
        assert outcome.switchings_per_period == 8
        expected = [a * tau + b for a, b in TEN_POINT_FORMS[:8]]
        assert [p.alpha for p in outcome.turning_points] == expected


def test_criterion_05_closed_form_equivalence_200_taus():
    with criterion(5, "closed forms vs recurrence and simulation, 200 taus, < 30 s"):
        start = time.perf_counter()
        assert len(GRID_200) == 200
        for tau in GRID_200:
            assert F(4, 3) < tau < F(3, 2)
            chain = beta_recurrence(60, tau)
            assert chain == [beta_closed(j, tau) for j in range(1, 61)]
            record = validate.check_closed_form(tau)
            assert record.agree, (tau, record.mismatches)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"closed-form sweep took {elapsed:.2f}s"


def _criterion_runs_in_open_window():
    taus = set()
    for k in range(1, 7):
        taus.update(tau for tau, _, _ in regime_table_rows(k))
    taus.update(
        [F(4, 3), F(63, 43), (F(63, 43) + F(31, 21)) / 2, F(147, 100), F(145, 99)]
    )
    taus.update(GRID_200)
    return sorted(t for t in taus if F(4, 3) < t < F(3, 2))


def test_criterion_06_even_turning_points_positive():
    with criterion(6, "alpha_{2m} > 0 whenever 2m+1 < J, across criteria 1-5 runs"):
        checked = 0
        for tau in _criterion_runs_in_open_window():
            J = horizon_J(tau)
            points = cached_run(tau).trace.turning_points
            for m in range(1, len(points) // 2 + 1):
                if 2 * m + 1 < J:
                    assert points[2 * m - 1].alpha > 0, (tau, 2 * m)
                    checked += 1
        assert checked > 200


def test_criterion_07_interleaving_k_to_20():
    with criterion(7, "tau_k < theta_k < zeta_k < tau_{k+1} < 3/2 for k <= 20"):
        for k in range(1, 21):
            assert (
                analysis.critical_value(TAU, k)
                < analysis.critical_value(THETA, k)
                < analysis.critical_value(ZETA, k)
                < analysis.critical_value(TAU, k + 1)
                < F(3, 2)
            )


def test_criterion_08_periodicity_certificates():
    with criterion(8, "replayed extra period matches, all periodic criterion-1 runs"):
        certified = 0
        for k in range(1, 7):
            for tau, behavior, _ in regime_table_rows(k):
                if behavior != "periodic":
                    continue
                outcome = cached_run(tau)
                assert isinstance(outcome, engine.Periodic)
                assert validate.periodicity_certificate(outcome), tau
                certified += 1
        assert certified == 24


def test_criterion_09_float_oracle_agreement():
    with criterion(9, "float oracle within 1e-5 of the exact engine"):
        for tau in (F(27, 20), F(147, 100)):
            exact = cached_run(tau).trace.turning_points
            t_end = float(exact[-1].beta) + 0.6
            approx = validate.float_oracle(tau, dt=1e-6, t_end=t_end)
            assert len(approx) >= len(exact)
            for (t, x), point in zip(approx, exact):
                assert abs(t - float(point.beta)) < 1e-5, (tau, point)
                assert abs(x - float(point.alpha)) < 1e-5, (tau, point)


def test_criterion_10_render_determinism_and_vertices():
    with criterion(10, "render 64/43 twice byte-identical; 14 turning points on path"):
        outcome = cached_run(F(64, 43))
        assert isinstance(outcome, engine.Periodic)
        assert outcome.switchings_per_period == 14
        first = render.render_trajectory(outcome)
        second = render.render_trajectory(outcome)
        assert first.encode("utf-8") == second.encode("utf-8")
        marker = '<polyline class="trajectory" points="'
        start = first.index(marker) + len(marker)
        path = first[start : first.index('"', start)]
        vertex_set = set(path.split())
        ts, xs = render._vertices(outcome)
        to_px, _ = render._projection(ts, set(xs), 900, 380)
        for point in outcome.turning_points:
            assert "%.2f,%.2f" % to_px(float(point.beta), float(point.alpha)) in vertex_set
