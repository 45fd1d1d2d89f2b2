import bisect
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayswitch.analysis import (
    Behavior,
    CriticalKind,
    Regime,
    RegimeKind,
    _sup_bits,
    alpha_closed,
    beta_closed,
    beta_recurrence,
    classify,
    closed_points,
    critical_neighbours,
    critical_value,
    distance_to_critical,
    horizon_J,
    window_k,
)
from delayswitch.exact import rat_parse
import regimecheck

TAU, THETA, ZETA = CriticalKind.TAU, CriticalKind.THETA, CriticalKind.ZETA


def alpha_from_beta(j: int, tau: F, betas: list[F]) -> F:
    """The paper's turning value from consecutive switch instants, j >= 2:

    alpha_j = 1 + (-1)^j * [tau - 2*(beta_j - beta_{j-1})].
    """
    if j < 2:
        raise ValueError("j must be >= 2")
    if len(betas) < j:
        raise ValueError(f"betas must contain beta_{j - 1} and beta_{j}")
    return 1 + (-1) ** j * (tau - 2 * (betas[j - 1] - betas[j - 2]))


def random_tau_in_window(rng: random.Random) -> F:
    """A rational strictly between 4/3 and 3/2."""
    den = rng.randint(100, 100_000)
    lo = 4 * den // 3 + 1
    hi = (3 * den - 1) // 2
    return F(rng.randint(lo, hi), den)


def test_critical_values_k1():
    assert critical_value(TAU, 1) == F(4, 3)
    assert critical_value(THETA, 1) == F(15, 11)
    assert critical_value(ZETA, 1) == F(7, 5)


def test_critical_values_k2_k3():
    assert critical_value(TAU, 2) == F(16, 11)
    assert critical_value(THETA, 2) == F(63, 43)  # 3*63/129 reduced
    assert critical_value(ZETA, 2) == F(31, 21)
    assert critical_value(TAU, 3) == F(64, 43)


def test_critical_value_domain():
    with pytest.raises(ValueError):
        critical_value(TAU, 0)


def test_interleaving_up_to_20():
    for k in range(1, 21):
        assert (
            critical_value(TAU, k)
            < critical_value(THETA, k)
            < critical_value(ZETA, k)
            < critical_value(TAU, k + 1)
            < F(3, 2)
        )


def test_distances_to_limit_decrease():
    for kind in (TAU, THETA, ZETA):
        gaps = [F(3, 2) - critical_value(kind, k) for k in range(1, 21)]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_beta_seeds():
    rng = random.Random(11)
    for _ in range(20):
        tau = random_tau_in_window(rng)
        assert beta_closed(1, tau) == tau
        assert beta_closed(2, tau) == tau + 1
        assert beta_recurrence(2, tau) == [tau, tau + 1]


def test_beta_recurrence_small():
    # beta_3 = -beta_2 + 2*beta_1 + 2*tau = 3*tau - 1 = 3 at tau = 4/3
    assert beta_recurrence(3, F(4, 3)) == [F(4, 3), F(7, 3), F(3)]
    # a float or int delay is read as the Fraction it equals, once
    for tau in (1.5, 2):
        chain = beta_recurrence(4, tau)
        assert [type(b) for b in chain] == [F] * 4, chain
        assert chain == [beta_closed(j, tau) for j in range(1, 5)]
    with pytest.raises(ValueError):
        beta_recurrence(1, F(4, 3))


def test_beta_closed_vs_recurrence_oracle():
    # hand-iterated oracle at tau = 7/5: tau, tau+1, 3tau-1, tau+3, 7tau-5
    tau = F(7, 5)
    expected = [tau, tau + 1, 3 * tau - 1, tau + 3, 7 * tau - 5]
    assert beta_recurrence(5, tau) == expected
    assert [beta_closed(j, tau) for j in range(1, 6)] == expected
    assert beta_closed(5, tau) == F(24, 5)


def test_beta_routes_agree_on_random_windows():
    rng = random.Random(404)
    for _ in range(100):
        tau = random_tau_in_window(rng)
        chain = beta_recurrence(60, tau)
        assert chain == [beta_closed(j, tau) for j in range(1, 61)]


def test_alpha_from_beta():
    rng = random.Random(5)
    for _ in range(20):
        tau = random_tau_in_window(rng)
        betas = beta_recurrence(8, tau)
        assert alpha_from_beta(2, tau, betas) == tau - 1
    assert alpha_from_beta(3, F(4, 3), beta_recurrence(3, F(4, 3))) == 1
    tau = F(145, 99)
    assert alpha_from_beta(7, tau, beta_recurrence(7, tau)) == 43 * tau - 63
    with pytest.raises(ValueError):
        alpha_from_beta(5, F(7, 5), beta_recurrence(4, F(7, 5)))


def test_alpha_routes_agree():
    rng = random.Random(6)
    for _ in range(50):
        tau = random_tau_in_window(rng)
        betas = beta_recurrence(40, tau)
        for j in range(2, 41):
            assert alpha_from_beta(j, tau, betas) == alpha_closed(j, tau)


@given(
    tau=st.builds(F, st.integers(1, 10**40), st.integers(1, 10**40)),
    j=st.integers(1, 300),
)
@example(tau=F(4, 3), j=1)
@example(tau=F(147, 100), j=117)
def test_closed_points_match_the_docstring_formulas(tau, j):
    # beta_j = (6j + 1 - (-2)^j)/9 * tau - ((-2)^(j-1) - 1)/3 and
    # alpha_j = (2^j - (-1)^j)/3 * tau - 2^(j-1) + 1, times 9q and 3q: two
    # integers
    q = tau.denominator
    points = closed_points(tau, j)
    for i in range(j, j + 6):
        beta = F(6 * i + 1 - (-2) ** i, 9) * tau - F((-2) ** (i - 1) - 1, 3)
        alpha = F(2**i - (-1) ** i, 3) * tau - 2 ** (i - 1) + 1
        t, x = next(points)
        assert type(t) is int and type(x) is int
        assert (t, x) == (9 * q * beta, 3 * q * alpha)
    for bad in (0, 1 - j):
        with pytest.raises(ValueError):
            next(closed_points(tau, bad))


def test_alpha_closed_values():
    assert alpha_closed(1, F(7, 5)) == F(7, 5)
    assert alpha_closed(4, F(4, 3)) == F(-1, 3)  # 5*tau - 7
    assert alpha_closed(6, F(147, 100)) == F(-13, 100)  # 21*tau - 31


def test_horizon_at_critical_tau_k():
    # alpha_5 = 11*tau - 15 = 1 exactly at tau_2 = 16/11
    assert horizon_J(F(16, 11)) == 5
    assert alpha_closed(5, F(16, 11)) == 1


def test_horizon_midpoint():
    tau = F(89, 66)  # midpoint of (tau_1, theta_1)
    J = horizon_J(tau)
    assert J == 5 and J % 2 == 1
    assert alpha_closed(J, tau) < 1


def test_horizon_near_limit():
    tau = F(1499, 1000)
    J = horizon_J(tau)
    k = classify(tau).regime.k
    assert J == 2 * k + 3
    assert J > 2 * k + 1


def _horizon_by_alpha_scan(tau, j_cap):
    """The definition of J, scanned: the first j whose turning value breaks
    the alternation alpha_j > 1 (odd j), alpha_j < 1 (even j)."""
    for j in range(1, j_cap + 1):
        a = alpha_closed(j, tau)
        if not (a > 1 if j % 2 else a < 1):
            return j
    return float("inf")


def test_horizon_J_matches_the_alpha_scan():
    rng = random.Random(20100515)
    for k in range(1, 41):
        lo, hi = critical_value(CriticalKind.TAU, k), critical_value(CriticalKind.TAU, k + 1)
        taus = [critical_value(kind, k) for kind in CriticalKind]
        for _ in range(20):
            q = rng.randrange(10**6, 10**12)
            taus.append(lo + (hi - lo) * F(rng.randrange(1, q), q))
        for tau in taus:
            assert horizon_J(tau) == _horizon_by_alpha_scan(tau, 2 * k + 5), tau
    assert horizon_J(rat_parse("1.4" + "9" * 70)) == 237  # k = 117, past the old j <= 200 scan


def test_horizon_domain():
    assert horizon_J(F(4, 3)) == 3  # alpha_3 = 1 exactly at tau_1
    with pytest.raises(ValueError):
        horizon_J(F(3, 2))
    with pytest.raises(ValueError):
        horizon_J(F(1))


def test_classify_examples():
    p = classify(F(4, 3))
    assert (p.regime.kind, p.regime.k) == (RegimeKind.AT_TAU, 1)
    assert (p.behavior, p.switch_count) == (Behavior.PERIODIC, 6)

    p = classify(F(63, 43))
    assert (p.regime.kind, p.regime.k) == (RegimeKind.AT_THETA, 2)
    assert (p.behavior, p.switch_count) == (Behavior.DIVERGENT_MINUS_INF, 9)

    p = classify(F(2))
    assert p.regime.kind is RegimeKind.OUT_OF_RANGE
    assert p.behavior is None and p.switch_count is None


def test_classify_ten_point_window():
    # strictly inside (theta_2, zeta_2) = (63/43, 31/21)
    p = classify(F(1328, 903))
    assert (p.regime.kind, p.regime.k) == (RegimeKind.OPEN_THETA_ZETA, 2)
    assert (p.behavior, p.switch_count) == (Behavior.PERIODIC, 10)


def test_classify_145_99_lies_below_theta_2():
    # 145/99 < 63/43 exactly (145*43 = 6235 < 6237 = 63*99)
    assert F(145, 99) < F(63, 43)
    p = classify(F(145, 99))
    assert (p.regime.kind, p.regime.k) == (RegimeKind.OPEN_TAU_THETA, 2)
    assert (p.behavior, p.switch_count) == (Behavior.PERIODIC, 8)


def test_classify_domain():
    with pytest.raises(ValueError):
        classify(F(0))
    with pytest.raises(ValueError):
        classify(F(-1, 2))
    assert classify(F(1, 2)).regime.kind is RegimeKind.OUT_OF_RANGE
    assert classify(F(3, 2)).regime.kind is RegimeKind.OUT_OF_RANGE


def test_classify_partitions_window():
    rng = random.Random(31337)
    kinds = set()
    for _ in range(200):
        p = classify(random_tau_in_window(rng))
        assert p.regime.kind is not RegimeKind.OUT_OF_RANGE
        assert p.regime.k >= 1
        kinds.add(p.regime.kind)
    assert RegimeKind.OPEN_TAU_THETA in kinds  # sanity: sampling covers opens


def test_classify_boundary_consistency():
    table = {
        TAU: RegimeKind.AT_TAU,
        THETA: RegimeKind.AT_THETA,
        ZETA: RegimeKind.AT_ZETA,
    }
    for kind, expected in table.items():
        for k in range(1, 15):
            p = classify(critical_value(kind, k))
            assert (p.regime.kind, p.regime.k) == (expected, k)


def test_classify_near_limit():
    # regression: delays closer to 3/2 than tau_65 were refused by a k cap
    tau = F(3, 2) - F(1, 2**120)
    p = classify(tau)
    assert p.regime.kind is not RegimeKind.OUT_OF_RANGE
    for k in range(65, 71):
        lo, hi = critical_value(TAU, k), critical_value(TAU, k + 1)
        for kind, at in ((TAU, RegimeKind.AT_TAU), (THETA, RegimeKind.AT_THETA),
                         (ZETA, RegimeKind.AT_ZETA)):
            assert classify(critical_value(kind, k)).regime == Regime(at, k)
        for tau in (lo + (hi - lo) / 3, (critical_value(ZETA, k) + hi) / 2):
            assert classify(tau).regime.k == k
    near = rat_parse("1.4" + "9" * 40)  # 3/2 - 10^-41
    p = classify(near)
    k = p.regime.k
    assert critical_value(TAU, k) <= near < critical_value(TAU, k + 1)
    assert k > 64


@st.composite
def delays_in_and_around_the_window(draw) -> F:
    """4/3 + u/(6v) for 0 <= u < v <= 10^30, in [4/3, 3/2); or tau_k, theta_k
    or zeta_k for k <= 80, as it is or moved by 10^-e either way, e <= 200."""
    if draw(st.booleans()):
        v = draw(st.integers(min_value=1, max_value=10**30))
        return F(4, 3) + F(draw(st.integers(min_value=0, max_value=v - 1)), 6 * v)
    value = critical_value(draw(st.sampled_from(CriticalKind)), draw(st.integers(1, 80)))
    sign = draw(st.sampled_from([-1, 0, 1]))
    return value + sign * F(1, 10 ** draw(st.integers(min_value=1, max_value=200)))


@settings(deadline=None)
@given(delays_in_and_around_the_window())
@example(F(4, 3))
@example(F(4, 3) - F(1, 10**60))
@example(F(3, 2) - F(1, 10**200))
@example(critical_value(TAU, 80))
@example(critical_value(THETA, 80))
@example(critical_value(ZETA, 80))
@example(critical_value(THETA, 7) - F(1, 10**60))
@example(critical_value(ZETA, 7) + F(1, 10**60))
def test_classify_and_horizon_J_match_the_fraction_reference(tau):
    assert classify(tau) == regimecheck.classify(tau)
    if regimecheck.window(tau) is None:
        with pytest.raises(ValueError):
            horizon_J(tau)
    else:
        assert horizon_J(tau) == regimecheck.horizon_J(tau)


def test_distance_to_critical():
    assert distance_to_critical(F(63, 43)) == 0
    assert distance_to_critical(F(4, 3)) == 0
    assert distance_to_critical(F(147, 100)) == F(21, 4300)  # nearest is theta_2
    assert distance_to_critical(F(1)) == 0
    assert distance_to_critical(F(2)) == 0
    assert distance_to_critical(F(3, 2)) == 0


@st.composite
def delays_between_1_and_2(draw) -> F:
    q = draw(st.integers(min_value=2, max_value=10**30))
    return F(draw(st.integers(min_value=q + 1, max_value=2 * q - 1)), q)


@given(delays_between_1_and_2())
@example(F(4, 3))
@example(F(3, 2))
@example(F(3, 2) - F(1, 10**60))
@example(F(4, 3) - F(1, 10**60))
@example(F(0))
@example(F(-7, 5))
def test_window_k_is_none_exactly_outside_the_window(tau):
    k = window_k(tau)
    if not F(4, 3) <= tau < F(3, 2):
        assert k is None
    else:
        assert critical_value(TAU, k) <= tau < critical_value(TAU, k + 1)


def test_window_k_fixed_cases():
    assert window_k(F(4, 3)) == 1
    assert window_k(critical_value(ZETA, 40)) == 40
    assert window_k(critical_value(TAU, 41) - F(1, 10**60)) == 40


def test_window_k_reads_an_int_or_float_delay_exactly():
    # as classify and horizon_J do: a float is its exact binary fraction
    assert window_k(1.4) == window_k(F(1.4)) == 1
    assert window_k(2) is None and window_k(1) is None


def sigma(m: int) -> F:
    return F(6 * 4**m, 4 ** (m + 1) - 1)


def sigma_m(tau: F) -> int | None:
    """The m with sigma_(m+1) < tau <= sigma_m, read off `_sup_bits` as
    distance_to_critical reads it above 3/2, or None where there is none."""
    if 2 * tau <= 3:
        return None
    m = (_sup_bits(tau) - 2) // 2
    return m if m >= 0 else None


@given(delays_between_1_and_2())
@example(F(2))
@example(F(3, 2))
@example(F(3, 2) + F(1, 10**60))
@example(F(2) + F(1, 10**60))
@example(F(8, 5))
@example(F(0))
def test_sigma_m_is_none_exactly_outside_its_range(tau):
    m = sigma_m(tau)
    if not F(3, 2) < tau <= 2:
        assert m is None
    else:
        assert sigma(m + 1) < tau <= sigma(m)


def test_sigma_m_fixed_cases():
    assert [sigma_m(sigma(m)) for m in (0, 1, 2, 300)] == [0, 1, 2, 300]
    assert sigma_m(sigma(300) - F(1, 10**400)) == 300
    assert sigma_m(sigma(301) + F(1, 10**400)) == 300
    assert sigma_m(F(5, 2)) is None


# every delay where behaviour changes that a drawn delay can lie nearest to:
# 1, 3/2, the window's three sequences and sigma_m above 3/2, sorted once
CRITICAL = sorted(
    {F(1), F(3, 2)}
    | {critical_value(kind, k) for kind in CriticalKind for k in range(1, 400)}
    | {sigma(m) for m in range(400)}
)


@st.composite
def delays_around_the_families(draw) -> F:
    """p/q with p, q up to 10^40, or sigma_m +- 10^-200 for m <= 150."""
    if draw(st.booleans()):
        q = draw(st.integers(min_value=1, max_value=10**40))
        return F(draw(st.integers(min_value=1, max_value=10**40)), q)
    return sigma(draw(st.integers(min_value=0, max_value=150))) + draw(
        st.sampled_from([F(-1, 10**200), F(1, 10**200)])
    )


@settings(deadline=None)
@given(delays_around_the_families())
@example(F(1))
@example(F(4, 3))
@example(F(3, 2))
@example(F(2))
@example(F(5, 2))
@example(F(3))
@example(F(1, 10**40))
@example(critical_value(ZETA, 60) + F(1, 10**40))
@example(sigma(300) - F(1, 10**400))
def test_distance_to_critical_is_the_distance_to_the_nearest_listed_delay(tau):
    i = bisect.bisect_left(CRITICAL, tau)
    nearest = min(abs(c - tau) for c in CRITICAL[max(i - 1, 0) : i + 1])
    assert distance_to_critical(tau) == nearest


def test_critical_neighbours_are_the_four_critical_values():
    for k in range(1, 41):
        expected = (
            critical_value(TAU, k),
            critical_value(THETA, k),
            critical_value(ZETA, k),
            critical_value(TAU, k + 1),
        )
        assert critical_neighbours(k) == expected
    with pytest.raises(ValueError):
        critical_neighbours(0)
