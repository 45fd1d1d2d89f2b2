"""Closed-form side of the theory: critical delays, switch formulas, classifier.

Notation used throughout the package: ``tau`` is the switching delay,
``beta_j`` the instant of the j-th slope switch, ``alpha_j`` the position
x(beta_j) (the j-th turning value).  Three interleaved rational sequences

    tau_k  = 3*4^k / (2*4^k + 1)          (tau_1 = 4/3)
    theta_k = 3*(4^(k+1) - 1) / (2*4^(k+1) + 1)
    zeta_k = 3*(2*4^k - 1) / (4^(k+1) - 1)

increase toward 3/2 with tau_k < theta_k < zeta_k < tau_{k+1} and split
[4/3, 3/2) into six kinds of regime per k.  ``classify`` locates a rational
delay against them by exact comparison and reports the predicted long-run
behavior together with the exact switching count.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .exact import Rat

TAU_LOW = Fraction(4, 3)  # tau_1: left end of the classified window
SUP = Fraction(3, 2)  # common limit of all three critical sequences


class CriticalKind(Enum):
    TAU = "tau"
    THETA = "theta"
    ZETA = "zeta"


class RegimeKind(Enum):
    AT_TAU = "tau_k"
    OPEN_TAU_THETA = "open_tau_theta"
    AT_THETA = "theta_k"
    OPEN_THETA_ZETA = "open_theta_zeta"
    AT_ZETA = "zeta_k"
    OPEN_ZETA_TAU_NEXT = "open_zeta_tau_next"
    OUT_OF_RANGE = "out_of_range"


class Behavior(Enum):
    PERIODIC = "periodic"
    DIVERGENT_MINUS_INF = "divergent_minus_inf"


class Regime(NamedTuple):
    kind: RegimeKind
    k: int | None = None


class Prediction(NamedTuple):
    """Regime of a delay plus the behavior and switch count it dictates.

    ``switch_count`` is per least period when periodic, total before
    divergence otherwise; None (with behavior None) when out of range.
    """

    regime: Regime
    behavior: Behavior | None
    switch_count: int | None


def critical_value(kind: CriticalKind, k: int) -> Rat:
    """k-th member (k >= 1) of one of the three critical sequences."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = 4**k
    if kind is CriticalKind.TAU:
        return Fraction(3 * p, 2 * p + 1)
    if kind is CriticalKind.THETA:
        return Fraction(3 * (4 * p - 1), 8 * p + 1)
    return Fraction(3 * (2 * p - 1), 4 * p - 1)


def _window_k(tau: Rat) -> int:
    """The k with tau_k <= tau < tau_{k+1}, for tau = a/b in [4/3, 3/2).

    tau_k <= a/b  <=>  4^k * (3b - 2a) <= a  <=>  4^k <= a // (3b - 2a),
    so k is the floor of log4 of that quotient, read off its bit length.
    """
    a, b = tau.numerator, tau.denominator
    return ((a // (3 * b - 2 * a)).bit_length() - 1) // 2


def distance_to_critical(tau: Rat) -> Rat:
    """Exact distance from tau to the set of critical delays.

    The set accumulates at 3/2 from below, so for tau >= 3/2 the infimum
    tau - 3/2 is returned (conservative for guard purposes).
    """
    tau = Fraction(tau)
    if tau >= SUP:
        return tau - SUP
    if tau <= TAU_LOW:
        return TAU_LOW - tau
    k = _window_k(tau)
    neighbours = [critical_value(kind, k) for kind in CriticalKind]
    neighbours.append(critical_value(CriticalKind.TAU, k + 1))
    return min(abs(c - tau) for c in neighbours)


def closed_coefficients(j: int) -> tuple[int, int, int, int]:
    """Integers (a, b, c, d) with beta_j = a*tau + b and alpha_j = c*tau + d,
    so that with tau = p/q, q*beta_j = a*p + b*q and q*alpha_j = c*p + d*q."""
    return next(closed_coefficient_rows(j))


def closed_coefficient_rows(j: int = 1) -> Iterator[tuple[int, int, int, int]]:
    """closed_coefficients(j), closed_coefficients(j + 1), ... without end,
    stepping u = (-2)^(j-1) and v = 2^(j-1) from row to row: the docstring
    formulas read a = (6j + 1 + 2u)/9, b = (1 - u)/3, c = (2v + (-1)^(j+1))/3
    and d = 1 - v."""
    if j < 1:
        raise ValueError("j must be >= 1")
    u, v = (-2) ** (j - 1), 2 ** (j - 1)
    while True:
        yield (6 * j + 1 + 2 * u) // 9, (1 - u) // 3, (2 * v + 2 * (j & 1) - 1) // 3, 1 - v
        j, u, v = j + 1, -2 * u, 2 * v


def beta_closed(j: int, tau: Rat) -> Rat:
    """Closed form for the j-th switch instant (valid while j <= horizon_J):

    beta_j = (6j + 1 - (-2)^j)/9 * tau - ((-2)^(j-1) - 1)/3.
    """
    a, b, _, _ = closed_coefficients(j)
    return a * Fraction(tau) + b


def beta_recurrence(j_max: int, tau: Rat) -> list[Rat]:
    """Switch instants beta_1..beta_{j_max} from the three-term recurrence

    beta_{j+1} = -beta_j + 2*beta_{j-1} + 2*tau,  seeds beta_1 = tau,
    beta_2 = tau + 1.  Must agree with beta_closed pointwise.
    """
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    out = [Fraction(tau), tau + 1]
    for _ in range(j_max - 2):
        out.append(-out[-1] + 2 * out[-2] + 2 * tau)
    return out


def alpha_from_beta(j: int, tau: Rat, betas: list[Rat]) -> Rat:
    """Turning value from consecutive switch instants:

    alpha_j = 1 + (-1)^j * [tau - 2*(beta_j - beta_{j-1})],  j >= 2.
    """
    if j < 2:
        raise ValueError("j must be >= 2")
    if len(betas) < j:
        raise ValueError(f"betas must contain beta_{j - 1} and beta_{j}")
    return 1 + (-1) ** j * (tau - 2 * (betas[j - 1] - betas[j - 2]))


def alpha_closed(j: int, tau: Rat) -> Rat:
    """Closed form for the j-th turning value (valid while j <= horizon_J):

    alpha_j = (2^j - (-1)^j)/3 * tau - 2^(j-1) + 1.
    """
    _, _, c, d = closed_coefficients(j)
    return c * Fraction(tau) + d


def horizon_J(tau: Rat) -> int:
    """Validity horizon of the closed forms.

    The largest J such that alpha_j > 1 at every odd j < J and alpha_j < 1 at
    every even j < J; equivalently the first index at which the alternating
    inequalities fail.  Defined for tau in [4/3, 3/2), where it is found in
    O(1): even j never fail below 3/2, and odd j = 2m+1 holds iff
    tau > tau_m, so with tau_k <= tau < tau_{k+1} J is 2k+1 at tau_k and
    2k+3 elsewhere.
    """
    if not TAU_LOW <= tau < SUP:
        raise ValueError("horizon_J requires tau in [4/3, 3/2)")
    tau = Fraction(tau)
    k = _window_k(tau)
    return 2 * k + 1 if tau == critical_value(CriticalKind.TAU, k) else 2 * k + 3


_OUT_OF_RANGE = Prediction(Regime(RegimeKind.OUT_OF_RANGE), None, None)


def classify(tau: Rat) -> Prediction:
    """Locate tau against the critical sequences and predict its behavior.

    For the k with tau_k <= tau < tau_{k+1} (found in O(1), exactly):

        tau = tau_k               periodic,   4k+2 switchings per least period
        tau_k < tau < theta_k     periodic,   2k+4
        tau = theta_k             to -inf,    2k+5 switchings total
        theta_k < tau < zeta_k    periodic,   2k+6
        tau = zeta_k              to -inf,    4k+5 switchings total
        zeta_k < tau < tau_{k+1}  periodic,   2k+4

    Delays outside [4/3, 3/2) are out of range (no prediction); every delay
    inside gets an answer, however close to 3/2 it lies.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if tau < TAU_LOW or tau >= SUP:
        return _OUT_OF_RANGE
    tau = Fraction(tau)
    k = _window_k(tau)
    periodic, diverges = Behavior.PERIODIC, Behavior.DIVERGENT_MINUS_INF
    if tau == critical_value(CriticalKind.TAU, k):
        return Prediction(Regime(RegimeKind.AT_TAU, k), periodic, 4 * k + 2)
    theta = critical_value(CriticalKind.THETA, k)
    if tau < theta:
        return Prediction(Regime(RegimeKind.OPEN_TAU_THETA, k), periodic, 2 * k + 4)
    if tau == theta:
        return Prediction(Regime(RegimeKind.AT_THETA, k), diverges, 2 * k + 5)
    zeta = critical_value(CriticalKind.ZETA, k)
    if tau < zeta:
        return Prediction(Regime(RegimeKind.OPEN_THETA_ZETA, k), periodic, 2 * k + 6)
    if tau == zeta:
        return Prediction(Regime(RegimeKind.AT_ZETA, k), diverges, 4 * k + 5)
    return Prediction(Regime(RegimeKind.OPEN_ZETA_TAU_NEXT, k), periodic, 2 * k + 4)
