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


def _sup_bits(tau: Fraction) -> int:
    """L, the bit length of a // |2a - 3b| for tau = a/b != 3/2, which places
    tau among the sequences that pile up at 3/2 by powers of 4.  Below 3/2,
    tau_k <= a/b  <=>  4^k * (3b - 2a) <= a  <=>  4^k <= a // (3b - 2a), so
    k = (L - 1) // 2; above it, a/b <= sigma_m  <=>  4^m * (4a - 6b) <= a
    <=>  2 * 4^m <= a // (2a - 3b), so m = (L - 2) // 2."""
    a, b = tau.as_integer_ratio()
    return (a // abs(2 * a - 3 * b)).bit_length()


def window_k(tau: Rat) -> int | None:
    """The k with tau_k <= tau < tau_{k+1}, or None unless tau = a/b lies in
    [4/3, 3/2), that is unless 4b <= 3a and 2a < 3b.  An int or float
    delay is read exactly, as its integer ratio."""
    a, b = tau.as_integer_ratio()
    if 4 * b <= 3 * a and 2 * a < 3 * b:
        return (_sup_bits(tau) - 1) // 2
    return None


def critical_neighbours(k: int) -> tuple[Rat, Rat, Rat, Rat]:
    """(tau_k, theta_k, zeta_k, tau_{k+1}), in increasing order: the critical
    delays that split window k into its six regimes."""
    tau_k, theta_k, zeta_k = (critical_value(kind, k) for kind in CriticalKind)
    return tau_k, theta_k, zeta_k, critical_value(CriticalKind.TAU, k + 1)


def distance_to_critical(tau: Rat) -> Rat:
    """Exact distance from tau to the set of delays where behaviour changes.

    Inside [4/3, 3/2) these are the paper's critical sequences, which
    accumulate at 3/2.  The paper names none outside the window (it defers
    (3/2, oo) to [ADM]); the others here were found by exact runs of this
    program, not taken from the paper: at 1 the period goes from 2 to 4
    switchings, and above 3/2, where delays diverge to +oo, the delays
    sigma_m = 6*4^m / (4^(m+1) - 1) for m >= 0 (2, 8/5, 32/21, ... down
    to 3/2) are periodic.  One bit length places tau among them in O(1).
    """
    tau = Fraction(tau)
    if 2 * tau == 3:
        return tau - SUP
    bits = _sup_bits(tau)
    if 2 * tau > 3:  # sigma_(m+1) < tau <= sigma_m; m = -1 above sigma_0 = 2
        m = (bits - 2) // 2
        near = [Fraction(6 * 4**n, 4 ** (n + 1) - 1) for n in (m, m + 1) if n >= 0]
    else:  # k >= 1 exactly from tau_1 = 4/3 on
        k = (bits - 1) // 2
        near = critical_neighbours(k) if k >= 1 else (Fraction(1), TAU_LOW)
    return min(abs(c - tau) for c in near)


def closed_points(tau: Rat, j: int = 1) -> Iterator[tuple[int, int]]:
    """The engine's scaled switch (q*beta_j, q*alpha_j) times 9 and 3, that
    is (9q*beta_j, 3q*alpha_j) for tau = p/q, for j, j + 1, ... without end.
    With s = (-1)^(j-1) and w = 2^(j-1)*(2p - 3q) the formulas of beta_closed
    and alpha_closed read 9q*beta_j = (6j + 1)p + 3q + s*w and 3q*alpha_j =
    w + 3q + s*p; each row flips s and doubles w, so no row multiplies two
    big ints or divides."""
    if j < 1:
        raise ValueError("j must be >= 1")
    p, q = Fraction(tau).as_integer_ratio()
    b, s, w = (6 * j + 1) * p + 3 * q, (-1) ** (j - 1), (2 * p - 3 * q) << (j - 1)
    three_q, six_p = 3 * q, 6 * p
    while True:
        yield b + s * w, w + three_q + s * p
        b, s, w = b + six_p, -s, 2 * w


def beta_closed(j: int, tau: Rat) -> Rat:
    """Closed form for the j-th switch instant (valid while j <= horizon_J):

    beta_j = (6j + 1 - (-2)^j)/9 * tau - ((-2)^(j-1) - 1)/3.
    """
    return Fraction(next(closed_points(tau, j))[0], 9 * Fraction(tau).denominator)


def beta_recurrence(j_max: int, tau: Rat) -> list[Rat]:
    """Switch instants beta_1..beta_{j_max} from the three-term recurrence

    beta_{j+1} = -beta_j + 2*beta_{j-1} + 2*tau,  seeds beta_1 = tau,
    beta_2 = tau + 1.  Must agree with beta_closed pointwise.
    """
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    tau = Fraction(tau)
    out = [tau, tau + 1]
    for _ in range(j_max - 2):
        out.append(-out[-1] + 2 * out[-2] + 2 * tau)
    return out


def alpha_closed(j: int, tau: Rat) -> Rat:
    """Closed form for the j-th turning value (valid while j <= horizon_J):

    alpha_j = (2^j - (-1)^j)/3 * tau - 2^(j-1) + 1.
    """
    return Fraction(next(closed_points(tau, j))[1], 3 * Fraction(tau).denominator)


def horizon_J(tau: Rat) -> int:
    """Validity horizon of the closed forms.

    The largest J such that alpha_j > 1 at every odd j < J and alpha_j < 1 at
    every even j < J; equivalently the first index at which the alternating
    inequalities fail.  Defined for tau in [4/3, 3/2), where it is found in
    O(1): 3q*(alpha_j - 1) = w + s*p in the terms of closed_points, so even
    j (s = -1, w < 0) never fail below 3/2, and odd j = 2m+1 holds iff
    p > 4^m*(3q - 2p), that is iff tau > tau_m; so with tau_k <= tau <
    tau_{k+1} J is 2k+1 at tau_k and 2k+3 elsewhere.  With tau = a/b and
    P = 4^k, tau = tau_k = 3P/(2P + 1) exactly when a*(2P + 1) = 3P*b.
    """
    a, b = tau.as_integer_ratio()
    k = window_k(tau)
    if k is None:
        raise ValueError("horizon_J requires tau in [4/3, 3/2)")
    P = 1 << 2 * k
    return 2 * k + 1 if a * (2 * P + 1) == 3 * P * b else 2 * k + 3


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
    inside gets an answer, however close to 3/2 it lies.  With tau = a/b and
    P = 4^k each comparison is one of ints, both sides multiplied out by
    their positive denominators: a*(2P + 1) against 3P*b for tau_k,
    a*(8P + 1) against 3(4P - 1)*b for theta_k and a*(4P - 1) against
    3(2P - 1)*b for zeta_k.
    """
    a, b = tau.as_integer_ratio()
    if a <= 0:
        raise ValueError("tau must be positive")
    k = window_k(tau)
    if k is None:
        return _OUT_OF_RANGE
    P = 1 << 2 * k
    periodic, diverges = Behavior.PERIODIC, Behavior.DIVERGENT_MINUS_INF
    if a * (2 * P + 1) == 3 * P * b:
        return Prediction(Regime(RegimeKind.AT_TAU, k), periodic, 4 * k + 2)
    lhs, rhs = a * (8 * P + 1), 3 * (4 * P - 1) * b  # tau against theta_k
    if lhs < rhs:
        return Prediction(Regime(RegimeKind.OPEN_TAU_THETA, k), periodic, 2 * k + 4)
    if lhs == rhs:
        return Prediction(Regime(RegimeKind.AT_THETA, k), diverges, 2 * k + 5)
    lhs, rhs = a * (4 * P - 1), 3 * (2 * P - 1) * b  # tau against zeta_k
    if lhs < rhs:
        return Prediction(Regime(RegimeKind.OPEN_THETA_ZETA, k), periodic, 2 * k + 6)
    if lhs == rhs:
        return Prediction(Regime(RegimeKind.AT_ZETA, k), diverges, 4 * k + 5)
    return Prediction(Regime(RegimeKind.OPEN_ZETA_TAU_NEXT, k), periodic, 2 * k + 4)
