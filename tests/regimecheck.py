"""Fraction reference for the classifier and the closed-form horizon.

``analysis.classify`` and ``analysis.horizon_J`` place a delay a/b by
cross-multiplied int comparisons with 4^k; the tests hold them to this
plainer reading instead: k found by stepping up the tau_k, and the delay
compared as a ``Fraction`` with each critical value in turn.
"""

from fractions import Fraction

from delayswitch.analysis import (
    Behavior,
    CriticalKind,
    Prediction,
    Regime,
    RegimeKind,
    critical_value,
)


def window(tau) -> int | None:
    """The k with tau_k <= tau < tau_{k+1}, or None outside [4/3, 3/2)."""
    tau = Fraction(tau)
    if not Fraction(4, 3) <= tau < Fraction(3, 2):
        return None
    k = 1
    while tau >= critical_value(CriticalKind.TAU, k + 1):
        k += 1
    return k


def horizon_J(tau) -> int:
    """2k+1 at tau_k and 2k+3 elsewhere in window k."""
    tau = Fraction(tau)
    k = window(tau)
    if k is None:
        raise ValueError("horizon_J requires tau in [4/3, 3/2)")
    return 2 * k + 1 if tau == critical_value(CriticalKind.TAU, k) else 2 * k + 3


def classify(tau) -> Prediction:
    """The regime of tau, its behavior and switch count, as the paper lists them."""
    tau = Fraction(tau)
    k = window(tau)
    if k is None:
        return Prediction(Regime(RegimeKind.OUT_OF_RANGE), None, None)
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
