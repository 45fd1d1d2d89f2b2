"""Cross-validation harness.

Three independent routes to the same answers are compared here: the exact
event simulation (engine), the closed-form predictions (analysis), and a
deliberately low-tech fixed-step floating-point simulation.  The exact
checks read one engine outcome: the caller that owns the limit runs
``engine.run`` once and hands the outcome to every check.  Given a bare tau,
``check_theorem`` runs ``engine.run(tau)``, whose limit covers the window,
and ``check_closed_form`` runs only the J = ``horizon_J(tau)`` switchings it
reads.  The period certificate reads that outcome's rows, so no check
simulates a second time; ``check_closed_form`` compares its scaled switches
with ``analysis.closed_points``.  ``sweep`` runs the classifier-vs-simulator
comparison over every regime up to a chosen k and serializes the result as
CSV or JSON; disagreements are report rows, never aborts.

The float oracle steps in plain floats, with no array library.  The
solutions have slope +-1, so between two crossings its position at step n
is x_first + (n - first)*inc.  Float multiplication and addition round
monotonically, so its delayed sample is monotone wherever both of its reads
lie in one such run.  Each such stretch is tested by its two end samples
against the bound nearest its first in its direction of travel, and one
bisection finds the step that crosses it.  The loop goes from crossing to
crossing, so its cost follows the crossings, not the t_end/dt steps.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction
from typing import NamedTuple

from . import analysis, engine
from .analysis import Prediction, RegimeKind
from .exact import Rat, rat_format


class OracleRefusal(ValueError):
    """The float oracle cannot resolve the requested delay."""


class TheoremCheck(NamedTuple):
    """Agreement record between the classifier and one exact simulation."""

    tau: Rat
    prediction: Prediction
    simulated_behavior: str
    simulated_switches: int | None
    agree: bool
    reason: str  # "" when agreeing; else "horizon" | "behavior" | "switch_count" | "certificate"
    certificate_ok: bool | None  # None unless the simulation agrees and is periodic


class ClosedFormCheck(NamedTuple):
    """Agreement record between closed forms and one exact simulation."""

    tau: Rat
    horizon: int
    simulated_horizon: int | None
    agree: bool
    mismatches: tuple[str, ...]


def _outcome_of(tau: Rat, outcome: engine.Outcome | None) -> engine.Outcome:
    """The outcome a check reads: the given one, else ``engine.run(tau)``,
    whose limit covers every delay of the window."""
    if outcome is None:
        return engine.run(tau)
    if outcome.trace.tau != tau:
        raise ValueError(
            f"outcome simulates tau = {rat_format(outcome.trace.tau)}, not {rat_format(tau)}"
        )
    return outcome


def periodicity_certificate(outcome: engine.Periodic) -> bool:
    """Confirm from the run's rows that the state at switch i recurs at i + m.

    After switch n at T the state is the slope (-1)**n, X and the offsets
    h + p - T of the pending hits h, T - p < h <= T.  It fixes the rest of the
    path, so equal states at switches least_period apart prove the cycle.
    Past locating the two switch rows it reads only the rows within p before
    each: the rows are in time order, so a bisection finds the first of them.
    """
    i, m = outcome.start_switch, outcome.switchings_per_period
    rows, tau = outcome.trace.rows, outcome.trace.tau
    p, q = tau.numerator, tau.denominator
    at = [n for n, row in enumerate(rows) if row[2] == "switch"]
    if i < 1 or m < 1 or m % 2 or len(at) < i + m:
        return False

    def state(n: int) -> tuple[int, int, list[int]]:
        """T, X and the pending offsets after the switch in row n."""
        t, x, _ = rows[n]
        past = bisect.bisect_left(rows, (t - p + 1,), 0, n)  # the first row later than T - p
        return t, x, [h + p - t for h, _, kind in rows[past:n] if kind == "hit" and h <= t]

    (t_i, x_i, pending_i), (t_m, x_m, pending_m) = state(at[i - 1]), state(at[i + m - 1])
    num, den = outcome.least_period.as_integer_ratio()
    return (t_m - t_i) * den == num * q and x_i == x_m and pending_i == pending_m


def check_theorem(tau: Rat, outcome: engine.Outcome | None = None) -> TheoremCheck:
    """Compare the classifier's prediction with an exact simulation of tau.

    ``outcome`` is that simulation (``engine.run(tau)`` when None, which
    runs long enough for any delay of the window).  Behavior kind and switch
    count must match exactly; for periodic outcomes the period certificate is
    confirmed as well.  An Undetermined simulation, which only a caller's
    tighter limit leaves, is a disagreement with reason "horizon".
    """
    tau = tau if isinstance(tau, Fraction) else Fraction(tau)
    prediction = analysis.classify(tau)
    if prediction.regime.kind is RegimeKind.OUT_OF_RANGE:
        raise ValueError("check_theorem requires tau in [4/3, 3/2)")
    outcome = _outcome_of(tau, outcome)
    behavior = engine.behavior_label(outcome)
    switches: int | None = None  # an Undetermined run counts none
    certificate_ok: bool | None = None
    if isinstance(outcome, engine.Periodic):
        switches = outcome.switchings_per_period
    elif isinstance(outcome, engine.Divergent):
        switches = outcome.total_switchings
    if switches is None:
        agree, reason = False, "horizon"
    elif behavior != prediction.behavior.value:
        agree, reason = False, "behavior"
    elif switches != prediction.switch_count:
        agree, reason = False, "switch_count"
    else:
        agree, reason = True, ""
        if isinstance(outcome, engine.Periodic):
            certificate_ok = periodicity_certificate(outcome)
            if not certificate_ok:
                agree, reason = False, "certificate"
    return TheoremCheck(tau, prediction, behavior, switches, agree, reason, certificate_ok)


def check_closed_form(tau: Rat, outcome: engine.Outcome | None = None) -> ClosedFormCheck:
    """Confirm simulated switch data equals the closed forms up to the horizon.

    ``outcome`` is the simulation of tau; a bare tau runs the engine for the
    J = ``horizon_J(tau)`` switchings the check reads.  For every j <= J the
    simulated beta_j and alpha_j must equal beta_closed and alpha_closed
    exactly, and the first index at which the simulated turning values
    violate the alternating inequalities must be J itself.
    """
    tau = tau if isinstance(tau, Fraction) else Fraction(tau)
    if analysis.window_k(tau) is None:
        raise ValueError("check_closed_form requires tau in [4/3, 3/2)")
    horizon = analysis.horizon_J(tau)
    outcome = engine.run(tau, horizon) if outcome is None else _outcome_of(tau, outcome)
    q, j, simulated_horizon = tau.denominator, 0, None
    closed = analysis.closed_points(tau)  # (9q*beta_j, 3q*alpha_j)
    mismatches: list[str] = []
    for t, x, kind in outcome.trace.rows:  # switch j at (q*beta_j, q*alpha_j)
        if kind == "hit":
            continue
        j += 1
        if j <= horizon:
            t_closed, x_closed = next(closed)
            if 9 * t != t_closed:
                mismatches.append(f"beta_{j}")
            if 3 * x != x_closed:
                mismatches.append(f"alpha_{j}")
        # the first j at which alpha_j > 1 (odd j) or alpha_j < 1 (even j) fails
        if simulated_horizon is None and (x <= q if j % 2 else x >= q):
            simulated_horizon = j
        if simulated_horizon is not None and j >= horizon:
            break
    if j < horizon:  # every row was read
        mismatches.insert(0, f"trace has {j} switchings, horizon is {horizon}")
    if simulated_horizon != horizon:
        mismatches.append(f"simulated horizon {simulated_horizon} != {horizon}")
    return ClosedFormCheck(tau, horizon, simulated_horizon, not mismatches, tuple(mismatches))


def float_oracle(tau: Rat, dt: float = 1e-6, t_end: float = 20.0) -> list[tuple[float, float]]:
    """Fixed-step binary-64 simulation with per-step delayed-value lookup.

    Returns approximate turning points (t, x) for coarse comparison against
    the exact engine (documented tolerance 10*dt).  Each step looks the
    delayed position up in the recorded history (linearly interpolated, the
    delay being a non-integer number of steps); when the delayed sample
    crosses 0 or 1 the slope is toggled at the interpolated crossing instant
    inside that step, which keeps discretization error far inside tolerance.

    Between crossings the increment inc is constant, so a run of steps is
    kept as its first step, the position x_first there and inc, and its
    position at step n is x_first + (n - first)*inc: one float product and
    one sum, monotone in n because both round monotonically.  The delayed
    sample is then monotone wherever both of its reads lie in one run.  The
    loop goes from crossing to crossing: from the first untested step it
    takes the stretch of samples that read one run (a sample whose reads
    straddle a run start alone).  A sample moves about dt per step, so the
    first bound the stretch meets is the one nearest its first sample in its
    direction of travel: if its last sample reaches it, one bisection finds
    the crossing step.  A sample reads only steps before its own, so the
    samples up to the first crossing do not depend on it.  The cost follows
    the crossings, not the t_end/dt steps, and the oracle keeps two floats
    per crossing.

    Refuses delays within 1000*dt of a critical value, inside the window or
    outside it (see :func:`analysis.distance_to_critical`): floating point
    cannot resolve behavior that changes on exact rational equality.  Also
    refuses delays shorter than one step or of more steps than a float
    holds, and a ``t_end`` that is not finite and positive.
    """
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 0 < dt <= 1e-6:
        raise ValueError("dt must be in (0, 1e-6]")
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be finite and positive")
    gap = analysis.distance_to_critical(tau)
    if gap < 1000 * Fraction(dt):
        raise OracleRefusal(
            f"tau = {rat_format(tau)} is within 1000*dt of a critical delay; "
            "the float oracle cannot resolve criticality"
        )

    what = f"tau/dt for tau = {rat_format(tau)}"
    try:
        tau_f = float(tau)
        delay = tau_f / dt
        d_int = int(delay)
        what = f"t_end/dt = {t_end!r}/{dt!r}"
        n_steps = int(round(t_end / dt))
    except OverflowError:
        raise OracleRefusal(f"{what} is past the float range") from None
    d_frac = delay - d_int
    if d_int < 1:  # sample m would read step m, which is not yet known
        raise OracleRefusal(f"tau = {rat_format(tau)} is shorter than one step of dt = {dt!r}")
    # Runs by first step: (position at the first step, increment).  A run
    # starts at each crossing; the first is the history, x = t, which goes on
    # past t = 0 up to the first crossing.
    starts, runs = [-d_int - 1], [((-d_int - 1) * dt, dt)]

    def position(n: int) -> float:
        i = bisect.bisect_right(starts, n) - 1
        x_first, inc = runs[i]
        return x_first + (n - starts[i]) * inc

    def sample(m: int) -> float:
        """The delayed position at step m."""
        return (1.0 - d_frac) * position(m - d_int) + d_frac * position(m - 1 - d_int)

    slope = 1.0
    turning: list[tuple[float, float]] = []
    m = 1  # the first step whose pair of samples (m - 1, m) is untested
    while m <= n_steps:
        # Samples m-1..last read one run, the one before starts[i], so they
        # are monotone.  Sample starts[i] + d_int reads both sides of it;
        # max(m, ...) moves m past it a pair at a time.  Put in a stretch, it
        # changes a float only if a crossing and its return share a step, at
        # a turn within a step of 0 or 1: below 1 turns lie +-tau, and
        # elsewhere the 1000*dt refusal keeps them away.
        i = bisect.bisect_right(starts, m - 2 - d_int)
        last = n_steps if i == len(starts) else max(m, min(n_steps, starts[i] + d_int - 1))
        lo, hi = sample(m - 1), sample(last)
        rising = lo < hi  # the bound nearest lo in this direction is met first
        if rising:
            bound = 0.0 if lo < 0.0 <= hi else 1.0 if lo < 1.0 <= hi else None
        else:
            bound = 1.0 if hi <= 1.0 < lo else 0.0 if hi <= 0.0 < lo else None
        if bound is None:
            m = last + 1
            continue
        a, n = m - 1, last  # n: the first step off lo's strict side, in m..last
        while n - a > 1:  # lo, hi: the samples at a and n
            mid = (a + n) // 2
            s = sample(mid)
            if s < bound if rising else s > bound:
                a, lo = mid, s
            else:
                n, hi = mid, s
        # samples up to step n read steps before n, so the crossing at n
        # leaves them as they are; a delayed sample moves at most dt per step,
        # so step n holds one crossing: frac of a step one way, the rest back
        left, right = lo - bound, hi - bound
        frac = 1.0 if right == 0.0 else left / (left - right)
        x = position(n - 1)
        turning.append(((n - 1 + frac) * dt, x + slope * frac * dt))
        x += (slope * frac - slope * (1.0 - frac)) * dt
        slope = -slope
        starts.append(n)
        runs.append((x, slope * dt))
        m = n + 1
    return turning


class SweepReport(NamedTuple):
    k_max: int
    samples_per_interval: int
    entries: tuple[TheoremCheck, ...]

    @property
    def agreements(self) -> int:
        return sum(1 for e in self.entries if e.agree)

    @property
    def disagreements(self) -> int:
        return len(self.entries) - self.agreements

    @property
    def all_agree(self) -> bool:
        return self.disagreements == 0

    def _rows(self) -> list[dict]:
        """Each entry's fields, in the order of the JSON and CSV reports."""
        return [
            {
                "tau": rat_format(e.tau),
                "regime": e.prediction.regime.kind.value,
                "k": e.prediction.regime.k,
                "predicted_behavior": e.prediction.behavior.value,
                "predicted_switches": e.prediction.switch_count,
                "simulated_behavior": e.simulated_behavior,
                "simulated_switches": e.simulated_switches,
                "agree": e.agree,
            }
            for e in self.entries
        ]

    def to_csv(self) -> str:
        """The rows without ``k``; an empty cell for missing switches."""
        columns = ("tau", "regime", "predicted_behavior", "predicted_switches",
                   "simulated_behavior", "simulated_switches", "agree")
        lines = [",".join(columns)]
        for row in self._rows():
            row["agree"] = "true" if row["agree"] else "false"
            lines.append(",".join("" if row[c] is None else str(row[c]) for c in columns))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "k_max": self.k_max,
            "samples_per_interval": self.samples_per_interval,
            "total": len(self.entries),
            "agreements": self.agreements,
            "all_agree": self.all_agree,
            "entries": self._rows(),
        }
        return json.dumps(doc, indent=2) + "\n"


def sweep_taus(k_max: int, samples_per_interval: int) -> list[Rat]:
    """Deterministic tau list: each critical value plus exact rationals at
    fixed fractions i/(m+1) of every open interval between them."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if samples_per_interval < 0:
        raise ValueError("samples_per_interval must be >= 0")
    taus: list[Rat] = []
    m = samples_per_interval
    for k in range(1, k_max + 1):
        anchors = analysis.critical_neighbours(k)
        for lo, hi in zip(anchors, anchors[1:]):
            taus.append(lo)
            taus.extend(lo + (hi - lo) * Fraction(i, m + 1) for i in range(1, m + 1))
    return taus


def sweep(
    k_max: int,
    samples_per_interval: int = 3,
    max_switches: int | None = None,
) -> SweepReport:
    """Classifier-vs-simulation agreement across all six regimes up to k_max.

    Each delay runs once under the given switch limit, which ``engine.run``
    sizes when left None.  Agreement requires behavior kind and switch
    count to match exactly, and a periodic run's certificate to hold.
    Entries are reported in increasing tau order; disagreements are rows,
    not errors, so a sweep always completes.
    """
    entries = tuple(
        check_theorem(tau, engine.run(tau, max_switches))
        for tau in sweep_taus(k_max, samples_per_interval)
    )
    return SweepReport(k_max, samples_per_interval, entries)
