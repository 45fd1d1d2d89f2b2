"""Cross-validation harness.

Three independent routes to the same answers are compared here: the exact
event simulation (engine), the closed-form predictions (analysis), and a
deliberately low-tech fixed-step floating-point simulation.  The exact
checks read one engine outcome: the caller that owns the limits runs
``engine.run`` once and hands the outcome to every check.  Given a bare tau,
``check_theorem`` runs ``engine.run(tau)``, whose limits cover the window,
and ``check_closed_form`` runs only the J = ``horizon_J(tau)`` switchings it
reads.  The period certificate reads that outcome's rows, so no check
simulates a second time.  ``sweep`` runs the classifier-vs-simulator
comparison over every regime up to a chosen k and serializes the result as
CSV or JSON; disagreements are report rows, never aborts.

Only the float oracle uses numpy, and it imports numpy on its first call,
so importing the package and every exact check run without loading it.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import analysis, engine
from .analysis import Prediction, RegimeKind
from .exact import Rat, rat_format

if TYPE_CHECKING:
    import numpy as np


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


def _simulated_behavior(outcome: engine.Outcome) -> tuple[str, int | None]:
    label = engine.behavior_label(outcome)
    if isinstance(outcome, engine.Periodic):
        return label, outcome.switchings_per_period
    if isinstance(outcome, engine.Divergent):
        return label, outcome.total_switchings
    return label, None


def _outcome_of(tau: Rat, outcome: engine.Outcome | None) -> engine.Outcome:
    """The outcome a check reads: the given one, else ``engine.run(tau)``,
    whose limits cover every delay of the window."""
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
    """
    i, m = outcome.start_switch, outcome.switchings_per_period
    p, q = outcome.trace.tau.numerator, outcome.trace.tau.denominator
    points = outcome.trace.switches
    if i < 1 or m < 1 or len(points) < i + m:
        return False
    hits = [t for t, _, kind in outcome.trace.rows if kind == "hit"]
    (t_i, x_i), (t_m, x_m) = points[i - 1], points[i + m - 1]
    pending_i, pending_m = ([h + p - t for h in hits if t - p < h <= t] for t in (t_i, t_m))
    period_ok = t_m - t_i == outcome.least_period * q
    return m % 2 == 0 and period_ok and x_i == x_m and pending_i == pending_m


def check_theorem(tau: Rat, outcome: engine.Outcome | None = None) -> TheoremCheck:
    """Compare the classifier's prediction with an exact simulation of tau.

    ``outcome`` is that simulation (``engine.run(tau)`` when None, which
    runs long enough for any delay of the window).  Behavior kind and switch
    count must match exactly; for periodic outcomes the period certificate is
    confirmed as well.  An Undetermined simulation, which only a caller's
    tighter limits leave, is a disagreement with reason "horizon".
    """
    prediction = analysis.classify(tau)
    if prediction.regime.kind is RegimeKind.OUT_OF_RANGE:
        raise ValueError("check_theorem requires tau in [4/3, 3/2)")
    outcome = _outcome_of(tau, outcome)
    behavior, switches = _simulated_behavior(outcome)
    certificate_ok: bool | None = None
    if isinstance(outcome, engine.Undetermined):
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
    tau = Fraction(tau)
    if analysis.window_k(tau) is None:
        raise ValueError("check_closed_form requires tau in [4/3, 3/2)")
    horizon = analysis.horizon_J(tau)
    outcome = engine.run(tau, horizon) if outcome is None else _outcome_of(tau, outcome)
    p, q = tau.numerator, tau.denominator
    points = outcome.trace.switches  # (q*beta_j, q*alpha_j)
    mismatches: list[str] = []
    if len(points) < horizon:
        mismatches.append(f"trace has {len(points)} switchings, horizon is {horizon}")
    rows = analysis.closed_coefficient_rows()
    for j, (t, x), (a, b, c, d) in zip(range(1, horizon + 1), points, rows):
        if t != a * p + b * q:
            mismatches.append(f"beta_{j}")
        if x != c * p + d * q:
            mismatches.append(f"alpha_{j}")
    simulated_horizon: int | None = None
    for j, (_, x) in enumerate(points, start=1):
        holds = x > q if j % 2 else x < q
        if not holds:
            simulated_horizon = j
            break
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
    Steps go in blocks of 2**15; a block far from both bounds is summed by
    :func:`_advance` without an array, so the cost follows the t_end/dt/2**15
    blocks, and only blocks near a crossing pay per step.

    Refuses delays within 1000*dt of a critical value: floating point cannot
    resolve behavior that changes on exact rational equality.  Also refuses
    delays shorter than one step, and a ``t_end`` that is not finite and
    positive.
    """
    import numpy as np

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

    tau_f = float(tau)
    n_steps = int(round(t_end / dt))
    delay = tau_f / dt
    d_int = int(delay)
    d_frac = delay - d_int
    if d_int < 1:  # a chunk spans d_int steps, so the loop below would never advance
        raise OracleRefusal(f"tau = {rat_format(tau)} is shorter than one step of dt = {dt!r}")
    # Positions as blocks (first step, positions, origin, sum, increment):
    # blocks with a crossing keep positions; a steady block keeps its chunk's
    # origin, the sum before it and its increment; the history, x = step*dt,
    # keeps no origin and is computed when read.
    blocks = [(-d_int - 1, None, None, 0.0, dt)]
    turns: list[int] = []  # steps with a crossing: x is monotone between them
    slope = 1.0
    turning: list[tuple[float, float]] = []
    filled, block = 0, 1 << 15  # steps per block
    while filled < n_steps:
        # Chunks never exceed the delay in steps, so every delayed sample
        # needed below was computed in an earlier chunk.
        length = min(d_int, n_steps - filled)
        origin = _position(blocks, filled)
        total = 0.0  # running sum of the chunk's increments
        for lo in range(filled + 1, filled + length + 1, block):
            size = min(block, filled + length + 1 - lo)
            a, b = lo - 2 - d_int, lo - 1 - d_int + size  # steps the delayed samples read
            # With no crossing among steps a..b their positions are monotone, so
            # a delayed value strays from the ends' range by a few ulps at most.
            low, high = sorted((_position(blocks, a), _position(blocks, b)))
            margin = 1e-12 * (1.0 + max(abs(low), abs(high)))
            crossings: list[tuple[int, float]] = []
            if bisect.bisect_right(turns, b) > bisect.bisect_right(turns, a) or any(
                low - margin <= bound <= high + margin for bound in (0.0, 1.0)
            ):
                seg = _positions(blocks, a, b)
                delayed = (1.0 - d_frac) * seg[1:] + d_frac * seg[:-1]
                for bound in (0.0, 1.0):
                    left, right = delayed[:-1] - bound, delayed[1:] - bound
                    hits = (left * right < 0.0) | ((right == 0.0) & (left != 0.0))
                    for i in np.nonzero(hits)[0].tolist():
                        frac = 1.0 if right[i] == 0.0 else float(left[i] / (left[i] - right[i]))
                        crossings.append((lo + i, frac))
                crossings.sort()
            if not crossings:
                blocks.append((lo, None, origin, total, slope * dt))
                total = _advance(total, slope * dt, size)
                continue
            slopes = np.full(size, slope)
            for n, _ in crossings:
                slopes[n - lo + 1 :] *= -1.0
            incr = slopes * dt
            by_step: dict[int, list[float]] = {}
            for n, frac in crossings:
                by_step.setdefault(n, []).append(frac)
            for n, fracs in by_step.items():
                s = slopes[n - lo]
                travelled, prev = 0.0, 0.0
                for frac in fracs:
                    travelled += s * (frac - prev)
                    s, prev = -s, frac
                incr[n - lo] = (travelled + s * (1.0 - prev)) * dt
            incr[0] += total  # 0.0 at a chunk's start, which leaves incr[0] as it is
            sums = np.cumsum(incr)
            total = sums[-1]
            blocks.append((lo, origin + sums, 0.0, 0.0, 0.0))
            for n in sorted(by_step):
                s = float(slopes[n - lo])
                x_cur = _position(blocks, n - 1)
                prev = 0.0
                for frac in by_step[n]:
                    x_cur += s * (frac - prev) * dt
                    turning.append(((n - 1 + frac) * dt, x_cur))
                    s, prev = -s, frac
                turns.append(n)
            slope *= (-1.0) ** len(crossings)
        filled += length
    return turning


def _position(blocks: list[tuple], n: int) -> float:
    """``_positions(blocks, n, n)[0]``, the same float, without arrays."""
    i = bisect.bisect_right(blocks, n, key=lambda block: block[0]) - 1
    first, xs, origin, before, inc = blocks[i]
    if xs is not None:
        return float(xs[n - first])
    if origin is None:
        return float(n) * inc
    return origin + (inc + _advance(before, inc, n - first))


def _positions(blocks: list[tuple], a: int, b: int) -> np.ndarray:
    """The oracle's positions at steps a..b, from its blocks (see float_oracle)."""
    import numpy as np

    parts = []
    while a <= b:
        i = bisect.bisect_right(blocks, a, key=lambda block: block[0]) - 1
        first, xs, origin, before, inc = blocks[i]
        last = min(b, blocks[i + 1][0] - 1 if i + 1 < len(blocks) else b)
        if xs is not None:
            parts.append(xs[a - first : last - first + 1])
        elif origin is None:
            parts.append(np.arange(a, last + 1, dtype=np.float64) * inc)
        else:
            sums = np.full(last - a + 1, inc)
            sums[0] += _advance(before, inc, a - first)
            parts.append(origin + np.cumsum(sums))
        a = last + 1
    return np.concatenate(parts)


def _advance(s: float, c: float, n: int) -> float:
    """``s`` after ``n`` float additions of ``c``, exactly as ``s += c`` in a
    loop leaves it.  Within a binade each addition adds c rounded to a
    multiple of the ulp, the same every time unless c is an odd multiple of
    half an ulp (a tie, decided by the parity of s); so the loop jumps a
    binade at a time, and does ties, exits and |s| <= |c| one at a time.
    """
    while n > 0:
        k = 0
        if abs(s) > abs(c):
            _, e = math.frexp(s)  # 2**(e-1) <= |s| < 2**e
            u = math.ldexp(1.0, e - 53)
            units, q = int(abs(s) / u), abs(c) / u
            frac = q - math.floor(q)
            r = math.floor(q) + (frac > 0.5)  # ulps added (or taken) per addition
            # additions 1..k round as in the binade while k*r <= room; going
            # up, a sum just past the top still rounds down to 2**e
            up = (c > 0) == (s > 0)
            room = (1 << 53) - units if up else units - (1 << 52) - (0.0 < frac < 0.5)
            if frac != 0.5 and room >= 0:
                if r == 0:
                    return s  # c is below half an ulp: no addition changes s
                k = min(room // r, n)
                s = math.copysign((units + (k * r if up else -k * r)) * u, s)
        if k == 0:
            s, k = s + c, 1
        n -= k
    return s


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
        out = io.StringIO()
        writer = csv.DictWriter(out, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in self._rows():
            writer.writerow({**row, "agree": "true" if row["agree"] else "false"})
        return out.getvalue()

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
    max_time: Rat | None = None,
) -> SweepReport:
    """Classifier-vs-simulation agreement across all six regimes up to k_max.

    Each delay runs once under the given limits, a limit left None being
    sized by ``engine.run``.  Agreement requires behavior kind and switch
    count to match exactly, and a periodic run's certificate to hold.
    Entries are reported in increasing tau order; disagreements are rows,
    not errors, so a sweep always completes.
    """
    entries = tuple(
        check_theorem(tau, engine.run(tau, max_switches, max_time))
        for tau in sweep_taus(k_max, samples_per_interval)
    )
    return SweepReport(k_max, samples_per_interval, entries)
