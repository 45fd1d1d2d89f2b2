"""Exact simulator and classifier for the unit-slope delay-switched system.

The system: x'(t) is +1 or -1 and toggles at every instant t where the
delayed position x(t - tau) lies in the critical set {0, 1}; simulation
starts on the rising branch from x(0) = 0.  All core arithmetic is exact
(the engine runs on integers scaled by the delay's denominator), so the
critical delays (where long-run behavior changes discontinuously) classify
exactly.  The package provides the closed-form regime classifier, the exact
event-driven engine with period and divergence detection, cross-validation
(including a fixed-step floating-point oracle), and an SVG trajectory
renderer.
"""

from .analysis import (
    Behavior,
    CriticalKind,
    Prediction,
    Regime,
    RegimeKind,
    alpha_closed,
    beta_closed,
    beta_recurrence,
    classify,
    critical_value,
    horizon_J,
)
from .engine import (
    Divergent,
    Outcome,
    Periodic,
    SimTrace,
    TraceEvent,
    TurningPoint,
    Undetermined,
    behavior_label,
    run,
)
from .exact import Rat, RatParseError, rat_format, rat_parse, rat_to_decimal
from .render import render_trajectory
from .validate import (
    ClosedFormCheck,
    OracleRefusal,
    SweepReport,
    TheoremCheck,
    check_closed_form,
    check_theorem,
    float_oracle,
    periodicity_certificate,
    sweep,
)

__version__ = "0.1.0"
