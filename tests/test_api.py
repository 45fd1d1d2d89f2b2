"""The package's public names: exactly the API README lists, and every name
the demos and README's examples use."""

import re
import types
from fractions import Fraction
from pathlib import Path

import delayswitch
from delayswitch import engine

ROOT = Path(__file__).resolve().parents[1]

API = {
    # exact numbers
    "Rat", "rat_parse", "rat_format", "rat_to_decimal", "RatParseError",
    # classifier and closed forms
    "classify", "Prediction", "Regime", "RegimeKind", "Behavior", "critical_value",
    "CriticalKind", "horizon_J", "beta_closed", "alpha_closed", "beta_recurrence",
    # engine
    "run", "Outcome", "Periodic", "Divergent", "Undetermined",
    "SimTrace", "TraceEvent", "TurningPoint", "behavior_label",
    # checks
    "check_theorem", "check_closed_form", "periodicity_certificate", "sweep",
    "float_oracle", "TheoremCheck", "ClosedFormCheck", "SweepReport", "OracleRefusal",
    # rendering
    "render_trajectory",
}


def library_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_the_package_exports_exactly_the_api():
    public = {
        name
        for name, value in vars(delayswitch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == API
    assert len(API) == 35


def test_readme_lists_the_api():
    bullets = re.findall(r"^(?:- |  \S).*", library_section(), re.MULTILINE)  # items and their wraps
    listed = re.findall(r"`(\w+)`", "\n".join(bullets))
    assert sorted(listed) == sorted(API)


def test_demos_and_readme_use_only_the_api():
    sources = {path.name: path.read_text(encoding="utf-8") for path in (ROOT / "demos").glob("*.py")}
    sources["README.md"] = library_section()
    for name, source in sources.items():
        assert "from delayswitch" not in source, name
        used = set(re.findall(r"\bds\.(\w+)", source))
        assert used, name
        assert used <= API, (name, used - API)


def test_the_replay_stays_internal_for_the_benchmark():
    # perfbench's horizon workload and CI's traced-horizon gate call the
    # engine's replay, which the package does not export
    assert not hasattr(delayswitch, "simulate_switches")
    trace = engine.simulate_switches(Fraction(4, 3), 13)
    assert len(trace.turning_points) == 13
    assert trace.rows[-1][2] == "switch"
