"""Tests of the benchmark itself: inputs, statistics, spans and failure counting."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, missing_targets, self_times  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = workloads.make_inputs(name, 7)
    assert first == workloads.make_inputs(name, 7)
    assert first != workloads.make_inputs(name, 8)


def test_drawn_delays_lie_in_their_regime():
    for d in workloads.make_inputs("sweep", 3)[:120]:
        assert workloads.regime_of(d.tau) == (d.regime, d.k)
    decimals = [c.expect for c in workloads.make_inputs("cli", 3) if "." in c.argv[1]]
    assert decimals
    for d in decimals:
        assert Fraction(d.text) == d.tau
        assert workloads.regime_of(d.tau) == (d.regime, d.k)


def _hits_a_known_defect(op) -> bool:
    if isinstance(op, workloads.CliCall):
        if op.argv[0] == "render" and any(c in op.argv[3] for c in "<&"):
            return True
        op = op.expect
    return isinstance(op, workloads.Delay) and op.k is not None and op.k >= 65


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_known_defects_are_probed_apart_from_the_measured_operations(name):
    assert not any(map(_hits_a_known_defect, workloads.make_inputs(name, 5)))
    probes = workloads.make_defect_probes(name, 5)
    assert all(map(_hits_a_known_defect, probes))
    assert probes == workloads.make_defect_probes(name, 5)
    if name == "cli":
        assert {c.argv[0] for c in probes} == {"classify", "verify", "render"}
    else:
        assert len(probes) == (2 if name == "sweep" else 0)


def test_reference_scaling_divides_by_the_kernel_samples_around_an_operation():
    nominal = run.reference.NOMINAL_S
    assert run.reference.scaled(0.5, nominal, nominal) == 0.5
    assert run.reference.scaled(0.5, 2 * nominal, 2 * nominal) == 0.25
    assert run.reference.scaled(0.3, nominal, 2 * nominal) == pytest.approx(0.2)
    ticks = iter(range(100))
    assert run.reference.sample(clock=lambda: float(next(ticks))) == 1.0  # MIN_REPS runs
    ticks = iter(range(100))
    near = 10 / run.reference.SHARE  # sample for at least 10 ticks
    assert run.reference.sample(near, clock=lambda: float(next(ticks))) == 1.0


def test_horizon_delays_stay_clear_of_critical_values():
    criticals = [workloads.critical(kind, k)
                 for kind in ("tau", "theta", "zeta") for k in range(1, 40)]
    for d in workloads.make_inputs("horizon", 11):
        assert min(abs(d.tau - c) for c in criticals) > 1000 * Fraction(workloads.ORACLE_DT)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(10)]) is None
    assert run.tail([float(v) for v in range(11)]) == (100.0 / 11, 0.0)
    pct, value = run.tail([float(v) for v in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)
    assert sum(1 for v in range(1, 101) if v > value) == 10


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "child", 0, 2.0, 5.0),
        Span(2, "grandchild", 1, 3.0, 4.0),
        Span(3, "child", 0, 6.0, 7.0),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_tracer_nests_spans_by_call_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (None, outer.id, outer.id)
    assert self_times(tracer.spans)[outer.id] == (outer.end - outer.start) - 2.0


def test_tracer_wraps_names_bound_at_import_and_restores_them():
    import delayswitch.cli
    import delayswitch.exact

    assert missing_targets() == []
    original = delayswitch.exact.rat_parse
    tracer = Tracer()
    tracer.install()
    try:
        assert delayswitch.cli.rat_parse is not original
        assert delayswitch.cli.rat_parse("3/2") == Fraction(3, 2)
    finally:
        tracer.uninstall()
    assert delayswitch.cli.rat_parse is original is delayswitch.exact.rat_parse
    assert [s.name for s in tracer.spans] == ["exact.rat_parse"]


class _FakeValidate:
    """check_theorem raises on one delay and disagrees on another."""

    def __init__(self, raise_on, disagree_on):
        self.raise_on, self.disagree_on = raise_on, disagree_on

    def check_theorem(self, tau):
        if tau == self.raise_on:
            raise ValueError("forced failure")
        regime, k = workloads.regime_of(tau)
        prediction = SimpleNamespace(
            regime=SimpleNamespace(kind=SimpleNamespace(value=regime), k=k),
            behavior=SimpleNamespace(value="periodic"), switch_count=0)
        return SimpleNamespace(prediction=prediction, simulated_behavior="periodic",
                               simulated_switches=0, agree=tau != self.disagree_on, reason="",
                               certificate_ok=None)

    def check_closed_form(self, tau):
        return SimpleNamespace(horizon=3, simulated_horizon=3, agree=True, mismatches=())


def test_forced_failures_are_counted_not_raised():
    ok = workloads.make_inputs("sweep", 1)[:6]
    fake = _FakeValidate(raise_on=ok[1].tau, disagree_on=ok[2].tau)
    workload = run.SweepWorkload(1, fake)
    workload.ops, workload.round_ops = ok, 3
    plain, traced = run.run_ops(workload, seconds=0.0, min_ops=len(ok))
    assert traced == []
    summary = run._summary(plain)
    assert (summary["attempted"], summary["failed"], summary["wrong"]) == (6, 2, 1)
    assert "ValueError: forced failure" in summary["failures"]
    scaled, _ = run.run_ops(workload, seconds=0.0, min_ops=len(ok), scale=True)
    assert run._summary(scaled) == summary
    assert all(s.scaled > 0 for s in scaled) and all(s.scaled is None for s in plain)


def test_cli_check_counts_refusals_and_malformed_svg():
    d = workloads.draw(random.Random(0), "open_tau_theta", 2)
    classify = workloads.CliCall(("classify", d.text), d)
    refused = workloads.check_cli(classify, 2, b"", b"delayswitch: no\n")
    assert refused.failure == "classify: exit 2: delayswitch: no" and not refused.wrong
    answer = {"tau": d.text, "regime": d.regime, "k": d.k, "behavior": "periodic",
              "switch_count": 2 * d.k + 4}
    assert workloads.check_cli(classify, 0, json.dumps(answer).encode(), b"").failure is None
    answer["k"] += 1
    assert workloads.check_cli(classify, 0, json.dumps(answer).encode(), b"").wrong
    render = workloads.CliCall(("render", d.text, "--title", "a<b"), d)
    bad = b'<svg xmlns="http://www.w3.org/2000/svg"><text>a<b</text></svg>'
    assert workloads.check_cli(render, 0, bad, b"").failure == "render: SVG does not parse"


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
