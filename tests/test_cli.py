import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delayswitch import engine
from delayswitch.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_examples(capsys):
    code, out, _ = run_cli(capsys, "classify", "63/43")
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "theta_k"
    assert doc["k"] == 2
    assert doc["behavior"] == "divergent_minus_inf"
    assert doc["switch_count"] == 9
    assert doc["tau"] == "63/43"
    assert doc["tau_decimal"] == "1.465116279070"

    code, out, _ = run_cli(capsys, "classify", "4/3")
    doc = json.loads(out)
    assert code == 0
    assert (doc["regime"], doc["k"], doc["behavior"], doc["switch_count"]) == (
        "tau_k", 1, "periodic", 6,
    )

    code, out, _ = run_cli(capsys, "classify", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["regime"] == "out_of_range"
    assert "behavior" not in doc


def test_classify_errors(capsys):
    code, _, err = run_cli(capsys, "classify", "abc")
    assert code == 2 and "rational" in err
    code, _, err = run_cli(capsys, "classify", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "classify", "-4/3")
    assert code == 2


def test_simulate_divergent(capsys):
    code, out, _ = run_cli(capsys, "simulate", "7/5")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "divergent_minus_inf"
    assert doc["total_switchings"] == 9
    assert doc["direction"] == "-inf"


def test_simulate_periodic(capsys):
    code, out, _ = run_cli(capsys, "simulate", "89/66")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "periodic"
    assert doc["switchings_per_period"] == 6
    assert len(doc["turning_points"]) == 6
    assert doc["turning_points"][0]["beta"] == "89/66"


def test_simulate_out_of_window_tau(capsys):
    code, out, _ = run_cli(capsys, "simulate", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "periodic"
    assert doc["switchings_per_period"] == 2


def test_simulate_undetermined_exit_code(capsys):
    code, out, _ = run_cli(capsys, "simulate", "89/66", "--max-switches", "3")
    assert code == 3
    assert json.loads(out)["outcome"] == "undetermined"


def test_simulate_undetermined_names_the_limit(capsys):
    code, out, _ = run_cli(capsys, "simulate", "89/66", "--max-switches", "3")
    assert (code, json.loads(out)["stopped_by"]) == (3, "max_switches")
    code, out, _ = run_cli(capsys, "simulate", "89/66", "--max-time", "7/2")
    assert (code, json.loads(out)["stopped_by"]) == (3, "max_time")
    code, out, _ = run_cli(capsys, "simulate", "4/3")
    assert code == 0 and "stopped_by" not in json.loads(out)


def test_simulate_trace_file(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, "simulate", "63/43", "--trace", str(trace_path))
    assert code == 0
    doc = json.loads(trace_path.read_text())
    assert doc["tau"] == "63/43"
    assert doc["events"][0] == {"t": "0", "x": "0", "kind": "hit"}
    assert doc["outcome"]["total_switchings"] == 9
    kinds = {e["kind"] for e in doc["events"]}
    assert kinds == {"hit", "switch"}


def test_simulate_custom_ic(capsys):
    # every admissible history gives the same solution, so there is no --ic
    code, _, err = run_cli(capsys, "simulate", "89/66", "--ic", "ic.json")
    assert code == 2 and "--ic" in err


def test_critical_table(capsys):
    code, out, _ = run_cli(capsys, "critical", "--kind", "tau", "--k-from", "1", "--k-to", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,k,exact,decimal,interleaving_ok"
    assert lines[1].startswith("tau,1,4/3,1.333333333333,true")
    assert lines[2].startswith("tau,2,16/11,")

    code, out, _ = run_cli(
        capsys, "critical", "--kind", "theta", "--k-from", "2", "--k-to", "2", "--format", "json"
    )
    doc = json.loads(out)
    assert doc[0]["exact"] == "63/43"

    code, out, _ = run_cli(capsys, "critical", "--kind", "zeta", "--k-from", "1", "--k-to", "1")
    assert "7/5" in out


def test_critical_bad_range(capsys):
    code, _, err = run_cli(capsys, "critical", "--kind", "tau", "--k-from", "3", "--k-to", "1")
    assert code == 2


def test_sweep_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", "--k-max", "1", "--samples", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4  # header + tau_1, theta_1, zeta_1
    assert lines[1].startswith("4/3,")

    report_path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--k-max", "2", "--samples", "1", "--out", str(report_path)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["all_agree"] is True
    assert report_path.read_text().splitlines()[0].startswith("tau,regime,")

    code, out, _ = run_cli(capsys, "sweep", "--k-max", "1", "--samples", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["all_agree"] is True


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "145/99")
    assert code == 0
    assert "VERDICT: OK" in out
    assert "open_tau_theta" in out
    assert "beta = 145/99" in out

    code, out, _ = run_cli(capsys, "verify", "63/43")
    assert code == 0
    assert "theta_k" in out and "VERDICT: OK" in out


def test_verify_out_of_range(capsys):
    code, _, err = run_cli(capsys, "verify", "1/2")
    assert code == 2


def test_verify_answers_large_k(capsys):
    # k = 117: the closed-form horizon J = 237 lies past j = 200
    code, out, _ = run_cli(capsys, "verify", "1.4" + "9" * 70)
    assert code == 0
    assert "(k=117)" in out and "closed forms up to J=237: OK" in out
    assert out.endswith("VERDICT: OK\n")


def test_verify_simulates_a_periodic_delay_twice_and_a_divergent_one_once(capsys, monkeypatch):
    # one run feeds both checks and the printout; periodic delays add the
    # certificate replay
    calls = []
    simulate = engine._simulate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(engine, "_simulate", counted)
    for tau, simulations in (("147/100", 2), ("63/43", 1)):
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", tau)
        assert code == 0 and out.endswith("VERDICT: OK\n")
        assert len(calls) == simulations, tau


def test_max_time_flag_and_config_parse_alike(tmp_path, capsys):
    config = tmp_path / "delayswitch.conf"
    config.write_text("max_time = 7/2\n")
    by_flag = run_cli(capsys, "simulate", "89/66", "--max-time", "7/2")
    by_config = run_cli(capsys, "--config", str(config), "simulate", "89/66")
    assert by_flag == by_config and by_flag[0] == 3

    config.write_text("max_time = abc\n")
    for argv in (
        ("simulate", "89/66", "--max-time", "abc"),
        ("--config", str(config), "simulate", "89/66"),
        ("verify", "4/3", "--max-time", "1e5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("delayswitch: not a rational literal: ")


def test_render_deterministic_file(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run_cli(capsys, "render", "64/43", "--out", str(out_path))
    assert code == 0
    first = out_path.read_bytes()
    assert first.startswith(b"<?xml")
    code, _, _ = run_cli(capsys, "render", "64/43", "--out", str(out_path))
    assert out_path.read_bytes() == first

    code, out, _ = run_cli(capsys, "render", "63/43", "--labels", "8,9")
    assert code == 0
    assert "ray-arrow" in out


def test_render_io_failure(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "fig.svg"
    code, _, err = run_cli(capsys, "render", "64/43", "--out", str(target))
    assert code == 4


def test_render_refuses_sizes_without_a_plot_area(tmp_path, capsys):
    for flag, value in (("--width", "-50"), ("--height", "96")):
        code, out, err = run_cli(capsys, "render", "4/3", flag, value)
        assert code == 2 and out == "" and "width and height" in err
    config = tmp_path / "small.conf"
    config.write_text("width = 40\n")
    code, _, err = run_cli(capsys, "--config", str(config), "render", "4/3")
    assert code == 2 and "width and height" in err
    code, out, _ = run_cli(capsys, "render", "4/3", "--width", "97")
    assert code == 0 and 'width="97"' in out


def test_render_refuses_label_indices_outside_the_turning_points(capsys):
    for labels in ("0", "99", "1,8"):  # 4/3 has 7 turning points
        code, out, err = run_cli(capsys, "render", "4/3", "--labels", labels)
        assert code == 2 and out == "" and "label index" in err
    code, out, _ = run_cli(capsys, "render", "4/3", "--labels", "1,7")
    assert code == 0 and "&#945;7" in out


def test_config_defaults_and_override(tmp_path, capsys):
    config = tmp_path / "delayswitch.conf"
    config.write_text("# comment\nmax_switches = 3\n")
    code, out, _ = run_cli(capsys, "--config", str(config), "simulate", "89/66")
    assert code == 3  # config capped the run
    code, out, _ = run_cli(
        capsys, "--config", str(config), "simulate", "89/66", "--max-switches", "100"
    )
    assert code == 0  # flag overrides config

    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense\n")
    code, _, err = run_cli(capsys, "--config", str(bad), "classify", "4/3")
    assert code == 2
    code, _, err = run_cli(capsys, "--config", str(tmp_path / "nope.conf"), "classify", "4/3")
    assert code == 4


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "delayswitch", "classify", "4/3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["regime"] == "tau_k"


def test_usage_error_exit_code():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "delayswitch", "classify"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2


COLD_START = """
import os, sys
import delayswitch
from delayswitch import cli

out = sys.argv[1]
with open(os.devnull, "w") as sink:
    sys.stdout = sink
    codes = [
        cli.main(argv)
        for argv in (
            ["classify", "63/43"],
            ["simulate", "145/99", "--trace", os.path.join(out, "trace.json")],
            ["verify", "145/99"],
            ["render", "63/43", "--out", os.path.join(out, "fig.svg")],
            ["critical", "--kind", "zeta", "--k-from", "1", "--k-to", "3"],
            ["sweep", "--k-max", "1", "--samples", "0", "--out", os.path.join(out, "sweep.csv")],
        )
    ]
    sys.stdout = sys.__stdout__
assert codes == [0] * 6, codes
assert "numpy" not in sys.modules, "numpy loaded before the float oracle ran"
points = delayswitch.float_oracle(27 / 20, t_end=3.2)
assert len(points) >= 2 and "numpy" in sys.modules
print("ok")
"""


def test_cold_start_leaves_numpy_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    assert {p.name for p in tmp_path.iterdir()} == {"trace.json", "fig.svg", "sweep.csv"}
