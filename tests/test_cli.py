import contextlib
import io
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from delayswitch import engine
from delayswitch.analysis import CriticalKind, critical_value
from delayswitch.cli import main
from delayswitch.exact import rat_format

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


def test_cli_answers_past_the_int_digit_limit_and_restores_it(capsys):
    limit = sys.get_int_max_str_digits()
    k = 7143  # tau_k = 3*4^k / (2*4^k + 1) has more than 4,300 digits
    argv = ("critical", "--kind", "tau", "--k-from", str(k), "--k-to", str(k))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = rat_format(F(3 * 4**k, 2 * 4**k + 1))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.splitlines()[1].startswith(f"tau,{k},{expected},")

    code, out, _ = run_cli(capsys, "classify", "1.4" + "9" * 5000)
    assert code == 0 and sys.get_int_max_str_digits() == limit
    doc = json.loads(out)
    assert (doc["regime"], doc["k"], doc["switch_count"]) == ("open_theta_zeta", 8306, 16618)


def test_importing_the_package_keeps_the_int_digit_limit():
    script = (
        "import sys; limit = sys.get_int_max_str_digits(); import delayswitch.cli; "
        "assert sys.get_int_max_str_digits() == limit"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0


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


def test_sweep_limits_from_a_flag_or_the_config_reach_every_run(tmp_path, capsys):
    config = tmp_path / "delayswitch.conf"
    config.write_text("max_switches = 3\n")
    argv = ("sweep", "--k-max", "1", "--samples", "0")
    by_flag = run_cli(capsys, *argv, "--max-switches", "3")
    assert by_flag == run_cli(capsys, "--config", str(config), *argv)
    for code, out, err in (by_flag, run_cli(capsys, *argv, "--max-time", "1")):
        rows = out.splitlines()[1:]
        assert (code, err, len(rows)) == (1, "", 3)
        assert all(row.endswith(",undetermined,,false") for row in rows)


@pytest.mark.parametrize("flag", ["--max-switches", "--max-time"])
@pytest.mark.parametrize(
    "argv",
    [("simulate", "4/3"), ("verify", "4/3"), ("render", "4/3"), ("sweep", "--k-max", "1")],
    ids=lambda argv: argv[0],
)
def test_every_simulating_command_takes_both_limit_flags(argv, flag, capsys):
    code, _, err = run_cli(capsys, *argv, flag, "1000")
    assert (code, err) == (0, "")
    # the value reaches the engine, which refuses a limit of zero
    code, out, err = run_cli(capsys, *argv, flag, "0")
    assert (code, out, err) == (2, "", "delayswitch: limits must be positive\n")


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


def test_verify_simulates_every_delay_once(capsys, monkeypatch):
    # one run feeds both checks, the period certificate and the printout
    calls = []
    simulate = engine._simulate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(engine, "_simulate", counted)
    for tau, simulations in (("147/100", 1), ("63/43", 1)):
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", tau)
        assert code == 0 and out.endswith("VERDICT: OK\n")
        assert len(calls) == simulations, tau


class _LastLine(io.TextIOBase):
    """A stdout that keeps only the end of what is written to it."""

    def __init__(self):
        self.tail = ""

    def write(self, text):
        self.tail = (self.tail + text)[-1000:]
        return len(text)


def test_verify_and_simulate_answer_past_the_fixed_limits():
    # tau_2600 closes its first cycle at switching 10,403, near t = 10,404:
    # past 10,000 switchings and time units, so the engine raises the limits
    # no flag sets, for every command
    tau = rat_format(critical_value(CriticalKind.TAU, 2600))
    sink = _LastLine()
    with contextlib.redirect_stdout(sink):
        code = main(["verify", tau])
    assert code == 0 and sink.tail.endswith("\nVERDICT: OK\n")
    sink = _LastLine()
    with contextlib.redirect_stdout(sink):
        code = main(["simulate", tau])
    # 66 MB of JSON: the period's 10,402 turning points, the last one back on 0
    assert code == 0 and sink.tail.endswith('"alpha_decimal": "0.000000000000"\n    }\n  ]\n}\n')


def test_verify_names_the_limit_that_stopped_an_undetermined_run(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "4/3", "--max-switches", "3")
    assert code == 1
    assert "simulation: undetermined, 3 switchings, stopped by max_switches" in out
    assert out.endswith("VERDICT: DISAGREE\n")
    config = tmp_path / "delayswitch.conf"
    config.write_text("max_time = 2\n")
    code, out, _ = run_cli(capsys, "--config", str(config), "verify", "4/3")
    assert code == 1 and "stopped by max_time" in out


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
    code, out, err = run_cli(capsys, "render", "4/3", "--labels", "1,x")
    assert code == 2 and out == "" and "--labels: 'x' is not an integer" in err
    code, out, _ = run_cli(capsys, "render", "4/3", "--labels", "1,7")
    assert code == 0 and "&#945;7" in out


def test_output_files_take_their_mode_from_the_umask(tmp_path, capsys):
    outputs = {
        "fig.svg": ("render", "4/3", "--out"),
        "trace.json": ("simulate", "4/3", "--trace"),
        "sweep.csv": ("sweep", "--k-max", "1", "--samples", "0", "--out"),
    }
    old = os.umask(0o022)
    try:
        for name, argv in outputs.items():
            assert run_cli(capsys, *argv, str(tmp_path / name))[0] == 0
    finally:
        os.umask(old)
    # as open(path, "w") creates them, and no temporary file is left behind
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == dict.fromkeys(outputs, 0o644)


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


def test_a_closed_stdout_ends_the_call_quietly_with_141():
    # about 630 kB of rows, far past the 64 KiB a pipe buffers, so the
    # call is still writing when the reader closes its end
    argv = ["critical", "--kind", "tau", "--k-from", "1", "--k-to", "1000"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "delayswitch", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"kind,k,exact,decimal,interleaving_ok\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # each CLI call is a cold process, and these two cost it about 16 ms
    script = "import sys, delayswitch.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
