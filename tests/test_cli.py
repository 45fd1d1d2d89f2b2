import argparse
import contextlib
import errno
import io
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from delayswitch import analysis, cli, engine, validate
from delayswitch.analysis import CriticalKind, critical_value
from delayswitch.cli import main
from delayswitch.exact import rat_format, rat_parse, rat_to_decimal

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
    for text in ("abc", "\u0664/\u0663", "1.\u0664"):  # Arabic-Indic 4/3 and 1.4
        code, out, err = run_cli(capsys, "classify", text)
        assert code == 2 and out == "" and "rational" in err
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


def test_simulate_undetermined_json_is_tau_outcome_and_switch_count(capsys):
    code, out, _ = run_cli(capsys, "simulate", "89/66", "--max-switches", "3")
    assert code == 3
    assert json.loads(out) == {
        "tau": "89/66",
        "tau_decimal": "1.348484848485",
        "outcome": "undetermined",
        "switchings_executed": 3,
    }


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
    events = engine.run(F(63, 43)).trace.events
    assert doc["events"] == [
        {"t": rat_format(e.t), "x": rat_format(e.x), "kind": e.kind} for e in events
    ]


def test_simulate_answers_a_delay_past_ten_thousand(capsys):
    # the switch count is the only cap, so a long delay runs to its outcome
    code, out, _ = run_cli(capsys, "simulate", "100000")
    doc = json.loads(out)
    assert (code, doc["outcome"], doc["total_switchings"]) == (0, "divergent_plus_inf", 2)


def test_simulate_has_no_ic_flag(capsys):
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
    # a sign and surrounding blanks, as rat_parse reads them
    signed = run_cli(capsys, "critical", "--kind", "zeta", "--k-from", "+1", "--k-to", " 1 ")
    assert signed == (0, out, "")


def test_cli_answers_past_the_int_digit_limit(capsys):
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

    # an integer flag reads the same digits as a delay does, at any length
    unlimited = run_cli(capsys, "simulate", "4/3")
    assert run_cli(capsys, "simulate", "4/3", "--max-switches", "1" * 4400) == unlimited
    assert unlimited[0] == 0 and sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit limit"
)
def test_library_exact_text_has_no_digit_limit():
    # tau_7200 and zeta_7200 have 4,336 digits and more a side: past the
    # default limit of 4,300, which the library neither needs lifted nor moves
    literal = "-0." + "1234567890" * 500  # 5,000 fractional digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # the values and texts the built-in conversions give with no limit
        values = [
            critical_value(CriticalKind.TAU, 7200),
            critical_value(CriticalKind.ZETA, 7200),
            F(-(7 * 10**19999 + 3)),
            -F(int(literal[3:]), 10**5000),
        ]
        texts = [str(v) for v in values]
        decimals = ["1.500000000000", "1.500000000000", f"{texts[2]}.000000000000"]
        decimals.append("-0.123456789012")
        sys.set_int_max_str_digits(4300)
        for value, text, decimal in zip(values, texts, decimals):
            assert rat_format(value) == text and rat_parse(text) == value
            assert rat_to_decimal(value, 12) == decimal
        assert rat_parse(literal) == values[3] and rat_to_decimal(values[3], 5000) == literal
        entry = validate.check_theorem(F(4, 3))._replace(tau=values[0])
        report = validate.SweepReport(7200, 0, (entry,))
        assert report.to_csv().splitlines()[1].startswith(f"{texts[0]},tau_k,periodic,")
        assert json.loads(report.to_json())["entries"][0]["tau"] == texts[0]
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_sweep_limit_flags_reach_every_run(capsys):
    argv = ("sweep", "--k-max", "1", "--samples", "0")
    code, out, err = run_cli(capsys, *argv, "--max-switches", "3")
    rows = out.splitlines()[1:]
    assert (code, err, len(rows)) == (1, "", 3)
    assert all(row.endswith(",undetermined,,false") for row in rows)


SIMULATING_COMMANDS = [
    ("simulate", "4/3"), ("verify", "4/3"), ("render", "4/3"), ("sweep", "--k-max", "1")
]


@pytest.mark.parametrize("argv", SIMULATING_COMMANDS, ids=lambda argv: argv[0])
def test_every_simulating_command_takes_the_switch_limit_flag(argv, capsys):
    code, _, err = run_cli(capsys, *argv, "--max-switches", "1000")
    assert (code, err) == (0, "")
    # the value reaches the engine, which refuses a limit of zero
    code, out, err = run_cli(capsys, *argv, "--max-switches", "0")
    assert (code, out, err) == (2, "", "delayswitch: the switch limit must be positive\n")


def test_no_command_takes_a_time_limit(capsys):
    # the switch count bounds every run, so there is no --max-time
    for argv in SIMULATING_COMMANDS:
        code, out, err = run_cli(capsys, *argv, "--max-time", "7/2")
        assert (code, out) == (2, "") and "--max-time" in err


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


def test_verify_and_simulate_answer_tau_2600_within_the_sized_limit():
    # tau_2600 closes its first cycle at switching 10,403, within the limit
    # the engine sizes when no flag sets one, 4 * 2600 + 8 = 10,408, for
    # every command
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


def test_verify_reports_an_undetermined_run_and_disagrees(capsys):
    code, out, _ = run_cli(capsys, "verify", "4/3", "--max-switches", "3")
    assert code == 1
    assert "\nsimulation: undetermined, 3 switchings\n" in out
    assert out.endswith("VERDICT: DISAGREE\n")


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


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "4/3", "--trace"),
        ("render", "4/3", "--out"),
        ("sweep", "--k-max", "1", "--samples", "1", "--out"),
    ],
)
def test_a_failed_write_names_the_given_path(argv, tmp_path, capsys):
    # the message names the user's path and the system's reason, never the
    # temporary file beside it, and no temporary file is left behind
    missing, directory = tmp_path / "missing" / "t.json", tmp_path / "d"
    directory.mkdir()
    for target, reason in ((missing, errno.ENOENT), (directory, errno.EISDIR)):
        code, out, err = run_cli(capsys, *argv, str(target))
        assert (code, out) == (4, "")
        assert err == f"delayswitch: cannot write {target}: {os.strerror(reason)}\n"
    assert [path.name for path in tmp_path.rglob("*")] == ["d"]


def test_render_refuses_sizes_without_a_plot_area(capsys):
    for flag, value in (("--width", "-50"), ("--height", "96"), ("--width", "40")):
        code, out, err = run_cli(capsys, "render", "4/3", flag, value)
        assert code == 2 and out == "" and "width and height" in err
    code, out, _ = run_cli(capsys, "render", "4/3", "--width", "97")
    assert code == 0 and 'width="97"' in out


def test_render_refuses_sizes_past_the_float_range(capsys):
    # a usage error, not a disagreement: exit 2 with a message, no traceback
    for flag in ("--width", "--height"):
        code, out, err = run_cli(capsys, "render", "4/3", flag, "1" + "0" * 400)
        assert (code, out) == (2, "")
        assert err == "delayswitch: width and height must lie in the float range\n"


def test_render_refuses_label_indices_outside_the_turning_points(capsys):
    for labels in ("0", "99", "1,8"):  # 4/3 has 7 turning points
        code, out, err = run_cli(capsys, "render", "4/3", "--labels", labels)
        assert code == 2 and out == "" and "label index" in err
    code, out, err = run_cli(capsys, "render", "4/3", "--labels", "1,x")
    assert code == 2 and out == "" and "--labels: 'x' is not an integer" in err
    code, out, _ = run_cli(capsys, "render", "4/3", "--labels", "1,7")
    assert code == 0 and "&#945;7" in out


def test_render_refuses_a_trajectory_past_the_float_range(capsys):
    # times of 10^400 have no float, and render draws in floats
    code, out, err = run_cli(capsys, "render", "1" + "0" * 400)
    assert (code, out, err) == (2, "", "delayswitch: the trajectory runs past the float range\n")


def test_render_refuses_a_scale_past_the_float_range(capsys):
    # a width of 10^308 is a float, but over the 1/10 time units of one
    # switch it scales past the float range, to inf and nan
    argv = ("render", "1/10", "--max-switches", "1", "--width", "1" + "0" * 308)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "delayswitch: the plot's scale runs past the float range\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("critical", "--kind", "tau", "--k-from", "\u0661", "--k-to", "\u0662"),
        ("sweep", "--k-max", "\u0661", "--samples", "\u0660"),
        ("render", "7/5", "--width", "\u0669\u0660\u0660"),
        ("simulate", "7/5", "--max-switches", "1_0"),
        ("render", "7/5", "--labels", "1_0"),
    ],
    ids=lambda argv: argv[-2].lstrip("-"),
)
def test_integer_flags_read_a_sign_and_ascii_digits_only(argv, capsys):
    # int() would read Arabic-Indic digits and underscores, which rat_parse refuses
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "is not an integer" in err


def test_render_refuses_a_title_xml_cannot_carry(tmp_path, capsys):
    # XML 1.0 carries no control character but tab, LF and CR, not even as
    # a character reference, so such a title would make the SVG malformed
    code, out, err = run_cli(capsys, "render", "4/3", "--title", "a\x01b")
    assert code == 2 and out == "" and "U+0001, which XML cannot carry" in err
    out_path = tmp_path / "fig.svg"
    code, _, _ = run_cli(capsys, "render", "4/3", "--title", "a\x01b", "--out", str(out_path))
    assert code == 2 and not out_path.exists()


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


def test_settings_come_from_flags_alone(tmp_path, capsys):
    # each setting has one source, its flag, so there is no --config file
    config = tmp_path / "delayswitch.conf"
    config.write_text("max_switches = 3\n")
    for argv in (
        ("--config", str(config), "simulate", "89/66"),
        ("simulate", "89/66", "--config", str(config)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage: delayswitch")


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


class _ClosedAfterFirstWrite(io.TextIOBase):
    """A stdout whose reader leaves after the first write."""

    def __init__(self, devnull: int):
        self.writes = 0
        self.devnull = devnull

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def fileno(self):
        return self.devnull  # where main points the closed stdout


def test_critical_stops_making_rows_once_stdout_closes(monkeypatch):
    # CSV rows are printed as they are made, so a reader that leaves early
    # spares the call the rest of the table
    calls = []
    value = analysis.critical_value

    def counted(kind, k):
        if kind is CriticalKind.ZETA:
            calls.append(k)
        return value(kind, k)

    monkeypatch.setattr(analysis, "critical_value", counted)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        sink = _ClosedAfterFirstWrite(devnull)
        with contextlib.redirect_stdout(sink):
            code = main(["critical", "--kind", "zeta", "--k-from", "1", "--k-to", "1000"])
    finally:
        os.close(devnull)
    assert code == 141 and sink.writes == 2
    assert len(calls) <= 2


def _lowest_free_fd() -> int:
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


def test_closed_stdout_calls_leave_no_descriptor_open():
    # each call points its closed stdout at /dev/null and closes what it opened
    before = _lowest_free_fd()
    for _ in range(5):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has left
        with open(write_end, "w") as closed, contextlib.redirect_stdout(closed):
            code = main(["critical", "--kind", "tau", "--k-from", "1", "--k-to", "50"])
        assert code == 141
    assert _lowest_free_fd() == before


@pytest.mark.parametrize("kind, k_from, k_to", [("tau", 1, 1), ("tau", 1, 4), ("zeta", 3, 9)])
def test_critical_json_prints_the_whole_list_row_by_row(capsys, kind, k_from, k_to):
    argv = ("critical", "--kind", kind, "--k-from", str(k_from), "--k-to", str(k_to))
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    rows = list(cli._critical_rows(argparse.Namespace(kind=kind, k_from=k_from, k_to=k_to)))
    assert code == 0 and len(rows) == k_to - k_from + 1
    assert out == json.dumps(rows, indent=2) + "\n"


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
assert len(points) >= 2 and "numpy" not in sys.modules, "the float oracle loaded numpy"
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
