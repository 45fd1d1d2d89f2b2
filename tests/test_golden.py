"""Byte-for-byte golden outputs of the CLI for a fixed list of delays.

The files under ``tests/golden/`` pin what ``classify`` (JSON),
``simulate`` (JSON, plus the event trace it writes with ``--trace``),
``verify`` (text), ``render`` (SVG), ``critical`` for k = 1..4 (CSV, and
JSON for tau) and ``sweep`` (CSV for ``--k-max 3 --samples 2``, JSON for
``--k-max 2 --samples 1``) print, together with the exit code and any error
message.  A refactor that keeps behaviour must leave them
unchanged.  To regenerate them deliberately, run
``PYTHONPATH=src python tests/test_golden.py --regen``.
"""

import json
import sys
from pathlib import Path

import pytest

from delayswitch.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

TAUS = ("4/3", "16/11", "63/43", "7/5", "147/100", "145/99", "1/2", "2")


def _slug(tau: str) -> str:
    return tau.replace("/", "_")


def cases() -> list[tuple[str, tuple[str, ...], str]]:
    """(name, argv, extension of the stdout file) for every pinned call."""
    out = []
    for tau in TAUS:
        slug = _slug(tau)
        out.append((f"simulate-{slug}", ("simulate", tau), "json"))
        out.append((f"verify-{slug}", ("verify", tau), "txt"))
        out.append(
            (f"render-{slug}", ("render", tau, "--labels", "1,2,3", "--title", f"tau {tau}"), "svg")
        )
        out.append((f"classify-{slug}", ("classify", tau), "json"))
    for kind in ("tau", "theta", "zeta"):
        argv = ("critical", "--kind", kind, "--k-from", "1", "--k-to", "4")
        out.append((f"critical-{kind}-k1-4", argv, "csv"))
        if kind == "tau":
            out.append(("critical-tau-k1-4-json", (*argv, "--format", "json"), "json"))
    out.append(("sweep-k3-s2", ("sweep", "--k-max", "3", "--samples", "2"), "csv"))
    sweep_json = ("sweep", "--k-max", "2", "--samples", "1", "--format", "json")
    out.append(("sweep-k2-s1", sweep_json, "json"))
    return out


def _with_trace(argv, directory: Path) -> tuple[tuple[str, ...], Path | None]:
    """``simulate`` calls also write their event trace into ``directory``."""
    if argv[0] != "simulate":
        return tuple(argv), None
    path = directory / "trace.json"
    return (*argv, "--trace", str(path)), path


@pytest.mark.parametrize("name,argv,ext", cases(), ids=[c[0] for c in cases()])
def test_golden_output(name, argv, ext, capsys, tmp_path):
    argv, trace_path = _with_trace(argv, tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    meta = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))[name]
    assert code == meta["exit"]
    assert captured.err == meta["stderr"]
    assert captured.out == (GOLDEN / f"{name}.{ext}").read_text(encoding="utf-8")
    if trace_path is not None:
        want = (GOLDEN / f"{name}.trace.json").read_text(encoding="utf-8")
        assert trace_path.read_text(encoding="utf-8") == want


def _regen() -> None:
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    meta = {}
    for name, argv, ext in cases():
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv, trace_path = _with_trace(argv, Path(tmp))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            if trace_path is not None:
                trace = trace_path.read_text(encoding="utf-8")
                (GOLDEN / f"{name}.trace.json").write_text(trace, encoding="utf-8")
        (GOLDEN / f"{name}.{ext}").write_text(out.getvalue(), encoding="utf-8")
        meta[name] = {"exit": code, "stderr": err.getvalue()}
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    _regen()
