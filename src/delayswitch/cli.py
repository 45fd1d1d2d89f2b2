"""Command-line interface: classify, simulate, critical, sweep, verify, render.

Rational inputs and outputs use the exact "p/q" text form everywhere.  The
JSON of ``classify`` and ``simulate`` pairs each exact field with a 12-digit
decimal companion for humans (machines must read the exact field);
``critical`` names its pair ``exact`` and ``decimal``, and ``sweep`` entries
and the ``--trace`` file's tau and events are exact alone.  Output files are
written atomically.  Exit codes: 0 success, 1 disagreement (sweep/verify),
2 usage or domain error, 3 undetermined simulation, 4 I/O failure writing an
output file, 141 a closed stdout (128 + SIGPIPE, as a shell reports a writer
the signal ends).  Every setting comes from its flag, or else from the
flag's default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import analysis, engine, render, validate
from .exact import _INT_RE, _convert, rat_format, rat_parse, rat_to_decimal

DECIMAL_DIGITS = 12

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3
EXIT_IO = 4


def _exact_fields(name: str, value: Fraction) -> dict[str, str]:
    """``name`` as exact "p/q" and ``name_decimal`` as its decimal companion."""
    return {name: rat_format(value), f"{name}_decimal": rat_to_decimal(value, DECIMAL_DIGITS)}


def _shown(value: Fraction) -> str:
    """The same pair as text: "p/q (decimal)"."""
    return f"{rat_format(value)} ({rat_to_decimal(value, DECIMAL_DIGITS)})"


def _integer(text: str) -> int:
    """An integer as ``rat_parse`` reads one: an optional sign, then ASCII digits."""
    token = text.strip()
    if not _INT_RE.match(token):
        raise argparse.ArgumentTypeError(f"{token!r} is not an integer")
    return _convert(int, token)


def _fail(message: str, code: int) -> int:
    print(f"delayswitch: {message}", file=sys.stderr)
    return code


def _atomic_write(path: str, data: str) -> None:
    """Write ``data`` to ``path`` through a temporary file beside it; a
    failure names ``path`` with the system's reason and leaves no temporary."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".delayswitch-{os.urandom(8).hex()}")
    try:
        # "x" creates the file as open(path, "w") would, with the umask's mode
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _run(args) -> engine.Outcome:
    """The engine's run of the command's tau; a switch limit no flag sets is
    left to ``engine.run``."""
    return engine.run(rat_parse(args.tau), args.max_switches)


def _turning_doc(point: engine.TurningPoint) -> dict:
    return {**_exact_fields("beta", point.beta), **_exact_fields("alpha", point.alpha)}


def _outcome_doc(outcome: engine.Outcome) -> dict:
    doc = {**_exact_fields("tau", outcome.trace.tau), "outcome": engine.behavior_label(outcome)}
    if isinstance(outcome, engine.Periodic):
        doc.update(_exact_fields("least_period", outcome.least_period))
        doc["switchings_per_period"] = outcome.switchings_per_period
        doc["start_switch"] = outcome.start_switch
        doc["turning_points"] = [_turning_doc(p) for p in outcome.turning_points]
    elif isinstance(outcome, engine.Divergent):
        doc["direction"] = "-inf" if outcome.direction < 0 else "+inf"
        doc["total_switchings"] = outcome.total_switchings
        doc["turning_points"] = [_turning_doc(p) for p in outcome.trace.turning_points]
    else:
        doc["switchings_executed"] = outcome.switchings_executed
    return doc


def _cmd_classify(args) -> int:
    tau = rat_parse(args.tau)
    prediction = analysis.classify(tau)
    doc = {**_exact_fields("tau", tau), "regime": prediction.regime.kind.value}
    if prediction.regime.k is not None:
        doc["k"] = prediction.regime.k
        doc["behavior"] = prediction.behavior.value
        doc["switch_count"] = prediction.switch_count
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    outcome = _run(args)
    doc = _outcome_doc(outcome)
    if args.trace:
        trace_doc = {
            "tau": doc["tau"],
            "events": [{"t": rat_format(t), "x": rat_format(x), "kind": kind}
                       for t, x, kind in outcome.trace.events],
            "outcome": doc,
        }
        _atomic_write(args.trace, json.dumps(trace_doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    if isinstance(outcome, engine.Undetermined):
        return EXIT_UNDETERMINED
    return EXIT_OK


def _critical_rows(args):
    """The table's rows, one k at a time, so that each is printed as it comes.
    A row reads k's four critical delays once, for its value and the order."""
    for k in range(args.k_from, args.k_to + 1):
        tau_k, theta_k, zeta_k, tau_next = analysis.critical_neighbours(k)
        value = {"tau": tau_k, "theta": theta_k, "zeta": zeta_k}[args.kind]
        yield {
            "kind": args.kind,
            "k": k,
            "exact": rat_format(value),
            "decimal": rat_to_decimal(value, DECIMAL_DIGITS),
            "interleaving_ok": tau_k < theta_k < zeta_k < tau_next < analysis.SUP,
        }


def _cmd_critical(args) -> int:
    if not 1 <= args.k_from <= args.k_to:
        raise ValueError("need 1 <= --k-from <= --k-to")
    rows = _critical_rows(args)
    if args.format == "json":
        # the text of json.dumps(list(rows), indent=2), one row at a time
        lead = "[\n  "
        for row in rows:
            print(lead + json.dumps(row, indent=2).replace("\n", "\n  "), end="")
            lead = ",\n  "
        print("\n]")
    else:
        print("kind,k,exact,decimal,interleaving_ok")
        for row in rows:
            flag = "true" if row["interleaving_ok"] else "false"
            print(f"{row['kind']},{row['k']},{row['exact']},{row['decimal']},{flag}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = validate.sweep(args.k_max, args.samples, args.max_switches)
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        _atomic_write(args.out, text)
        print(
            json.dumps(
                {
                    "out": args.out,
                    "entries": len(report.entries),
                    "agreements": report.agreements,
                    "all_agree": report.all_agree,
                }
            )
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.all_agree else EXIT_DISAGREE


def _cmd_verify(args) -> int:
    outcome = _run(args)
    tau = outcome.trace.tau
    theorem = validate.check_theorem(tau, outcome)
    closed = validate.check_closed_form(tau, outcome)
    prediction = theorem.prediction
    print(f"tau = {_shown(tau)}")
    print(
        f"classifier: {prediction.regime.kind.value} (k={prediction.regime.k}) -> "
        f"{prediction.behavior.value}, {prediction.switch_count} switchings"
    )
    switches = theorem.simulated_switches
    if isinstance(outcome, engine.Undetermined):
        switches = outcome.switchings_executed
    print(f"simulation: {theorem.simulated_behavior}, {switches} switchings")
    print(f"theorem agreement: {'OK' if theorem.agree else 'FAIL (' + theorem.reason + ')'}")
    if theorem.certificate_ok is not None:
        print(f"period certificate: {'OK' if theorem.certificate_ok else 'FAIL'}")
    closed_msg = "OK" if closed.agree else "FAIL (" + "; ".join(closed.mismatches) + ")"
    print(f"closed forms up to J={closed.horizon}: {closed_msg}")
    if isinstance(outcome, engine.Periodic):
        print(f"least period {_shown(outcome.least_period)}; turning points over one period:")
        points = outcome.turning_points
    else:
        print("turning points:")
        points = outcome.trace.turning_points
    for j, point in enumerate(points, start=1):
        print(f"  j={j}: beta = {_shown(point.beta)}, alpha = {_shown(point.alpha)}")
    ok = theorem.agree and closed.agree
    print(f"VERDICT: {'OK' if ok else 'DISAGREE'}")
    return EXIT_OK if ok else EXIT_DISAGREE


def _cmd_render(args) -> int:
    svg = render.render_trajectory(
        _run(args), args.width, args.height, label_indices=args.labels, title=args.title
    )
    if args.out:
        _atomic_write(args.out, svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayswitch",
        description=(
            "Exact simulator and regime classifier for the unit-slope "
            "delay-switched system with critical set {0, 1}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    delay = argparse.ArgumentParser(add_help=False)
    delay.add_argument("tau", help='delay as "p/q" or a finite decimal')
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument(
        "--max-switches", type=_integer, help="default 4n + 8, n = floor(log4(p // |2p - 3q|))"
    )

    p = sub.add_parser("classify", parents=[delay], help="regime and prediction for a delay")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", parents=[delay, limits], help="exact simulation of a delay")
    p.add_argument("--trace", help="write the full event trace to this JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("critical", help="table of critical delays")
    p.add_argument("--kind", required=True, choices=["tau", "theta", "zeta"])
    p.add_argument("--k-from", type=_integer, required=True)
    p.add_argument("--k-to", type=_integer, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser(
        "sweep", parents=[limits], help="classifier-vs-simulation sweep over regimes"
    )
    p.add_argument("--k-max", type=_integer, default=6)
    p.add_argument("--samples", type=_integer, default=3, help="samples per open interval")
    p.add_argument("--out", help="write the report to this file")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", parents=[delay, limits], help="full cross-check for one delay")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "render", parents=[delay, limits], help="render the simulated trajectory as SVG"
    )
    p.add_argument("--out", help="output SVG path (stdout when omitted)")
    p.add_argument("--width", type=_integer, default=render.DEFAULT_WIDTH)
    p.add_argument("--height", type=_integer, default=render.DEFAULT_HEIGHT)
    p.add_argument(
        "--labels",
        type=lambda text: [_integer(piece) for piece in text.split(",") if piece.strip()],
        default=(),
        help="comma-separated 1-based turning points to label",
    )
    p.add_argument("--title", default=None)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors; keep main() returning
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except BrokenPipeError:
        # the reader left: say nothing, and let the final flush write nowhere
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
