"""Command-line interface: classify, simulate, critical, sweep, verify, render.

Rational inputs and outputs use the exact "p/q" text form everywhere; JSON
output pairs every exact field with a 12-digit decimal companion for human
consumption (machine consumers must use the exact field).  Output files are
written atomically.  Exit codes: 0 success, 1 disagreement (sweep/verify),
2 usage or domain error, 3 undetermined simulation, 4 I/O failure, 141 a
closed stdout (128 + SIGPIPE, as a shell reports a writer the signal ends).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import analysis, engine, render, validate
from .exact import rat_format, rat_parse, rat_to_decimal

DECIMAL_DIGITS = 12

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3
EXIT_IO = 4

_CONFIG_KEYS = {"max_switches", "max_time", "k_max", "samples", "width", "height"}


def _exact_fields(name: str, value: Fraction) -> dict[str, str]:
    """``name`` as exact "p/q" and ``name_decimal`` as its decimal companion."""
    return {name: rat_format(value), f"{name}_decimal": rat_to_decimal(value, DECIMAL_DIGITS)}


def _shown(value: Fraction) -> str:
    """The same pair as text: "p/q (decimal)"."""
    return f"{rat_format(value)} ({rat_to_decimal(value, DECIMAL_DIGITS)})"


def _fail(message: str, code: int) -> int:
    print(f"delayswitch: {message}", file=sys.stderr)
    return code


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".delayswitch-{os.urandom(8).hex()}")
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


def _read_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: bad config line {line!r}")
            config[key] = value.strip()
    return config


def _setting(flag_value, config: dict[str, str], key: str, default, convert):
    """The flag's value, else the config file's, converted; else the default."""
    raw = flag_value if flag_value is not None else config.get(key)
    return default if raw is None else convert(raw)


def _limits(args, config) -> tuple[int | None, Fraction | None]:
    """The limits a flag or the config sets; None leaves one to ``engine.run``."""
    max_switches = _setting(args.max_switches, config, "max_switches", None, int)
    return max_switches, _setting(args.max_time, config, "max_time", None, rat_parse)


def _run(args, config) -> engine.Outcome:
    """The engine's run of the command's tau under :func:`_limits`."""
    tau = rat_parse(args.tau)
    return engine.run(tau, *_limits(args, config))


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
        doc["stopped_by"] = outcome.stopped_by
    return doc


def _cmd_classify(args, config) -> int:
    tau = rat_parse(args.tau)
    prediction = analysis.classify(tau)
    doc = {**_exact_fields("tau", tau), "regime": prediction.regime.kind.value}
    if prediction.regime.k is not None:
        doc["k"] = prediction.regime.k
        doc["behavior"] = prediction.behavior.value
        doc["switch_count"] = prediction.switch_count
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_simulate(args, config) -> int:
    outcome = _run(args, config)
    doc = _outcome_doc(outcome)
    if args.trace:
        trace_doc = {
            "tau": doc["tau"],
            "events": engine.trace_records(outcome.trace),
            "outcome": doc,
        }
        _atomic_write(args.trace, json.dumps(trace_doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    if isinstance(outcome, engine.Undetermined):
        return EXIT_UNDETERMINED
    return EXIT_OK


def _interleaving_ok(k: int) -> bool:
    tau_k = analysis.critical_value(analysis.CriticalKind.TAU, k)
    theta_k = analysis.critical_value(analysis.CriticalKind.THETA, k)
    zeta_k = analysis.critical_value(analysis.CriticalKind.ZETA, k)
    tau_next = analysis.critical_value(analysis.CriticalKind.TAU, k + 1)
    return tau_k < theta_k < zeta_k < tau_next < Fraction(3, 2)


def _cmd_critical(args, config) -> int:
    if not 1 <= args.k_from <= args.k_to:
        raise ValueError("need 1 <= --k-from <= --k-to")
    kind = analysis.CriticalKind(args.kind)
    rows = []
    for k in range(args.k_from, args.k_to + 1):
        value = analysis.critical_value(kind, k)
        rows.append(
            {
                "kind": args.kind,
                "k": k,
                "exact": rat_format(value),
                "decimal": rat_to_decimal(value, DECIMAL_DIGITS),
                "interleaving_ok": _interleaving_ok(k),
            }
        )
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print("kind,k,exact,decimal,interleaving_ok")
        for row in rows:
            flag = "true" if row["interleaving_ok"] else "false"
            print(f"{row['kind']},{row['k']},{row['exact']},{row['decimal']},{flag}")
    return EXIT_OK


def _cmd_sweep(args, config) -> int:
    k_max = _setting(args.k_max, config, "k_max", 6, int)
    samples = _setting(args.samples, config, "samples", 3, int)
    max_switches, max_time = _limits(args, config)
    report = validate.sweep(k_max, samples, max_switches, max_time)
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


def _cmd_verify(args, config) -> int:
    outcome = _run(args, config)
    tau = outcome.trace.tau
    theorem = validate.check_theorem(tau, outcome)
    closed = validate.check_closed_form(tau, outcome)
    prediction = theorem.prediction
    print(f"tau = {_shown(tau)}")
    print(
        f"classifier: {prediction.regime.kind.value} (k={prediction.regime.k}) -> "
        f"{prediction.behavior.value}, {prediction.switch_count} switchings"
    )
    switches, stop = theorem.simulated_switches, ""
    if isinstance(outcome, engine.Undetermined):
        switches, stop = outcome.switchings_executed, f", stopped by {outcome.stopped_by}"
    print(f"simulation: {theorem.simulated_behavior}, {switches} switchings{stop}")
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


def _cmd_render(args, config) -> int:
    width = _setting(args.width, config, "width", render.DEFAULT_WIDTH, int)
    height = _setting(args.height, config, "height", render.DEFAULT_HEIGHT, int)
    labels: list[int] = []
    for piece in filter(str.strip, (args.labels or "").split(",")):
        try:
            labels.append(int(piece))
        except ValueError:
            raise ValueError(f"--labels: {piece.strip()!r} is not an integer") from None
    svg = render.render_trajectory(
        _run(args, config), width=width, height=height, label_indices=labels, title=args.title
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
    parser.add_argument(
        "--config", help="key=value defaults file (explicit flags override it)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--max-switches", type=int, default=None)
    limits.add_argument("--max-time", default=None, help='time limit, "p/q" or decimal')

    p = sub.add_parser("classify", help="regime and prediction for a delay")
    p.add_argument("tau", help='delay as "p/q" or a finite decimal')
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", parents=[limits], help="exact simulation of a delay")
    p.add_argument("tau")
    p.add_argument("--trace", help="write the full event trace to this JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("critical", help="table of critical delays")
    p.add_argument("--kind", required=True, choices=["tau", "theta", "zeta"])
    p.add_argument("--k-from", type=int, required=True)
    p.add_argument("--k-to", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser(
        "sweep", parents=[limits], help="classifier-vs-simulation sweep over regimes"
    )
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--samples", type=int, default=None, help="samples per open interval")
    p.add_argument("--out", help="write the report to this file")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", parents=[limits], help="full cross-check for one delay")
    p.add_argument("tau")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", parents=[limits], help="render the simulated trajectory as SVG")
    p.add_argument("tau")
    p.add_argument("--out", help="output SVG path (stdout when omitted)")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--labels", help="comma-separated 1-based turning points to label")
    p.add_argument("--title", default=None)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact in-domain values can run past the cap Python (3.10.7 on) puts on
    # int <-> str digits; lift it for this call only and restore the caller's.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors; keep main() returning
        return int(exc.code or 0)
    try:
        config = _read_config(args.config) if args.config else {}
        code = args.func(args, config)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except BrokenPipeError:
        # the reader left: say nothing, and let the final flush write nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
