"""Command-line interface: classify, simulate, critical, sweep, verify, render.

Rational inputs and outputs use the exact "p/q" text form everywhere; JSON
output pairs every exact field with a 12-digit decimal companion for human
consumption (machine consumers must use the exact field).  Output files are
written atomically.  Exit codes: 0 success, 1 disagreement (sweep/verify),
2 usage or domain error, 3 undetermined simulation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import analysis, engine, render, validate
from .exact import RatParseError, rat_format, rat_parse, rat_to_decimal

DECIMAL_DIGITS = 12

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3
EXIT_IO = 4

_CONFIG_KEYS = {"max_switches", "max_time", "k_max", "samples", "width", "height"}


def _dec(a: Fraction) -> str:
    return rat_to_decimal(a, DECIMAL_DIGITS)


def _fail(message: str, code: int) -> int:
    print(f"delayswitch: {message}", file=sys.stderr)
    return code


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".delayswitch-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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


def _limits(args, config) -> tuple[int, Fraction]:
    max_switches = _setting(
        args.max_switches, config, "max_switches", engine.DEFAULT_MAX_SWITCHES, int
    )
    max_time = _setting(
        args.max_time, config, "max_time", engine.DEFAULT_MAX_TIME, rat_parse
    )
    return max_switches, max_time


def _turning_doc(point: engine.TurningPoint) -> dict:
    return {
        "beta": rat_format(point.beta),
        "beta_decimal": _dec(point.beta),
        "alpha": rat_format(point.alpha),
        "alpha_decimal": _dec(point.alpha),
    }


def _outcome_doc(tau: Fraction, outcome: engine.Outcome) -> dict:
    doc = {
        "tau": rat_format(tau),
        "tau_decimal": _dec(tau),
        "outcome": engine.behavior_label(outcome),
    }
    if isinstance(outcome, engine.Periodic):
        doc["least_period"] = rat_format(outcome.least_period)
        doc["least_period_decimal"] = _dec(outcome.least_period)
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
    doc = {
        "tau": rat_format(tau),
        "tau_decimal": _dec(tau),
        "regime": prediction.regime.kind.value,
    }
    if prediction.regime.k is not None:
        doc["k"] = prediction.regime.k
        doc["behavior"] = prediction.behavior.value
        doc["switch_count"] = prediction.switch_count
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_simulate(args, config) -> int:
    tau = rat_parse(args.tau)
    max_switches, max_time = _limits(args, config)
    outcome = engine.run(tau, max_switches=max_switches, max_time=max_time)
    doc = _outcome_doc(tau, outcome)
    if args.trace:
        trace_doc = {
            "tau": rat_format(tau),
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
                "decimal": _dec(value),
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
    tau = rat_parse(args.tau)
    max_switches, max_time = _limits(args, config)
    outcome = engine.run(tau, max_switches=max_switches, max_time=max_time)
    theorem = validate.check_theorem(tau, outcome)
    closed = validate.check_closed_form(tau, outcome)
    prediction = theorem.prediction
    print(f"tau = {rat_format(tau)} ({_dec(tau)})")
    print(
        f"classifier: {prediction.regime.kind.value} (k={prediction.regime.k}) -> "
        f"{prediction.behavior.value}, {prediction.switch_count} switchings"
    )
    print(
        f"simulation: {theorem.simulated_behavior}, "
        f"{theorem.simulated_switches} switchings"
    )
    print(f"theorem agreement: {'OK' if theorem.agree else 'FAIL (' + theorem.reason + ')'}")
    if theorem.certificate_ok is not None:
        print(f"period certificate: {'OK' if theorem.certificate_ok else 'FAIL'}")
    closed_msg = "OK" if closed.agree else "FAIL (" + "; ".join(closed.mismatches) + ")"
    print(f"closed forms up to J={closed.horizon}: {closed_msg}")
    if isinstance(outcome, engine.Periodic):
        print(
            f"least period {rat_format(outcome.least_period)} "
            f"({_dec(outcome.least_period)}); turning points over one period:"
        )
        points = outcome.turning_points
    else:
        print("turning points:")
        points = outcome.trace.turning_points
    for j, point in enumerate(points, start=1):
        print(
            f"  j={j}: beta = {rat_format(point.beta)} ({_dec(point.beta)}), "
            f"alpha = {rat_format(point.alpha)} ({_dec(point.alpha)})"
        )
    ok = theorem.agree and closed.agree
    print(f"VERDICT: {'OK' if ok else 'DISAGREE'}")
    return EXIT_OK if ok else EXIT_DISAGREE


def _cmd_render(args, config) -> int:
    tau = rat_parse(args.tau)
    max_switches, max_time = _limits(args, config)
    width = _setting(args.width, config, "width", render.DEFAULT_WIDTH, int)
    height = _setting(args.height, config, "height", render.DEFAULT_HEIGHT, int)
    labels: tuple[int, ...] = ()
    if args.labels:
        labels = tuple(int(piece) for piece in args.labels.split(",") if piece.strip())
    outcome = engine.run(tau, max_switches=max_switches, max_time=max_time)
    svg = render.render_trajectory(
        outcome, width=width, height=height, label_indices=labels, title=args.title
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

    p = sub.add_parser("classify", help="regime and prediction for a delay")
    p.add_argument("tau", help='delay as "p/q" or a finite decimal')
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="exact simulation of a delay")
    p.add_argument("tau")
    p.add_argument("--max-switches", type=int, default=None)
    p.add_argument("--max-time", default=None, help='time limit, "p/q" or decimal')
    p.add_argument("--trace", help="write the full event trace to this JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("critical", help="table of critical delays")
    p.add_argument("--kind", required=True, choices=["tau", "theta", "zeta"])
    p.add_argument("--k-from", type=int, required=True)
    p.add_argument("--k-to", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("sweep", help="classifier-vs-simulation sweep over regimes")
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--samples", type=int, default=None, help="samples per open interval")
    p.add_argument("--out", help="write the report to this file")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--max-switches", type=int, default=None)
    p.add_argument("--max-time", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="full cross-check for one delay")
    p.add_argument("tau")
    p.add_argument("--max-switches", type=int, default=None)
    p.add_argument("--max-time", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="render the simulated trajectory as SVG")
    p.add_argument("tau")
    p.add_argument("--out", help="output SVG path (stdout when omitted)")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--labels", help="comma-separated 1-based turning points to label")
    p.add_argument("--title", default=None)
    p.add_argument("--max-switches", type=int, default=None)
    p.add_argument("--max-time", default=None)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors; keep main() returning
        return int(exc.code or 0)
    try:
        config = _read_config(args.config) if args.config else {}
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        return args.func(args, config)
    except RatParseError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
