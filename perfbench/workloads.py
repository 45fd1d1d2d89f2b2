"""Seeded inputs, the timed call and the output check of each workload.

Inputs come only from the seed.  Expected answers come from the paper's
formulas, computed here without ``delayswitch``, so the checks do not trust
the code they measure.

Two known defects get inputs of their own, the defect probes, which every
run checks after the measured operations and reports apart from them, so
that fixing a defect shows as fewer failing probes:
  * delays closer to 3/2 than ``classify``'s ``k_cap=64`` resolves (regimes
    with k >= 65, within about 1e-40 of 3/2) in ``sweep`` and ``cli``;
  * ``render`` titles containing ``<`` or ``&`` in ``cli``.
The measured operations avoid both, so none of them fails on a correct
program.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from fractions import Fraction

SUP = Fraction(3, 2)

# regime -> (behavior, a, b); the switch count is a*k + b, per least period
# when periodic and in total before divergence otherwise.
REGIMES = {
    "tau_k": ("periodic", 4, 2),
    "open_tau_theta": ("periodic", 2, 4),
    "theta_k": ("divergent_minus_inf", 2, 5),
    "open_theta_zeta": ("periodic", 2, 6),
    "zeta_k": ("divergent_minus_inf", 4, 5),
    "open_zeta_tau_next": ("periodic", 2, 4),
}
AT_CRITICAL = ("tau_k", "theta_k", "zeta_k")
OPEN = ("open_tau_theta", "open_theta_zeta", "open_zeta_tau_next")

CLI_ROUNDS = 4  # rounds of 10 calls in the cli input pool
CLI_DEFECT_ROUNDS = 2  # rounds of 3 defect probes for cli
SWEEP_BLOCKS = 4  # blocks of 132 delays in the sweep input pool
SWEEP_K = tuple(range(1, 13)) + (16, 20, 24, 28, 32, 40, 48, 56, 63, 64)
BEYOND_CAP_K = (65, 70)  # regimes classify's k_cap=64 does not reach
HORIZON_SWITCHES = 20_000
ORACLE_DT = 1e-6
ORACLE_T_END = 20.0
ORACLE_TOL_DT = 10  # documented oracle tolerance, in steps
CALL_TIMEOUT_S = 60  # a cli call still running then is killed and counted as failed
SVG_NS = "{http://www.w3.org/2000/svg}"


def critical(kind: str, k: int) -> Fraction:
    """k-th member of the tau, theta or zeta sequence."""
    p = 4**k
    if kind == "tau":
        return Fraction(3 * p, 2 * p + 1)
    if kind == "theta":
        return Fraction(3 * (4 * p - 1), 8 * p + 1)
    return Fraction(3 * (2 * p - 1), 4 * p - 1)


def _bounds(regime: str, k: int) -> tuple[Fraction, Fraction]:
    """The critical value itself (twice) or the ends of the open interval."""
    tau, theta, zeta, nxt = (critical("tau", k), critical("theta", k), critical("zeta", k),
                             critical("tau", k + 1))
    return {
        "tau_k": (tau, tau),
        "theta_k": (theta, theta),
        "zeta_k": (zeta, zeta),
        "open_tau_theta": (tau, theta),
        "open_theta_zeta": (theta, zeta),
        "open_zeta_tau_next": (zeta, nxt),
    }[regime]


def regime_of(tau: Fraction) -> tuple[str, int]:
    """Reference classification of a delay in [4/3, 3/2), with no cap on k."""
    if not critical("tau", 1) <= tau < SUP:
        raise ValueError("outside the window")
    k = 1
    while tau >= critical("tau", k + 1):
        k += 1
    for regime in ("tau_k", "open_tau_theta", "theta_k", "open_theta_zeta", "zeta_k"):
        lo, hi = _bounds(regime, k)
        if tau == lo == hi or lo < tau < hi:
            return regime, k
    return "open_zeta_tau_next", k


def rat_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Delay:
    tau: Fraction
    text: str  # the form handed to the program: "p/q" or a finite decimal
    regime: str  # a key of REGIMES, or "below" for delays under the window
    k: int | None


def draw(rng: random.Random, regime: str, k: int, places: int | None = None) -> Delay:
    """A delay of the given regime: the critical value, or a seeded interior
    rational with a 12-digit denominator, written with ``places`` decimal
    places when given (open regimes only)."""
    lo, hi = _bounds(regime, k)
    if lo == hi:
        return Delay(lo, rat_text(lo), regime, k)
    while True:
        q = rng.randrange(10**11, 10**12)
        tau = lo + (hi - lo) * Fraction(rng.randrange(1, q), q)
        if places is None:
            return Delay(tau, rat_text(tau), regime, k)
        n = tau.numerator * 10**places // tau.denominator
        value = Fraction(n, 10**places)
        if lo < value < hi:
            whole, frac = divmod(n, 10**places)
            return Delay(value, f"{whole}.{frac:0{places}d}", regime, k)


def near_sup_decimal(rng: random.Random) -> Delay:
    """A decimal within about 1e-41 of 3/2, beyond classify's k_cap (known defect)."""
    text = "1.4" + "9" * rng.randint(40, 44) + str(rng.randint(0, 8))
    whole, frac = text.split(".")
    tau = Fraction(int(whole + frac), 10 ** len(frac))
    return Delay(tau, text, *regime_of(tau))


@dataclass(frozen=True)
class Checked:
    """The outcome of checking one operation's output."""

    output: bytes  # everything the operation emitted, for the run digest
    failure: str | None = None  # why the operation gave no verified answer
    wrong: bool = False  # the output contradicts the expected answer
    extra: dict = field(default_factory=dict)


def _wrong(output: bytes, reason: str, **extra) -> Checked:
    return Checked(output, reason, True, extra)


# -- cli: cold one-shot calls, one client, closed loop ------------------------


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    expect: object  # a Delay, or (kind, k_from, k_to) for "critical"


def _cli_round(rng: random.Random) -> list[CliCall]:
    def any_delay():
        return draw(rng, rng.choice(list(REGIMES)), rng.randint(1, 10))

    def decimal_delay():
        return draw(rng, rng.choice(OPEN), rng.randint(1, 10), places=rng.randint(25, 40))

    def critical_call():
        kind, k_from = rng.choice(("tau", "theta", "zeta")), rng.randint(1, 30)
        k_to = k_from + rng.randint(0, 9)
        argv = ("critical", "--kind", kind, "--k-from", str(k_from), "--k-to", str(k_to),
                "--format", "json")
        return CliCall(argv, (kind, k_from, k_to))

    delays = {
        "classify": [any_delay(), decimal_delay()],
        "simulate": [any_delay(), decimal_delay()],
        "verify": [any_delay(), decimal_delay()],
    }
    calls = [CliCall((cmd, d.text), d) for cmd, ds in delays.items() for d in ds]
    for _ in range(2):
        d = any_delay()
        calls.append(CliCall(("render", d.text, "--title", f"run {rng.randint(1, 999)}"), d))
    calls += [critical_call(), critical_call()]
    rng.shuffle(calls)
    return calls


def _cli_defect_round(rng: random.Random) -> list[CliCall]:
    """One ``classify`` of a decimal next to 3/2 and one ``verify`` of a
    k >= 65 delay (refused beyond ``k_cap``), and one ``render`` whose title
    holds ``<`` or ``&`` (unescaped in the SVG)."""
    near_sup = near_sup_decimal(rng)
    beyond_cap = draw(rng, rng.choice(list(REGIMES)), rng.randint(*BEYOND_CAP_K))
    d = draw(rng, rng.choice(list(REGIMES)), rng.randint(1, 10))
    title = rng.choice(("a<b & c", "tau < 3/2", "x & y", "<k>")) + f" {rng.randint(1, 99)}"
    return [CliCall(("classify", near_sup.text), near_sup),
            CliCall(("verify", beyond_cap.text), beyond_cap),
            CliCall(("render", d.text, "--title", title), d)]


def _check_cli_doc(call: CliCall, doc) -> str | None:
    """Mismatch description, or None when the JSON answer is right."""
    command = call.argv[0]
    if command == "critical":
        kind, k_from, k_to = call.expect
        want = [
            {"kind": kind, "k": k, "exact": rat_text(critical(kind, k)), "interleaving_ok": True}
            for k in range(k_from, k_to + 1)
        ]
        rows = doc if isinstance(doc, list) else [doc]
        got = [{key: row.get(key) for key in want[0]} if isinstance(row, dict) else row
               for row in rows]
        return None if got == want else "critical table differs"
    d = call.expect
    behavior, a, b = REGIMES[d.regime]
    if command == "classify":
        want = {"tau": rat_text(d.tau), "regime": d.regime, "k": d.k, "behavior": behavior,
                "switch_count": a * d.k + b}
    else:
        count = "switchings_per_period" if behavior == "periodic" else "total_switchings"
        want = {"tau": rat_text(d.tau), "outcome": behavior, count: a * d.k + b}
    got = {key: doc.get(key) for key in want} if isinstance(doc, dict) else doc
    return None if got == want else f"{command} answer differs"


def check_cli(call: CliCall, returncode: int, stdout: bytes, stderr: bytes) -> Checked:
    output = b"%d\n%s\n%s" % (returncode, stdout, stderr)
    command = call.argv[0]
    if returncode == 1:
        return _wrong(output, f"{command}: exit 1 (disagreement)")
    if returncode != 0:
        first = stderr.decode("utf-8", "replace").strip().splitlines()[:1]
        return Checked(output, f"{command}: exit {returncode}: {' '.join(first)}")
    if command == "render":
        try:
            root = ET.fromstring(stdout)
        except ET.ParseError:
            return Checked(output, "render: SVG does not parse")
        paths = [e for e in root.iter(SVG_NS + "polyline") if e.get("class") == "trajectory"]
        if root.tag != SVG_NS + "svg" or len(paths) != 1:
            return _wrong(output, "render: no trajectory in SVG")
        return Checked(output)
    text = stdout.decode("utf-8", "replace")
    if command == "verify":
        lines = text.strip().splitlines()
        ok = bool(lines) and lines[-1] == "VERDICT: OK"
        return Checked(output) if ok else _wrong(output, "verify: no OK verdict")
    try:
        doc = json.loads(text)
    except ValueError:
        return Checked(output, f"{command}: stdout is not JSON")
    mismatch = _check_cli_doc(call, doc)
    return Checked(output) if mismatch is None else _wrong(output, mismatch)


def run_child(cmd: list[str], env: dict, cwd, stdout, stderr) -> tuple[float, int, float]:
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB).

    ``os.wait4`` blocks until the child exits, so the wall time has no
    polling granularity (``subprocess`` waits with a timeout by sleeping in
    steps of up to 50 ms), and it reports the child's own peak RSS.  A child
    still running after CALL_TIMEOUT_S is killed; its exit code is then -9.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=cwd)
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


@dataclass(frozen=True)
class Completed:
    returncode: int
    stdout: bytes
    stderr: bytes
    rss_mb: float  # the child's peak resident set size


class CliWorkload:
    """One ``python -m delayswitch ...`` per call; traced calls go through
    ``cli_driver.py``, which wraps the public functions before ``main``."""

    name = "cli"

    def __init__(self, seed: int, python: str, env: dict, root, driver, work):
        self.ops = make_inputs("cli", seed)
        self.probes = make_defect_probes("cli", seed)
        self.round_ops = len(self.ops) // CLI_ROUNDS  # a run ends after a whole round
        self._python, self._env, self._root, self._driver = python, env, root, driver
        self._spans_file = work / "cli-call-spans.json"
        self._out, self._err = work / "cli-call.stdout", work / "cli-call.stderr"

    def call(self, op: CliCall, tracer=None, mark=None):
        if tracer is None:
            cmd = [self._python, "-m", "delayswitch", *op.argv]
        else:
            cmd = [self._python, str(self._driver), str(self._spans_file), *op.argv]
        self._spans_file.unlink(missing_ok=True)
        with open(self._out, "w+b") as out, open(self._err, "w+b") as err:
            elapsed, returncode, rss_mb = run_child(cmd, self._env, self._root, out, err)
            out.seek(0)
            err.seek(0)
            done = Completed(returncode, out.read(), err.read(), rss_mb)
        if tracer is not None and self._spans_file.exists():
            tracer.adopt(json.loads(self._spans_file.read_text()))
        return elapsed, done

    def check(self, op: CliCall, done: Completed) -> Checked:
        checked = check_cli(op, done.returncode, done.stdout, done.stderr)
        return replace(checked, extra={**checked.extra, "rss_mb": done.rss_mb})


# -- sweep: in-process cross-validation of many delays -------------------------


def _sweep_block(rng: random.Random) -> list[Delay]:
    delays = [draw(rng, regime, k) for k in SWEEP_K for regime in REGIMES]
    rng.shuffle(delays)
    return delays


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class SweepWorkload:
    """``check_theorem`` (with the period certificate) and ``check_closed_form`` per delay."""

    name = "sweep"

    def __init__(self, seed: int, validate):
        self.ops = make_inputs("sweep", seed)
        self.probes = make_defect_probes("sweep", seed)
        self.round_ops = len(self.ops) // SWEEP_BLOCKS  # a run ends after a whole block
        self._validate = validate

    def call(self, op: Delay, tracer=None, mark=None):
        start = time.perf_counter()
        try:
            raw = (self._validate.check_theorem(op.tau), self._validate.check_closed_form(op.tau))
        except Exception as exc:  # a raising check is a failed operation; the run goes on
            raw = exc
        return time.perf_counter() - start, raw

    def check(self, op: Delay, raw) -> Checked:
        if isinstance(raw, Exception):
            return Checked(f"{op.text},error,{_error(raw)}\n".encode(), _error(raw))
        theorem, closed = raw
        p = theorem.prediction
        row = [op.text, p.regime.kind.value, p.regime.k, p.behavior.value, p.switch_count,
               theorem.simulated_behavior, theorem.simulated_switches, theorem.agree,
               theorem.reason, theorem.certificate_ok, closed.horizon, closed.simulated_horizon,
               closed.agree, ";".join(closed.mismatches)]
        output = (",".join("" if v is None else str(v) for v in row) + "\n").encode()
        if (p.regime.kind.value, p.regime.k) != (op.regime, op.k):
            return _wrong(output, "sweep: regime differs from the reference")
        if not theorem.agree:
            return _wrong(output, f"sweep: check_theorem disagrees ({theorem.reason})")
        if not closed.agree:
            return _wrong(output, "sweep: check_closed_form disagrees")
        return Checked(output)


# -- horizon: few long exact replays, each rendered and run through the oracle --


def _horizon_delays(rng: random.Random) -> list[Delay]:
    """Periodic delays below and inside the window, each p/q with a 7-digit
    q so that replays cost about the same, and each more than 1000*dt from
    every critical value (the oracle's documented domain)."""
    out = []
    for k in (None, 1, None, 2):
        regime = "below" if k is None else rng.choice(OPEN)
        lo, hi = (Fraction(21, 20), Fraction(13, 10)) if k is None else _bounds(regime, k)
        inner = (hi - lo) / 10  # intervals are at least 0.01 wide
        q = rng.randrange(10**6, 10**7)
        p = rng.randint(math.ceil((lo + inner) * q), math.floor((hi - inner) * q))
        tau = Fraction(p, q)
        out.append(Delay(tau, rat_text(tau), regime, k))
    return out


class HorizonWorkload:
    """``simulate_switches`` for 20,000 switches, ``render_trajectory`` and ``float_oracle``."""

    name = "horizon"

    def __init__(self, seed: int, engine, render, validate):
        self.ops = make_inputs("horizon", seed)
        self.probes = make_defect_probes("horizon", seed)
        self.round_ops = len(self.ops)  # a run ends after a whole pass over the delays
        self._engine, self._render, self._validate = engine, render, validate

    def call(self, op: Delay, tracer=None, mark=None):
        """Replay, render and oracle, timed apart; ``mark(seconds)`` is called
        after each of the first two stages with its time, outside the timing."""
        stages: dict = {}

        def timed(name, fn, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stages[name] = time.perf_counter() - start
                if mark is not None and name != "oracle_s":
                    mark(stages[name])

        try:
            trace = timed("replay_s", self._engine.simulate_switches, op.tau, HORIZON_SWITCHES)
            replay = self._engine.Undetermined(len(trace.turning_points), trace)
            svg = timed("render_s", self._render.render_trajectory, replay,
                        title=f"tau = {op.text}")
            oracle = timed("oracle_s", self._validate.float_oracle, op.tau, dt=ORACLE_DT,
                           t_end=ORACLE_T_END)
        except Exception as exc:  # a raising stage is a failed operation; the run goes on
            return sum(stages.values()), exc
        secs = sum(stages.values())
        stages["switches"] = len(trace.turning_points)
        return secs, (trace, svg, oracle, stages)

    def check(self, op: Delay, raw) -> Checked:
        if isinstance(raw, Exception):
            return Checked(f"{op.text},error,{_error(raw)}\n".encode(), _error(raw))
        trace, svg, oracle, stages = raw
        points = trace.turning_points
        exact_text = "".join(f"{rat_text(p.beta)},{rat_text(p.alpha)}\n" for p in points)
        output = svg.encode() + exact_text.encode() + repr(oracle).encode()
        if len(points) < HORIZON_SWITCHES:
            return _wrong(output, "horizon: replay shorter than requested", **stages)
        try:
            ET.fromstring(svg)
        except ET.ParseError:
            return Checked(output, "horizon: SVG does not parse", extra=stages)
        cut = ORACLE_T_END - 2 * ORACLE_TOL_DT * ORACLE_DT  # leave out switches the oracle may clip
        exact = [(float(p.beta), float(p.alpha)) for p in points if p.beta <= cut]
        approx = [(t, x) for t, x in oracle if t <= cut]
        if len(exact) != len(approx):
            return _wrong(output, "horizon: oracle finds another number of switches", **stages)
        pairs = zip(exact, approx)
        err = max((max(abs(a - c), abs(b - d)) for (a, b), (c, d) in pairs), default=0.0)
        stages["oracle_err_dt"] = err / ORACLE_DT
        if err > ORACLE_TOL_DT * ORACLE_DT:
            return _wrong(output, "horizon: oracle turning point beyond 10*dt", **stages)
        return Checked(output, extra=stages)


def make_inputs(workload: str, seed: int) -> list:
    """The input pool of a workload; runs cycle through it in order."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "cli":
        return [call for _ in range(CLI_ROUNDS) for call in _cli_round(rng)]
    if workload == "sweep":
        return [d for _ in range(SWEEP_BLOCKS) for d in _sweep_block(rng)]
    if workload == "horizon":
        return _horizon_delays(rng)
    raise ValueError(f"unknown workload {workload!r}")


def make_defect_probes(workload: str, seed: int) -> list:
    """Inputs that hit the known defects, checked once per run after the
    measured operations; ``horizon`` has none."""
    rng = random.Random(f"perfbench:{workload}-defects:{seed}")
    if workload == "cli":
        return [call for _ in range(CLI_DEFECT_ROUNDS) for call in _cli_defect_round(rng)]
    if workload == "sweep":
        return [draw(rng, regime, rng.randint(*BEYOND_CAP_K))
                for regime in (rng.choice(AT_CRITICAL), rng.choice(OPEN))]
    if workload == "horizon":
        return []
    raise ValueError(f"unknown workload {workload!r}")
