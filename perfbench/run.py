"""The repository benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli,sweep,horizon} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it runs the workload for S seconds (and at least once
through its input pool) with tracing off and reports the end-to-end
metrics.  Their times are scaled to a fixed host speed by the reference
kernel of ``reference.py``, timed before and after every operation.  With ``--trace 1`` it runs each operation twice in a row,
untraced and then with spans around the public functions of each module,
and reports the per-layer metrics and the tracing overhead.  Every output
is checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the per-workload figures (``call_ms_p50``, ``delays_per_s``, ...), failure
reasons, the known-defect probes, the output digest and run metadata.  The full record, and the
spans of a traced run, go to ``.perfbench-work/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import reference
from tracing import Span, Tracer, missing_targets, self_times
from workloads import Checked, CliWorkload, HorizonWorkload, SweepWorkload, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("cli", "sweep", "horizon")
SETUP_RUNS = 9  # set-up probes per run; the median is reported
IMPORT_RUNS = 3
LOOP_CAP_S = 80.0  # no operation starts later than this

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
}

CLI_COMMANDS = ("classify", "simulate", "verify", "render", "critical")
EXACT_FUNCTIONS = ("rat_parse", "rat_format", "rat_to_decimal")
VALIDATE_FUNCTIONS = ("check_theorem", "periodicity_certificate", "check_closed_form")

PER_LAYER = {
    "import.total_ms": "ms",
    "import.numpy_ms": "ms",
    **{f"cli.{c}_ms": "ms" for c in CLI_COMMANDS},
    **{f"exact.{f}_{m}": u for f in EXACT_FUNCTIONS for m, u in (("calls", "count"), ("us", "us"))},
    "analysis.classify_calls": "count",
    "analysis.classify_us_p50": "us",
    "analysis.horizon_J_ms": "ms",
    "engine.run_calls": "count",
    "engine.run_ms": "ms",
    "engine.simulate_switches_calls": "count",
    "engine.simulate_switches_ms": "ms",
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.max_int_bits": "bits",
    "validate.engine_calls_per_delay": "count",
    **{f"validate.{f}_ms": "ms" for f in VALIDATE_FUNCTIONS},
    "validate.float_oracle_ms": "ms",
    "validate.float_oracle_peak_mb": "MB",
    "validate.oracle_max_err": "dt",
    "render.render_trajectory_ms": "ms",
    "render.vertices": "count",
    "render.svg_bytes": "bytes",
    "code.src_lines": "lines",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Sample:
    seconds: float  # wall time of the operation's calls into the program
    checked: Checked
    scaled: float | None = None  # ``seconds`` at the reference speed, when measured
    kernel: tuple = ()  # (stage seconds, kernel seconds before, after) per stage


def run_ops(workload, seconds: float, min_ops: int, tracer=None, between=None, scale=False):
    """Run the workload's operations in order, cycling through its pool,
    until ``seconds`` have passed, at least ``min_ops`` are done and the
    last round of ``workload.round_ops`` is complete, so that every run
    has the same mix of operations.

    One client, closed loop: each operation starts when the previous one
    has returned.  With a tracer each operation runs twice in a row,
    untraced and then traced, so that drift over the run affects both
    alike; the traced samples are returned second.  ``between(elapsed)``
    is called before each operation, outside its timing, and returns true
    when it did some work.  With ``scale`` the reference kernel is timed
    right before and right after each operation and between the stages of
    one that has stages (one sample serves as the "after" of one operation
    and the "before" of the next; a sample is sized by the stretch of work
    that precedes it), and each sample also carries its time at the
    reference speed, each stage scaled by the kernel samples around it.
    """
    plain: list[Sample] = []
    traced: list[Sample] = []
    before, last = None, 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(plain) >= min_ops and len(plain) % workload.round_ops == 0
        if (elapsed >= seconds and done) or elapsed >= max(seconds, LOOP_CAP_S):
            return plain, traced
        if between is not None and between(elapsed):
            before = None
        i = len(plain)
        op = workload.ops[i % len(workload.ops)]
        if scale and before is None:
            before = reference.sample(last)
        parts, kernel = [], [before]

        def mark(stage_s):
            parts.append(stage_s)
            kernel.append(reference.sample(stage_s))

        secs, raw = workload.call(op, mark=mark if scale else None)
        scaled, last = None, secs
        if scale:
            parts.append(secs - sum(parts))
            kernel.append(reference.sample(parts[-1]))
            scaled = sum(map(reference.scaled, parts, kernel, kernel[1:]))
            before = kernel[-1]
        stages = tuple(zip(parts, kernel, kernel[1:]))
        plain.append(Sample(secs, workload.check(op, raw), scaled, stages))
        del raw  # a result kept alive would slow the next operation's garbage collection
        if tracer is None:
            continue
        if workload.name != "cli":  # cli calls install the wrappers in the child
            tracer.install()
        try:
            with tracer.span("op", index=i):
                secs, raw = workload.call(op, tracer)
        finally:
            tracer.uninstall()
        traced.append(Sample(secs, workload.check(op, raw)))
        del raw


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    ordered = sorted(values)
    i = len(ordered) - 11
    if i < 0:
        return None
    return 100.0 * (i + 1) / len(ordered), ordered[i]


def digest(samples: list[Sample]) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(len(s.checked.output).to_bytes(8, "big"))
        h.update(s.checked.output)
    return h.hexdigest()


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], n_ops: int, delay_root: str) -> dict[str, float]:
    """Per-layer figures from the spans of ``n_ops`` operations.

    Counts and self times are per operation; ``cli.*_ms`` and
    ``analysis.classify_us_p50`` are medians per call.  ``delay_root`` names
    the span of one checked delay, for ``validate.engine_calls_per_delay``.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / n_ops

    def self_per_op(name, scale):
        return sum(own[s.id] for s in by_name[name]) / n_ops * scale

    m: dict[str, float] = {}
    for c in CLI_COMMANDS:
        m[f"cli.{c}_ms"] = _median(own[s.id] for s in by_name[f"cli.{c}"]) * 1e3
    for f in EXACT_FUNCTIONS:
        m[f"exact.{f}_calls"] = calls(f"exact.{f}")
        m[f"exact.{f}_us"] = self_per_op(f"exact.{f}", 1e6)
    m["analysis.classify_calls"] = calls("analysis.classify")
    m["analysis.classify_us_p50"] = _median(own[s.id] for s in by_name["analysis.classify"]) * 1e6
    m["analysis.horizon_J_ms"] = self_per_op("analysis.horizon_J", 1e3)
    engine = by_name["engine.run"] + by_name["engine.simulate_switches"]
    for f in ("run", "simulate_switches"):
        m[f"engine.{f}_calls"] = calls(f"engine.{f}")
        m[f"engine.{f}_ms"] = self_per_op(f"engine.{f}", 1e3)
    events = sum(s.attrs["events"] for s in engine)
    engine_s = sum(own[s.id] for s in engine)
    m["engine.events"] = events / n_ops
    m["engine.events_per_s"] = events / engine_s if engine_s else 0.0
    m["engine.max_int_bits"] = max((s.attrs["int_bits"] for s in engine), default=0)

    by_id = {s.id: s for s in spans}

    def under_root(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == delay_root:
                return True
        return False

    roots = len(by_name[delay_root])
    m["validate.engine_calls_per_delay"] = sum(map(under_root, engine)) / roots if roots else 0.0
    for f in VALIDATE_FUNCTIONS + ("float_oracle",):
        m[f"validate.{f}_ms"] = self_per_op(f"validate.{f}", 1e3)
    peaks = [s.attrs["peak_bytes"] for s in by_name["validate.float_oracle"]]
    m["validate.float_oracle_peak_mb"] = max(peaks, default=0) / 2**20
    m["render.render_trajectory_ms"] = self_per_op("render.render_trajectory", 1e3)
    renders = by_name["render.render_trajectory"]
    m["render.vertices"] = sum(s.attrs.get("vertices", 0) for s in renders) / n_ops
    m["render.svg_bytes"] = sum(s.attrs["svg_bytes"] for s in renders) / n_ops
    return m


def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative import time (ms) of ``delayswitch`` and of numpy within it."""
    totals, numpy = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import delayswitch"],
            capture_output=True, env=env, cwd=ROOT, timeout=60, check=True,
        )
        cumulative: dict[str, int] = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        totals.append(cumulative["delayswitch"] / 1e3)
        numpy.append(cumulative.get("numpy", 0) / 1e3)
    return statistics.median(totals), statistics.median(numpy)


class SetupProbes:
    """Set-up time: a fresh interpreter that imports the package and makes
    the workload's inputs, timed from start to exit and scaled to the
    reference speed by kernel samples taken right before and after it.
    Called between operations, it spreads SETUP_RUNS probes evenly over
    the measuring loop."""

    def __init__(self, workload: str, seed: int, env: dict, seconds: float):
        self._cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self._env, self._every = env, seconds / SETUP_RUNS
        self.times: list[float] = []  # wall seconds
        self.scaled: list[float] = []  # the same at the reference speed

    def probe(self) -> None:
        before = reference.sample(self.times[-1] if self.times else 0.0)
        elapsed, code, _ = run_child(self._cmd, self._env, ROOT, subprocess.DEVNULL, None)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        self.times.append(elapsed)
        self.scaled.append(reference.scaled(elapsed, before, reference.sample(elapsed)))

    def __call__(self, elapsed: float) -> bool:
        if len(self.times) < SETUP_RUNS and elapsed >= len(self.times) * self._every:
            self.probe()
            return True
        return False

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.probe()
        return statistics.median(self.scaled)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def build_workload(name: str, seed: int, env: dict):
    if name == "cli":
        return CliWorkload(seed, sys.executable, env, ROOT, HERE / "cli_driver.py", WORK)
    from delayswitch import engine, render, validate

    if name == "sweep":
        return SweepWorkload(seed, validate)
    return HorizonWorkload(seed, engine, render, validate)


def _summary(samples: list[Sample]) -> dict:
    failures = Counter(s.checked.failure for s in samples if s.checked.failure)
    return {
        "attempted": len(samples),
        "failed": sum(failures.values()),
        "wrong": sum(1 for s in samples if s.checked.wrong),
        "failures": dict(sorted(failures.items())),
    }


def workload_figures(name: str, samples: list[Sample]) -> dict[str, tuple[float, str]]:
    """Per-workload figures, untraced: the cli and sweep timings under their
    own names with the tail, and the three stages of a horizon delay."""
    ms = [s.seconds * 1e3 for s in samples]
    n = len(samples)
    figures: dict[str, tuple[float, str]] = {}
    if name == "cli":
        figures["call_ms_p50"] = (statistics.median(ms), "ms")
        prefix = "call"
    elif name == "sweep":
        figures["delays_per_s"] = (n / sum(s.seconds for s in samples), "1/s")
        figures["delay_ms_p50"] = (statistics.median(ms), "ms")
        prefix = "delay"
    else:
        extras = [s.checked.extra for s in samples if "replay_s" in s.checked.extra]
        replay_s = sum(e["replay_s"] for e in extras)
        switches = sum(e["switches"] for e in extras)
        figures["switches_per_s"] = (switches / replay_s if replay_s else 0.0, "1/s")
        figures["oracle_s"] = (_median(e["oracle_s"] for e in extras), "s")
        figures["render_ms"] = (_median(e["render_s"] * 1e3 for e in extras), "ms")
        return figures
    t = tail(ms)
    if t is not None:
        figures[f"{prefix}_ms_tail"] = (t[1], f"ms@p{t[0]:.1f}")
    return figures


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so that an operation
    and the kernel samples around it run on the same one; the load is one
    closed-loop client, so nothing runs in parallel anyway."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def check_defects(workload) -> list[Sample]:
    """Run and check each known-defect probe once, untimed."""
    return [Sample(secs, workload.check(op, raw))
            for op in workload.probes for secs, raw in [workload.call(op)]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "delayswitch" / "__init__.py").is_file():
        print(f"perfbench: no delayswitch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import delayswitch

    if Path(delayswitch.__file__).resolve().parent != SRC / "delayswitch":
        print(f"perfbench: delayswitch imported from {delayswitch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpu = pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    workload = build_workload(args.workload, args.seed, env)
    pool = len(workload.ops)
    if args.workload == "cli":  # compile bytecode and fill the page cache before timing
        workload.call(workload.ops[0])

    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    if args.trace == 0:
        setup = SetupProbes(args.workload, args.seed, env, args.seconds)
        samples, _ = run_ops(workload, args.seconds, pool, between=setup, scale=True)
        plain = samples
        if args.workload == "cli":
            peak_rss_mb = max(s.checked.extra["rss_mb"] for s in samples)
        else:  # ru_maxrss is in KiB on Linux
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": setup.median(),
            "peak_rss_mb": peak_rss_mb,
            "op_ms_p50": statistics.median(s.scaled for s in samples) * 1e3,
            "ops_per_s": len(samples) / sum(s.scaled for s in samples),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        record["setup_probe_s"] = setup.times
        record["setup_probe_scaled_s"] = setup.scaled
        record["op_scaled_ms"] = [s.scaled * 1e3 for s in samples]
        record["op_stages_kernel_s"] = [s.kernel for s in samples]
        record["host_slowdown"] = statistics.median(s.seconds / s.scaled for s in samples)
    else:
        tracer = Tracer()
        plain, samples = run_ops(workload, args.seconds, pool, tracer)
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.records()))
        delay_root = "cli.verify" if args.workload == "cli" else "op"
        values = layer_metrics(tracer.spans, len(samples), delay_root)
        values["import.total_ms"], values["import.numpy_ms"] = import_times(env)
        errs = [s.checked.extra.get("oracle_err_dt", 0.0) for s in samples]
        values["validate.oracle_max_err"] = max(errs, default=0.0)
        values["code.src_lines"] = src_lines()
        values["trace.overhead_frac"] = (sum(s.seconds for s in samples)
                                         / sum(s.seconds for s in plain) - 1.0)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        record["missing_targets"] = missing_targets()
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    probed = check_defects(workload)
    record["digest"] = digest(samples[:pool] + probed)
    if args.trace == 1:
        record["untraced_digest"] = digest(plain[:pool] + probed)
    correct = (record.get("untraced_digest", record["digest"]) == record["digest"]
               and not any(s.checked.wrong for s in samples + plain + probed))

    summary = _summary(samples)
    defects = _summary(probed)
    record["defect_probes"] = defects
    figures = workload_figures(args.workload, plain)
    record.update(summary)
    record["digest_ops"] = min(pool, len(samples))
    record["op_ms"] = [s.seconds * 1e3 for s in plain]
    record["figures"] = {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}
    record["meta"] = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "cpu": cpu,
        "samples": len(samples),
        "pool": pool,
    }
    result = {"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"],
              "metrics": metrics}
    record["result"] = result
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=2) + "\n")

    w = args.workload
    print(f"perfbench {w} seed={args.seed} trace={args.trace} meta={json.dumps(record['meta'])}")
    failed_frac = summary["failed"] / summary["attempted"]
    print(f"{w} failed_frac {failed_frac:.4f} ({summary['failed']} of {summary['attempted']}, "
          f"{summary['wrong']} wrong answers)")
    for reason, count in summary["failures"].items():
        print(f"{w} failure x{count}: {reason}")
    print(f"{w} known-defect probes: {defects['failed']} of {defects['attempted']} fail "
          f"({defects['wrong']} wrong answers)")
    for reason, count in defects["failures"].items():
        print(f"{w} known-defect probe failure x{count}: {reason}")
    if "host_slowdown" in record:
        print(f"{w} host slowdown {record['host_slowdown']:.4f} (op wall time over the same "
              f"at the reference speed, median; the figures below are wall times)")
    for target in record.get("missing_targets", []):
        print(f"{w} not traced, not defined: {target}")
    for k, (v, u) in figures.items():
        print(f"{w} {k} {v:.6g} {u} (untraced, n={len(plain)})")
    for k, m in metrics.items():
        print(f"{w} {k} {m['value']:.6g} {m['unit']}")
    print(f"{w} digest sha256:{record['digest']} over the first {record['digest_ops']} operations "
          f"and the {len(probed)} known-defect probes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
