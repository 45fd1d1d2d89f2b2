"""In-memory spans around the public functions of ``delayswitch``.

A :class:`Tracer` replaces each traced function in every ``delayswitch``
module namespace that binds it (``cli`` binds the ``exact`` helpers by name
at import, the other modules call through module attributes), so calls are
timed where they are looked up.  Spans keep name, start, end and parent in
memory and are written out once, when the run ends.  ``engine.step`` is
deliberately not wrapped: it runs once per event and would dominate the
trace; event counts and integer sizes come from the returned traces instead.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _int_bits(trace) -> int:
    """Largest numerator or denominator size, in bits, of the final event.

    Time only grows along a trace, so the final event holds the largest
    integers up to a few bits; scanning every event would cost as much as
    the simulation being measured.
    """
    if not trace.events:
        return 0
    last = trace.events[-1]
    return max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in (last.t, last.x)
    )


def _engine_attrs(span: Span, result) -> None:
    trace = getattr(result, "trace", result)  # run returns an Outcome, replays a SimTrace
    span.attrs["events"] = len(trace.events)
    span.attrs["switches"] = len(trace.turning_points)
    span.attrs["int_bits"] = _int_bits(trace)


def _render_attrs(span: Span, svg: str) -> None:
    span.attrs["svg_bytes"] = len(svg.encode("utf-8"))
    marker = 'class="trajectory" points="'
    start = svg.find(marker)
    if start >= 0:
        start += len(marker)
        span.attrs["vertices"] = svg.count(" ", start, svg.find('"', start)) + 1


# (module, function, span name, result hook); the span name is the metric prefix.
TARGETS = (
    ("delayswitch.exact", "rat_parse", "exact.rat_parse", None),
    ("delayswitch.exact", "rat_format", "exact.rat_format", None),
    ("delayswitch.exact", "rat_to_decimal", "exact.rat_to_decimal", None),
    ("delayswitch.analysis", "classify", "analysis.classify", None),
    ("delayswitch.analysis", "horizon_J", "analysis.horizon_J", None),
    ("delayswitch.engine", "run", "engine.run", _engine_attrs),
    ("delayswitch.engine", "simulate_switches", "engine.simulate_switches", _engine_attrs),
    ("delayswitch.validate", "check_theorem", "validate.check_theorem", None),
    ("delayswitch.validate", "periodicity_certificate", "validate.periodicity_certificate", None),
    ("delayswitch.validate", "check_closed_form", "validate.check_closed_form", None),
    ("delayswitch.validate", "float_oracle", "validate.float_oracle", None),
    ("delayswitch.render", "render_trajectory", "render.render_trajectory", _render_attrs),
)

MEMORY_SPANS = {"validate.float_oracle"}  # spans that also record a tracemalloc peak


def missing_targets(targets=TARGETS) -> list[str]:
    """Targets that the loaded ``delayswitch`` does not define; their metrics read 0."""
    return [f"{m}.{a}" for m, a, _, _ in targets if getattr(sys.modules.get(m), a, None) is None]


class Tracer:
    """Collects spans; ``install`` patches ``delayswitch`` and ``uninstall`` restores it."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self._clock(), attrs=dict(attrs))
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                if memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if memory:
                        span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                if on_result is not None:
                    on_result(span, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every loaded target in each loaded ``delayswitch`` module."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "delayswitch" or n.startswith("delayswitch.")]
        for module_name, attr, name, on_result in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, on_result)
            for namespace in namespaces:
                for key in [k for k, v in vars(namespace).items() if v is original]:
                    self._patched.append((namespace, key, original))
                    setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)
        self._patched.clear()

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def adopt(self, records: list[dict]) -> None:
        """Append spans recorded in a child process, renumbered after the existing ones."""
        offset = len(self.spans)
        for r in records:
            parent = None if r["parent"] is None else r["parent"] + offset
            self.spans.append(
                Span(r["id"] + offset, r["name"], parent, r["start"], r["end"], r["attrs"]))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out
