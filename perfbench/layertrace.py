"""Per-layer tracing of one heal, installed from outside the package.

Each wrapper records a span (name, parent, start, end) in memory around a
call into one of cfiheal's layers. Names are patched where they are looked
up: ``pipeline`` imports its layer functions by name, ``repair`` and
``harness`` hold their own ``run_build`` and ``run_traced``, and ``symbols``
calls its module globals ``demangle``, ``ElfFile`` and ``LineTable``.

Spans are named ``<module>.<function>``; ``stats`` turns them into the
per-layer metrics (``calls``, ``busy_s``, ``self_s``, derived rates) and the
phase split of ``heal``.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass

# Top-level calls of heal() that start or belong to a phase.
ACCOUNT = {
    "ircensus.census",
    "ircensus.census_by_function",
    "pipeline._function_records",
    "report.compute_coverage",
    "report.emit_report",
}
PHASES = ("baseline", "cfi_build", "observe", "escalation", "confirm", "account")

# (span name, stat) pairs reported for every workload; absent spans read 0.
SPAN_STATS = (
    ("build.run_build", "calls"),
    ("build.run_build", "busy_s"),
    ("build.parse_diagnostics", "busy_s"),
    ("repair.repair_until_buildable", "calls"),
    ("repair.repair_until_buildable", "self_s"),
    ("repair.locate_definition", "calls"),
    ("repair.locate_definition", "busy_s"),
    ("harness.enumerate_tests", "calls"),
    ("harness.enumerate_tests", "busy_s"),
    ("harness.run_suite", "calls"),
    ("harness.run_suite", "busy_s"),
    ("harness.run_case", "calls"),
    ("harness.run_case", "busy_s"),
    ("tracing.run_traced", "calls"),
    ("tracing.run_traced", "busy_s"),
    ("symbols.resolve_runtime", "calls"),
    ("symbols.resolve_runtime", "busy_s"),
    ("symbols.function_boundaries", "calls"),
    ("symbols.function_boundaries", "busy_s"),
    ("symbols.demangle", "calls"),
    ("symbols.demangle", "busy_s"),
    ("symbols.function_candidates", "calls"),
    ("symbols.function_candidates", "busy_s"),
    ("elf.ElfFile", "busy_s"),
    ("elf.LineTable.from_elf", "busy_s"),
    ("escalation.observe", "calls"),
    ("ircensus.census", "calls"),
    ("ircensus.census", "busy_s"),
    ("ircensus.census_by_function", "busy_s"),
    ("report.compute_coverage", "busy_s"),
    ("report.emit_report", "busy_s"),
    ("pipeline.heal", "self_s"),
)


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0


class Tracer:
    """Span recorder plus the counters the wrappers keep at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.traced_runs: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result, span)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a traced wrapper; a missing attribute is skipped."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, after)))
        else:
            setattr(owner, attr, self.wrap(raw, name, after))

    def install(self) -> None:
        from cfiheal import build, escalation, harness, pipeline, repair, symbols

        for attr, name in (
            ("heal", "pipeline.heal"),
            ("run_build", "build.run_build"),
            ("run_suite", "harness.run_suite"),
            ("run_case", "harness.run_case"),
            ("enumerate_tests", "harness.enumerate_tests"),
            ("repair_until_buildable", "repair.repair_until_buildable"),
            ("census", "ircensus.census"),
            ("census_by_function", "ircensus.census_by_function"),
            ("_function_records", "pipeline._function_records"),
            ("compute_coverage", "report.compute_coverage"),
            ("emit_report", "report.emit_report"),
        ):
            self.patch(pipeline, attr, name, _count_mb("ircensus.census.mb") if attr == "census" else None)
        self.patch(build, "parse_diagnostics", "build.parse_diagnostics", _count_mb("build.parse_diagnostics.mb"))
        self.patch(repair, "run_build", "build.run_build")
        self.patch(repair, "locate_definition", "repair.locate_definition")
        self.patch(repair, "demangle", "symbols.demangle")
        self.patch(harness, "run_traced", "tracing.run_traced", _record_traced_run)
        self.patch(harness, "run_case", "harness.run_case")
        self.patch(harness, "enumerate_tests", "harness.enumerate_tests")
        self.patch(symbols, "demangle", "symbols.demangle")
        self.patch(symbols, "ElfFile", "elf.ElfFile")
        self.patch(symbols.LineTable, "from_elf", "elf.LineTable.from_elf")
        self.patch(symbols.Symbolizer, "resolve_runtime", "symbols.resolve_runtime")
        self.patch(symbols.Symbolizer, "function_boundaries", "symbols.function_boundaries")
        self.patch(symbols.Symbolizer, "_build_spans", "symbols.build_view", _record_view)
        self.patch(symbols.ObjdumpBackend, "function_candidates", "symbols.function_candidates")
        self.patch(escalation.EscalationEngine, "observe", "escalation.observe")

    def _timed(self) -> list[tuple[Span, float, float]]:
        """Each span with its duration and its self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        return [(s, s.end - s.start, s.end - s.start - c) for s, c in zip(self.spans, child_time)]

    def stats(self) -> dict[str, float]:
        """Per-layer metrics and the phase split of the (last) heal."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        for span, duration, own in self._timed():
            calls[span.name] += 1
            busy[span.name] += duration
            self_time[span.name] += own
        out: dict[str, float] = {}
        for name, stat in SPAN_STATS:
            table = {"calls": calls, "busy_s": busy, "self_s": self_time}[stat]
            out[f"{name}.{stat}"] = table.get(name, 0)
        out["build.parse_diagnostics.mb"] = self.counters["build.parse_diagnostics.mb"]
        out["repair.locate_definition.ms_per_call"] = _per_call(busy, calls, "repair.locate_definition")
        out["tracing.run_traced.ms_per_call"] = _per_call(busy, calls, "tracing.run_traced")
        out["tracing.trapped"] = self.counters["tracing.trapped"]
        census_busy = busy.get("ircensus.census", 0.0)
        out["ircensus.census.mb_per_s"] = (
            self.counters["ircensus.census.mb"] / census_busy if census_busy else 0.0
        )
        out["symbols.view_builds"] = calls.get("symbols.build_view", 0)
        out["symbols.view_mb"] = self.counters["symbols.view_mb"]
        out.update(self.phases())
        return out

    def layer_self_time(self) -> dict[str, float]:
        """Self time summed by module, the first part of each span name."""
        layers: dict[str, float] = defaultdict(float)
        for span, _, own in self._timed():
            layers[span.name.split(".", 1)[0]] += own
        return dict(layers)

    def phases(self) -> dict[str, float]:
        heals = [i for i, s in enumerate(self.spans) if s.name == "pipeline.heal"]
        out = {f"phase.{p}_s": 0.0 for p in PHASES}
        if not heals:
            out["phase.unattributed_s"] = 0.0
            return out
        top = heals[-1]
        current = "baseline"
        suites = repairs = 0
        for span in self.spans:
            if span.parent != top:
                continue
            if span.name == "harness.run_suite":
                suites += 1
                current = ("baseline", "observe")[suites - 1] if suites <= 2 else "confirm"
            elif span.name == "repair.repair_until_buildable":
                repairs += 1
                current = "cfi_build" if repairs == 1 else "escalation"
            elif span.name in ("harness.run_case", "harness.enumerate_tests"):
                current = "escalation"
            elif span.name in ACCOUNT:
                current = "account"
            out[f"phase.{current}_s"] += span.end - span.start
        heal = self.spans[top]
        out["phase.unattributed_s"] = (heal.end - heal.start) - sum(out.values())
        return out


def _per_call(busy: dict, calls: dict, name: str) -> float:
    return 1000.0 * busy[name] / calls[name] if calls.get(name) else 0.0


def _count_mb(counter: str):
    def after(tracer: Tracer, args, kwargs, result, span) -> None:
        tracer.counters[counter] += len(args[0]) / 1e6

    return after


def _record_traced_run(tracer: Tracer, args, kwargs, result, span) -> None:
    if result.kind.value == "Trapped":
        tracer.counters["tracing.trapped"] += 1
    # The last traced duration of each command, for the untraced reference.
    tracer.traced_runs[str(args[0])] = span.end - span.start


def _record_view(tracer: Tracer, args, kwargs, result, span) -> None:
    try:
        tracer.counters["symbols.view_mb"] += os.path.getsize(args[2]) / 1e6
    except OSError:
        pass
