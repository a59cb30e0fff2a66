"""End-to-end healing pipeline and the command-line interface.

heal() drives the whole sequence: validate config, baseline build, the
suite's one enumeration and the baseline suite, CFI build with automatic
visibility repair (planned from the baseline's cross-DSO bindings, with the
linker's diagnostics as the fallback), the IR census of the IR present once
that build stands, the full instrumented suite, trap-driven escalation
rounds (re-running only the tests attributed to still-open violations after
each ignorelist update, and skipping the rungs whose line holds no CFI
check, as one predicate built from the census and the binaries' DWARF says),
a full-suite confirmation pass after the rounds, coverage accounting, and
report emission. Every suite and re-run takes its tests from the one
enumeration, by id. Every full instrumented suite is observed the same way:
a new or reopened violation starts more rounds, while the budget lasts, and
the last suite is the one reported. So a heal whose first instrumented
suite traps nothing runs the suite twice, baseline and instrumented, and no
round.
state.json in the report directory is rewritten after every phase
transition so an interrupted run leaves an inspectable trail.

On a process that may use two CPUs or more, the census is read ahead, by
one background thread started as soon as the project lock is held, while
the builds before it wait on their children. Those builds run make's jobs
on the same CPUs, so only a build whose targets form a chain leaves one
idle for the thread. It notes each file's byte count and CRC-32 over the
very bytes it decoded.
Once the first instrumented build stands, the files are listed and
checksummed again: the census is kept if nothing changed, and taken again
at once if anything did or the thread took none. On one CPU the census
is taken only then. Only the main thread writes the diagnostics sidecar,
and the thread is joined before heal() returns or raises.

Exit codes: 0 healed, 1 some violations stayed unresolvable, 2 the pipeline
failed or a command raised anything else, 64 a usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .build import BuildMode, BuildOutcome, OrchestrationError, ProjectLock, run_build
from .config import ConfigError, ProjectConfig, load_config, validate_config
from .escalation import (
    EscalationEngine,
    Fault,
    Violation,
    ViolationStatus,
    enforcement_name,
    link_time_suffix,
)
from .harness import (
    FailureClass,
    HarnessError,
    SuiteDiff,
    TestCase,
    TestResult,
    classify,
    diff_suites,
    enumerate_tests,
    run_cases,
    run_suite,
)
from .ignorelist import EntryKind, IgnorelistEntry, render
from .ircensus import IrSiteCensus, census_by_function, read_ir_lines
from .repair import (
    JOURNAL_NAME,
    RepairError,
    RepairLedger,
    cross_dso_bindings,
    repair_until_buildable,
    replace_file,
    revert_patches,
)
from .report import (
    CoverageCore,
    FunctionRecord,
    SCHEMA_VERSION,
    compute_coverage,
    emit_report,
    format_duration,
)
from .symbols import ResolutionError, Symbolizer, _demangle_batch
from .tracing import TraceError, TrapEvent

STATE_NAME = "state.json"
IGNORELIST_NAME = "cfi.ignorelist"


class PipelineFailure(RuntimeError):
    """The pipeline could not complete (distinct from unresolvable violations)."""


@dataclass
class HealResult:
    report: dict
    coverage: CoverageCore | None
    violations: list[Violation]
    ledger: RepairLedger
    diff: SuiteDiff
    unresolvable: int
    open_violations: int
    report_paths: list[Path] = field(default_factory=list)


def _save_state(cfg: ProjectConfig, state: dict, **changes) -> None:
    """Apply changes to state, then replace state.json with it, never leaving it half written."""
    state.update(changes)
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    replace_file(cfg.report_dir / STATE_NAME, json.dumps(state, indent=2, sort_keys=True) + "\n")


def _symbolize_trap(symbolizer: Symbolizer, trap: TrapEvent) -> Fault:
    """The trap's binary, static fault address and callee/caller/caller's-caller frames."""
    # A return address follows the call; when the call ends its function, it
    # is already the next function's first byte, so callers resolve at ret - 1.
    addrs = [trap.fault_pc] + [ret - 1 for ret in trap.return_addresses[:2]]
    hit, *frames = symbolizer.resolve_runtime_many(addrs, trap.memory_map)
    if hit is not None:
        binary, static, callee = hit
    else:
        binary = trap.binary or Path("<unknown>")
        static = trap.fault_pc
        callee = None
    callers = [frame[2] if frame else None for frame in frames] + [None, None]
    return Fault(binary, static, callee, callers[0], callers[1])


@dataclass
class _Run:
    """What the phases of one heal share once the baseline stands."""

    cfg: ProjectConfig
    symbolizer: Symbolizer
    # The suite as test_cmd enumerated it once, right after the baseline build.
    cases: dict[str, TestCase]
    baseline: dict[str, TestResult]
    engine: EscalationEngine
    ledger: RepairLedger
    # The IR census of the IR present once the first instrumented build stands.
    census: _Census


def _traps(run: _Run, results: Iterable[TestResult]) -> Iterator[tuple[str, TrapEvent, Fault]]:
    """(test id, trap, fault) for each result classify calls a CFI policy violation."""
    for result in results:
        if classify(run.baseline[result.test_id], result) is FailureClass.CFI_POLICY_VIOLATION:
            trap = result.outcome.trap
            yield result.test_id, trap, _symbolize_trap(run.symbolizer, trap)


# An IR file to census: its path, and the name its diagnostics give it.
_IrFile = tuple[Path, str]


def _listed_under(root: Path, below: Path | None = None) -> list[_IrFile]:
    """The .ll files under `below` (`root` itself by default), sorted, each named relative to `root`."""
    return [(path, str(path.relative_to(root))) for path in sorted((below or root).rglob("*.ll"))]


def _one_path_per_file(files: Iterable[_IrFile]) -> list[_IrFile]:
    """The files in order, less each later alias (symlink or hard link) of a file listed.

    A path whose stat fails stays, for the census to report it unreadable.
    """
    kept: dict[object, _IrFile] = {}
    for path, name in files:
        try:
            st = path.stat()
            key: object = (st.st_dev, st.st_ino)
        except OSError:
            key = path
        kept.setdefault(key, (path, name))
    return list(kept.values())


def _collect_ir_files(cfg: ProjectConfig) -> list[_IrFile]:
    """The project's IR outside report_dir, then report_dir's ir/ tree, named relative to each."""
    report_root = cfg.report_dir.resolve()
    files = [
        (path, name) for path, name in _listed_under(cfg.project_root)
        if report_root not in path.resolve().parents
    ]
    if (cfg.report_dir / "ir").is_dir():
        files.extend(_listed_under(cfg.report_dir, cfg.report_dir / "ir"))
    return _one_path_per_file(files)


class _Crc32Reader(io.RawIOBase):
    """A file's bytes as they are read, counted and summed by CRC-32 on the way."""

    def __init__(self, file: BinaryIO) -> None:
        self._file = file
        self.size = 0
        self.crc = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        with memoryview(buffer)[:n] as read:
            self.crc = zlib.crc32(read, self.crc)
        self.size += n
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


# What a census saw of a file: (bytes, CRC-32) of all it read, or why it could not read it all.
_Fingerprint = tuple[int, int] | str


def _fingerprint(path: Path) -> _Fingerprint:
    """The fingerprint a census reading path now would take."""
    block = bytearray(1 << 16)
    try:
        with _Crc32Reader(open(path, "rb")) as reader:
            while reader.readinto(block):
                pass
    except OSError as exc:
        return f"unreadable: {exc}"
    return reader.size, reader.crc


@dataclass
class _Census:
    """A census of the IR files, with each file's fingerprint as the census read it."""

    total: IrSiteCensus
    per_function: dict[str, IrSiteCensus]
    diagnostics: list[str]
    read: list[tuple[Path, _Fingerprint]]

    def current(self, cfg: ProjectConfig) -> bool:
        """Whether the IR files are still the ones this census read, byte for byte."""
        listed = [path for path, _ in _collect_ir_files(cfg)]
        return [path for path, _ in self.read] == listed and all(
            _fingerprint(path) == seen for path, seen in self.read
        )


def _take_census(files: Iterable[_IrFile], stop: threading.Event | None = None) -> _Census | None:
    """Census of the IR files, each streamed; a file counts once read to its end.

    Each diagnostic names its file by the name it was listed with.

    Returns None if `stop` is set before the last file is read.
    """
    totals: list[IrSiteCensus] = []
    per_function: dict[str, IrSiteCensus] = {}
    diagnostics: list[str] = []
    read: list[tuple[Path, _Fingerprint]] = []
    for path, name in files:
        if stop is not None and stop.is_set():
            return None
        sidecar: list[tuple[int, str]] = []
        try:
            reader = _Crc32Reader(open(path, "rb"))
            by_function = census_by_function(read_ir_lines(reader), sidecar)
        except OSError as exc:
            diagnostics.append(f"{name}: unreadable: {exc}\n")
            read.append((path, f"unreadable: {exc}"))
            continue
        read.append((path, (reader.size, reader.crc)))
        totals.append(IrSiteCensus.sum_of(by_function.values()))
        for function, counts in by_function.items():
            if function:
                known = per_function.get(function)
                per_function[function] = counts if known is None else known + counts
        diagnostics.extend(f"{name}:{lineno}: {reason}\n" for lineno, reason in sidecar)
    return _Census(IrSiteCensus.sum_of(totals), per_function, diagnostics, read)


class _CensusAhead(threading.Thread):
    """The census, taken in the background while the builds before it run.

    It starts only when the process may use a second CPU, and it only saves
    time: a census it did not take is taken once the build stands, where a
    real fault raises. As a context manager it starts on entry and is
    stopped and joined on exit, so no census thread outlives the block.
    """

    def __init__(self, cfg: ProjectConfig) -> None:
        super().__init__(name="cfiheal-census")
        self.cfg = cfg
        self.stop = threading.Event()
        self.census: _Census | None = None

    def run(self) -> None:
        try:
            self.census = _take_census(_collect_ir_files(self.cfg), self.stop)
        except Exception:
            # The build runs beside the walk and may remove a directory under it.
            pass

    def result(self) -> _Census | None:
        """The census taken ahead, or None if it was not taken."""
        if self.ident is not None:
            self.join()
        return self.census

    def __enter__(self) -> "_CensusAhead":
        # On one CPU the thread takes CPU from the build's compilers and the
        # GIL from heal(). On more, make's jobserver spreads a build over them
        # too, but a chain of targets still runs one job at a time.
        if len(os.sched_getaffinity(0)) < 2:
            return self
        # SIGCHLD is process-directed: one delivered to the census thread would
        # be lost to the monitor of run_traced_many, which waits for it in
        # sigtimedwait. Blocked around start(), it is in the thread's mask
        # from its first instruction.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGCHLD})
        try:
            self.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        self.result()


def _run_census(cfg: ProjectConfig, ahead: _Census | None = None) -> _Census:
    """The census of the IR files as they are now, with its diagnostics sidecar.

    A census taken `ahead` is kept only if the same files are there and each
    holds exactly the bytes it read; otherwise every file is censused again.
    """
    census = ahead if ahead is not None and ahead.current(cfg) else _take_census(_collect_ir_files(cfg))
    sidecar = cfg.report_dir / "ir-census-diagnostics.txt"
    if census.diagnostics:
        replace_file(sidecar, "".join(census.diagnostics))
    else:
        sidecar.unlink(missing_ok=True)
    return census


def _checkable_sites(counts: IrSiteCensus) -> int:
    # Indirect transfers the forward-edge checks can guard at a call site.
    return counts.fp_calls + counts.virtual_calls + counts.jt_lowered


# The CFI checks that guard only sites _checkable_sites counts. cfi-nvcall and
# the cast checks also guard sites with no indirect call.
_CENSUSED_VARIANTS = frozenset({"cfi-icall", "cfi-vcall", "cfi-mfcall"})


def _check_free(variants: Iterable[str], per_function: dict[str, IrSiteCensus]) -> frozenset[str]:
    """Names the census defines with no checkable site, summed over all their definitions.

    Empty unless every enabled variant is one whose sites the census sees.
    """
    if not set(variants) <= _CENSUSED_VARIANTS:
        return frozenset()
    return frozenset(name for name, counts in per_function.items() if not _checkable_sites(counts))


def _no_check_in_scope(
    cfg: ProjectConfig, per_function: dict[str, IrSiteCensus], symbolizer: Symbolizer
) -> Callable[[Violation, IgnorelistEntry], bool]:
    """The engine's holds_no_check: whether a violation's ignorelist entry cannot change the build.

    A fun: line cannot when the census defines its function with no
    checkable site (_check_free). A src: line cannot when every function its
    file defines, by the DWARF of the binaries the violation's trap mapped
    (the symbolizer reads only the project's), is such a function. A failed
    dump, a definition with no name or file, or a file that no unit
    compiles, such as a header, keeps the line.
    No DWARF is read when a frame of the violation that resolved in the file
    names a function the census defines with a check.
    """
    check_free = _check_free(cfg.cfi_variants, per_function)

    def holds_no_check(violation: Violation, entry: IgnorelistEntry) -> bool:
        if entry.kind is EntryKind.FUN or not check_free:
            return entry.pattern in check_free
        for frame in violation.fault.frames:
            if frame is not None and frame.source_file == entry.pattern:
                name = enforcement_name(frame.function)
                if name in per_function and name not in check_free:
                    return False
        names: set[str | None] = set()
        mapped = {r.path for r in violation.trap.memory_map if r.path and "x" in r.perms}
        for path in sorted(mapped):
            table = symbolizer.definitions_by_file(Path(path))
            if table is None:
                return False
            names |= table.get(entry.pattern, frozenset())
        return bool(names) and names <= check_free

    return holds_no_check


def _function_records(
    cfg: ProjectConfig,
    symbolizer: Symbolizer,
    per_function: dict[str, IrSiteCensus],
    ledger: RepairLedger,
) -> list[FunctionRecord]:
    from .elf import ElfError, ElfFile

    records: list[FunctionRecord] = []
    patched = {enforcement_name(s) for s in ledger.patched_symbols}
    for exe in cfg.executable_paths():
        if not exe.is_file():
            continue
        try:
            dynamic = ElfFile(exe).dynamic_symbols()
        except (ElfError, OSError):
            continue
        # Exported functions (reachable through the dynamic symbol table)
        # are the ones a default-visibility escape leaves unprotected.
        exported = {
            s.name
            for s in dynamic
            if s.name and s.is_func and s.shndx != 0 and s.visibility == "default"
        }
        spans = symbolizer.function_boundaries(exe)
        try:
            files = [i.source_file for i in symbolizer.resolve_many(exe, [s.start for s in spans])]
        except ResolutionError:
            files = [None] * len(spans)
        for span, file in zip(spans, files):
            name = enforcement_name(span.name)
            site_counts = per_function.get(span.name) or per_function.get(name)
            records.append(
                FunctionRecord(
                    name=name,
                    file=file,
                    call_sites=_checkable_sites(site_counts) if site_counts else 0,
                    visibility="default" if (name in exported or span.name in exported) else "hidden",
                    patched=name in patched,
                )
            )
    return records


def _violation_rows(engine: EscalationEngine) -> tuple[list[dict], list[dict]]:
    """Violation details and per-file counts, with function names demangled for display.

    One c++filt reads every mangled name, and none starts for C names; if
    it fails, the names stay mangled. A link-time suffix is cut off before
    demangling and appended verbatim after it.
    """
    violations = engine.all_violations()
    names = [
        enforcement_name(v.fault.callee.function) if v.fault.callee else "<unresolved>"
        for v in violations
    ]
    suffixes = [link_time_suffix(name) for name in names]
    functions, _ = _demangle_batch(
        [name[: len(name) - len(suffix)] for name, suffix in zip(names, suffixes)]
    )
    details = []
    by_file: dict[str, dict] = {}
    for violation, function, suffix in zip(violations, functions, suffixes):
        binary, static_pc, callee, _, _ = violation.fault
        file = callee.source_file if callee else None
        details.append(
            {
                "id": violation.id,
                "binary": str(binary),
                "fault_pc": hex(static_pc),
                "function": function + suffix,
                "file": file,
                "line": callee.line if callee else None,
                "status": violation.status.value,
                "level": violation.ladder_level.short,
                "tests": list(violation.test_ids),
                "attempted": [entry.line for _, entry in violation.attempted],
            }
        )
        bucket = by_file.setdefault(file or "<unknown>", {"count": 0, "tests": set()})
        bucket["count"] += 1
        bucket["tests"].update(violation.test_ids)
    grouped = [
        {"file": file, "count": data["count"], "tests": sorted(data["tests"])}
        for file, data in sorted(by_file.items(), key=lambda kv: (-kv[1]["count"], kv[0]))
    ]
    return details, grouped


def _baseline(cfg: ProjectConfig) -> tuple[dict[str, TestCase], dict[str, TestResult], list[str]]:
    """The suite and the baseline build's results, each by test id, and its cross-DSO bindings.

    The suite is enumerated here, once per heal. The bindings come from the
    files the build wrote: those not older than state.json, which heal()
    writes just before. Both times are read from the file system's clock,
    which can lag time.time().
    """
    started_ns = (cfg.report_dir / STATE_NAME).stat().st_mtime_ns
    build = run_build(cfg, BuildMode.baseline(), iteration=1)
    if not build.succeeded:
        raise PipelineFailure(f"baseline build failed; see {build.log_path}")
    planned = cross_dso_bindings(cfg.project_root, started_ns)
    cases = {case.test_id: case for case in enumerate_tests(cfg)}
    results = run_suite(cfg, build, list(cases.values()))
    return cases, {r.test_id: r for r in results}, planned


def _cfi_build(
    cfg: ProjectConfig, ignorelist: str, ledger: RepairLedger, planned: Iterable[str] = ()
) -> BuildOutcome:
    """An instrumented build with the rendered ignorelist, repaired until it stands.

    The list is written to <report_dir>/cfi.ignorelist, which only this
    function writes during a heal, so the file is the list the last
    instrumented build was made with.
    """
    path = cfg.report_dir / IGNORELIST_NAME
    replace_file(path, ignorelist)
    mode = BuildMode.cfi(cfg.cfi_variants, path)
    build, _ = repair_until_buildable(cfg, mode, ledger, planned=planned)
    if not build.succeeded:
        raise PipelineFailure(f"instrumented build could not be repaired; see {build.log_path}")
    return build


def _escalation_round(run: _Run) -> BuildOutcome | None:
    """Add each open violation's next rung, rebuild, and re-run the tests that saw it.

    Returns the rebuild, or None when no open violation had a rung left. A
    trap of a known violation only counts as a recurrence: merging the test
    into that violation would widen the set of tests its next round re-runs.
    """
    engine = run.engine
    pending = [v for v in engine.open_violations() if engine.next_scope(v) is not None]
    if not pending:
        return None
    build = _cfi_build(run.cfg, render(engine.entries()), run.ledger)
    affected = sorted({tid for v in pending for tid in v.test_ids})
    rerun = run_cases(run.cfg, [run.cases[tid] for tid in affected])
    recurred = set()
    for test_id, trap, fault in _traps(run, rerun):
        recurred.add(fault.key)
        if fault.key not in engine.violations:
            engine.observe(trap, fault, test_id)
    for violation in pending:
        engine.record_outcome(violation, violation.fault.key in recurred)
    return build


def _confirm(run: _Run, results: list[TestResult]) -> bool:
    """Observe a full suite's traps; True if a violation is new or open again."""
    reopened = False
    for test_id, trap, fault in _traps(run, results):
        violation, is_new = run.engine.observe(trap, fault, test_id)
        if is_new or (violation.status is ViolationStatus.FIXED and run.engine.reopen(violation)):
            reopened = True
    return reopened


def _account(run: _Run, diff: SuiteDiff, started: float) -> HealResult:
    """Coverage accounting from the run's census, and the emitted report."""
    cfg, engine, ledger = run.cfg, run.engine, run.ledger
    records = _function_records(cfg, run.symbolizer, run.census.per_function, ledger)
    entries = engine.entries()
    coverage = compute_coverage(records, entries)

    counts = engine.counts()
    details, by_file = _violation_rows(engine)
    duration = time.monotonic() - started
    report = {
        "schema_version": SCHEMA_VERSION,
        "duration": format_duration(duration),
        "coverage": {
            "per_function": coverage.per_function.as_dict(),
            "per_call_site": coverage.per_call_site.as_dict(),
        },
        "census": {**run.census.total.as_dict(), "total": run.census.total.total()},
        "violations": {
            "total": counts["total"],
            "fixed": counts["fixed"],
            "unresolvable": counts["unresolvable"],
            "open": counts["open"],
            "by_file": by_file,
            "details": details,
        },
        "ignorelist": [e.line for e in entries],
        "repair": {
            "patches": [
                {
                    "iteration": p.iteration,
                    "symbol": p.symbol,
                    "demangled": p.demangled,
                    "file": p.file,
                    "line": p.line,
                }
                for p in ledger.patches
            ],
            "iterations_build_phase": ledger.iterations_build_phase,
            "iterations_test_phase": ledger.iterations_test_phase,
            "skipped": [{"symbol": s, "reason": r} for s, r in ledger.skipped],
        },
        "tests": {
            "total": len(diff.per_test),
            "pass": diff.counts[FailureClass.PASS],
            "baseline_failure": diff.counts[FailureClass.BASELINE_FAILURE],
            "cfi_policy_violation": diff.counts[FailureClass.CFI_POLICY_VIOLATION],
            "functional_non_cfi": diff.counts[FailureClass.FUNCTIONAL_NON_CFI],
        },
    }
    return HealResult(
        report=report,
        coverage=coverage,
        violations=engine.all_violations(),
        ledger=ledger,
        diff=diff,
        unresolvable=counts["unresolvable"],
        open_violations=counts["open"],
        report_paths=emit_report(report, cfg.report_dir),
    )


def heal(cfg: ProjectConfig) -> HealResult:
    """Run the full healing pipeline; raises PipelineFailure on hard errors.

    A run that fails once it holds the project lock leaves state.json at
    phase "failed" with a "reason", and test harness and tracer errors
    surface as PipelineFailure; any other exception, its type and message
    the reason, is re-raised as it is. A KeyboardInterrupt or SystemExit
    there leaves it at phase "interrupted" and is re-raised.
    """
    findings = validate_config(cfg)
    if findings:
        raise PipelineFailure("invalid configuration: " + "; ".join(findings))
    symbolizer = Symbolizer(cfg.project_root)
    started = time.monotonic()
    state: dict = {}
    with ProjectLock(cfg.report_dir), _CensusAhead(cfg) as ahead:
        _save_state(cfg, state, phase="building", iteration=0)
        try:
            cases, baseline, planned = _baseline(cfg)
            ledger = RepairLedger()
            cfi_build = _cfi_build(cfg, "", ledger, planned)
            census = _run_census(cfg, ahead.result())
            holds_no_check = _no_check_in_scope(cfg, census.per_function, symbolizer)
            engine = EscalationEngine(holds_no_check)
            run = _Run(cfg, symbolizer, cases, baseline, engine, ledger, census)

            _save_state(cfg, state, phase="testing", ignorelist=[])
            results = run_suite(cfg, cfi_build, list(cases.values()))
            rounds = 0
            while _confirm(run, results) and rounds < cfg.max_repair_iterations:
                while engine.open_violations() and rounds < cfg.max_repair_iterations:
                    rounds += 1
                    cfi_build = _escalation_round(run) or cfi_build
                    _save_state(
                        cfg,
                        state,
                        iteration=rounds,
                        violations=engine.counts(),
                        ignorelist=[e.line for e in engine.entries()],
                    )
                # The last round may have dropped entries after its rebuild.
                ignorelist = render(engine.entries())
                if ignorelist != (cfg.report_dir / IGNORELIST_NAME).read_text():
                    cfi_build = _cfi_build(cfg, ignorelist, ledger)
                results = run_suite(cfg, cfi_build, list(cases.values()))

            _save_state(cfg, state, phase="reporting")
            diff = diff_suites(list(baseline.values()), results)
            result = _account(run, diff, started)
            _save_state(cfg, state, phase="done", report=result.report)
            return result
        except (KeyboardInterrupt, SystemExit):
            _save_state(cfg, state, phase="interrupted")
            raise
        except Exception as exc:
            harness = isinstance(exc, (HarnessError, TraceError))
            reason = (str(exc) if isinstance(exc, PipelineFailure)
                      else f"test harness failed: {exc}" if harness
                      else f"{type(exc).__name__}: {exc}")
            _save_state(cfg, state, phase="failed", reason=reason)
            if harness:
                raise PipelineFailure(reason) from exc
            raise


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse contract
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(64)


def _heal_command(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.revert:
        print(f"reverted {revert_patches(cfg)} visibility patch(es)")
        journal = cfg.report_dir / JOURNAL_NAME
        if journal.exists():
            left = len(journal.read_text().splitlines())
            print(f"error: {left} journal row(s) not reverted; kept in {journal}", file=sys.stderr)
            return 1
        return 0
    result = heal(cfg)
    summary = result.report["violations"]
    print(
        f"done: {summary['total']} violation(s), {summary['fixed']} fixed, "
        f"{summary['unresolvable']} unresolvable; reports in {cfg.report_dir}"
    )
    return 1 if result.unresolvable else 0


def _build_command(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.mode == "baseline":
        mode = BuildMode.baseline()
    else:
        path = cfg.report_dir / IGNORELIST_NAME
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")
        mode = BuildMode.cfi(cfg.cfi_variants, path)
    with ProjectLock(cfg.report_dir):
        outcome = run_build(cfg, mode)
    print(f"build {'succeeded' if outcome.succeeded else 'failed'}; log: {outcome.log_path}")
    for diag in outcome.diagnostics[:20]:
        print(f"  [{diag.kind.value}] {diag.symbol or diag.raw_line}")
    return 0 if outcome.succeeded else 2


def _census_command(args: argparse.Namespace) -> int:
    files: list[_IrFile] = []
    for path in args.paths:
        files.extend(_listed_under(path) if path.is_dir() else [(path, str(path))])
    if not files:
        print("error: no .ll files found", file=sys.stderr)
        return 2
    taken = _take_census(_one_path_per_file(files))
    sys.stderr.write("".join(taken.diagnostics))
    for key, value in taken.total.as_dict().items():
        print(f"{key}\t{value}")
    print(f"total\t{taken.total.total()}")
    return 0


def _report_command(args: argparse.Namespace) -> int:
    state_path: Path = args.state_dir / STATE_NAME
    if not state_path.is_file():
        print(f"error: no {STATE_NAME} in {args.state_dir}", file=sys.stderr)
        return 2
    try:
        state = json.loads(state_path.read_text())
    except ValueError as exc:
        print(f"error: {state_path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    report = state.get("report")
    if not report:
        print("error: state file has no completed report", file=sys.stderr)
        return 2
    for path in emit_report(report, args.state_dir):
        print(f"wrote {path}")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    """Run one subcommand; every exception it raises, short of an interrupt, exits 2."""
    parser = _Parser(prog="cfiheal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p_heal = sub.add_parser("heal", help="run the full healing pipeline")
    p_heal.add_argument("config", type=Path)
    p_heal.add_argument(
        "--revert",
        action="store_true",
        help="restore all journaled visibility patches and exit",
    )
    p_heal.set_defaults(run=_heal_command)

    p_build = sub.add_parser("build", help="run one build")
    p_build.add_argument("config", type=Path)
    p_build.add_argument("--mode", choices=["baseline", "cfi"], default="baseline")
    p_build.set_defaults(run=_build_command)

    p_census = sub.add_parser("census", help="census textual IR files")
    p_census.add_argument("paths", nargs="+", type=Path)
    p_census.set_defaults(run=_census_command)

    p_report = sub.add_parser("report", help="re-emit reports from a state directory")
    p_report.add_argument("state_dir", type=Path)
    p_report.set_defaults(run=_report_command)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        return args.run(args)
    except (ConfigError, RepairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (PipelineFailure, OrchestrationError) as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
    except Exception as exc:
        print(f"pipeline failure: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def main() -> None:
    raise SystemExit(cli_main())
