"""End-to-end healing pipeline and the command-line interface.

heal() drives the whole sequence: validate config, baseline build and suite,
CFI build with automatic visibility repair (planned from the baseline's
cross-DSO bindings, with the linker's diagnostics as the fallback), the IR
census of the IR present once that build stands, trap-driven escalation rounds
(re-running only the tests attributed to still-open violations after each
ignorelist update, and skipping fun: rungs the census shows hold no check,
and src: rungs whose file, by the binary's DWARF, defines only such functions),
a full-suite confirmation pass, coverage accounting, and report emission.
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

Exit codes of the heal subcommand: 0 when the run completes with no
unresolvable violations, 1 when it completes but some violations stayed
unresolvable, 2 when the pipeline itself failed. Usage errors exit 64.
"""

from __future__ import annotations

import argparse
import functools
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
from typing import BinaryIO, Iterable, Iterator

from .build import BuildMode, BuildOutcome, OrchestrationError, ProjectLock, run_build
from .config import ConfigError, ProjectConfig, load_config, validate_config
from .escalation import (
    EscalationEngine,
    Violation,
    ViolationKey,
    ViolationStatus,
    _relative_file,
    enforcement_name,
    file_holds_no_check,
    link_time_suffix,
    violation_key,
)
from .harness import (
    FailureClass,
    HarnessError,
    SuiteDiff,
    TestResult,
    diff_suites,
    enumerate_tests,
    run_cases,
    run_suite,
)
from .ignorelist import IgnorelistStore
from .ircensus import IrSiteCensus, census, census_by_function, read_ir_lines
from .repair import RepairLedger, cross_dso_bindings, repair_until_buildable, revert_patches
from .report import (
    CoverageCore,
    FunctionRecord,
    compute_coverage,
    emit_report,
    format_duration,
)
from .symbols import Confidence, ResolutionError, SymbolInfo, Symbolizer, _demangle_batch
from .tracing import TraceError, TrapEvent, region_for

STATE_NAME = "state.json"


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
    """Apply changes to state, then rewrite state.json from it."""
    state.update(changes)
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.report_dir / STATE_NAME
    path.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n")


def _outside_frame(
    trap: TrapEvent, address: int, root: Path | None
) -> tuple[Path, int, SymbolInfo] | None:
    """A frame for an address mapped from a binary outside `root`, left unresolved; else None.

    The frame keeps the runtime address and is labelled with the binary's
    file name. Pseudo-mappings such as ``[vdso]`` lie outside every project.
    """
    region = region_for(trap.memory_map, address)
    if root is None or region is None or region.path is None or _in_project(region.path, root):
        return None
    path = Path(region.path)
    return path, address, SymbolInfo(path.name, None, None, Confidence.OUTSIDE_PROJECT)


def _in_project(path: str, root: Path) -> bool:
    """Whether a mapping's path names a file under the resolved `root`."""
    return Path(path).is_absolute() and Path(path).resolve().is_relative_to(root)


def _symbolize_trap(
    symbolizer: Symbolizer, trap: TrapEvent, *, project_root: Path | None = None
) -> tuple[Path, int, SymbolInfo | None, SymbolInfo | None, SymbolInfo | None]:
    """Fault key plus callee/caller/caller's-caller identities (None = unknown).

    Given `project_root`, a frame mapped from a binary outside it is not
    resolved, so that binary gets no view: its identity is the binary's
    file name at confidence OutsideProject.
    """
    # A return address follows the call; when the call ends its function, it
    # is already the next function's first byte, so callers resolve at ret - 1.
    addrs = [trap.fault_pc] + [ret - 1 for ret in trap.return_addresses[:2]]
    root = project_root.resolve() if project_root is not None else None
    outside = [_outside_frame(trap, address, root) for address in addrs]
    inside = iter(symbolizer.resolve_runtime_many(
        [address for address, frame in zip(addrs, outside) if frame is None], trap.memory_map
    ))
    hit, *frames = [frame or next(inside) for frame in outside]
    if hit is not None:
        binary, static, callee = hit
    else:
        binary = trap.binary or Path("<unknown>")
        static = trap.fault_pc
        callee = None
    callers = [frame[2] if frame else None for frame in frames] + [None, None]
    return binary, static, callee, callers[0], callers[1]


@dataclass
class _Run:
    """What the phases of one heal share once the baseline stands."""

    cfg: ProjectConfig
    symbolizer: Symbolizer
    baseline: dict[str, TestResult]
    engine: EscalationEngine
    ledger: RepairLedger
    # The rendered ignorelist the last instrumented build was made with.
    built_list: str | None = None
    # The IR census, totals and per function, of the IR present once the
    # first instrumented build stands.
    census: tuple[IrSiteCensus, dict[str, IrSiteCensus]] | None = None


def _traps(run: _Run, results: Iterable[TestResult]) -> Iterator[tuple[str, TrapEvent, tuple]]:
    """(test id, trap, symbolized fault) for each CFI trap in a test whose baseline passed.

    The symbolized fault is what _symbolize_trap returns, the arguments
    EscalationEngine.observe takes between the trap and the test id.
    """
    for result in results:
        base = run.baseline.get(result.test_id)
        if base is not None and base.passed and result.cfi_trapped:
            trap = result.outcome.trap
            yield result.test_id, trap, _symbolize_trap(
                run.symbolizer, trap, project_root=run.cfg.project_root
            )


def _collect_ir_files(cfg: ProjectConfig) -> list[Path]:
    report_root = cfg.report_dir.resolve()
    files = []
    for path in sorted(cfg.project_root.rglob("*.ll")):
        if report_root in path.resolve().parents:
            continue
        files.append(path)
    extra = cfg.report_dir / "ir"
    if extra.is_dir():
        files.extend(sorted(extra.rglob("*.ll")))
    return files


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
        return [path for path, _ in self.read] == _collect_ir_files(cfg) and all(
            _fingerprint(path) == seen for path, seen in self.read
        )


def _take_census(cfg: ProjectConfig, stop: threading.Event | None = None) -> _Census | None:
    """Census of every IR file, each streamed; a file counts once read to its end.

    Returns None if `stop` is set before the last file is read.
    """
    totals: list[IrSiteCensus] = []
    per_function: dict[str, IrSiteCensus] = {}
    diagnostics: list[str] = []
    read: list[tuple[Path, _Fingerprint]] = []
    for path in _collect_ir_files(cfg):
        if stop is not None and stop.is_set():
            return None
        sidecar: list[tuple[int, str]] = []
        try:
            reader = _Crc32Reader(open(path, "rb"))
            by_function = census_by_function(read_ir_lines(reader), sidecar)
        except OSError as exc:
            diagnostics.append(f"{path.name}: unreadable: {exc}\n")
            read.append((path, f"unreadable: {exc}"))
            continue
        read.append((path, (reader.size, reader.crc)))
        totals.append(IrSiteCensus.sum_of(by_function.values()))
        for name, counts in by_function.items():
            if name:
                known = per_function.get(name)
                per_function[name] = counts if known is None else known + counts
        diagnostics.extend(f"{path.name}:{lineno}: {reason}\n" for lineno, reason in sidecar)
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
            self.census = _take_census(self.cfg, self.stop)
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


def _run_census(
    cfg: ProjectConfig, ahead: _Census | None = None
) -> tuple[IrSiteCensus, dict[str, IrSiteCensus]]:
    """The census of the IR files as they are now, with its diagnostics sidecar.

    A census taken `ahead` is kept only if the same files are there and each
    holds exactly the bytes it read; otherwise every file is censused again.
    """
    census = ahead if ahead is not None and ahead.current(cfg) else _take_census(cfg)
    sidecar = cfg.report_dir / "ir-census-diagnostics.txt"
    if census.diagnostics:
        sidecar.write_text("".join(census.diagnostics))
    else:
        sidecar.unlink(missing_ok=True)
    return census.total, census.per_function


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


def _file_check_free(run: _Run, violation: Violation, file: str) -> bool:
    """Whether the violation's src: rung on `file` cannot change the build.

    It cannot when every function the file defines, by the DWARF of the
    project binaries the violation's trap mapped, is one the census shows
    holds no check. No DWARF is read when a frame of the violation that
    resolved in the file names a function the census defines with a check.
    """
    check_free = run.engine.check_free
    if not check_free:
        return False
    root = run.cfg.project_root.resolve()
    for frame in (violation.callee, violation.caller, violation.callers_caller):
        if _relative_file(frame, root) == file:
            name = enforcement_name(frame.function)
            if name in run.census[1] and name not in check_free:
                return False
    mapped = {r.path for r in violation.trap.memory_map if r.path and "x" in r.perms}
    tables = (
        run.symbolizer.definitions_by_file(Path(path))
        for path in sorted(mapped)
        if _in_project(path, root)
    )
    return file_holds_no_check(str(root / file), tables, check_free)


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
            elf = ElfFile(exe)
        except (ElfError, OSError):
            continue
        # Exported functions (reachable through the dynamic symbol table)
        # are the ones a default-visibility escape leaves unprotected.
        exported = {
            s.name
            for s in elf.dynamic_symbols()
            if s.name and s.is_func and s.shndx != 0 and s.visibility == "default"
        }
        spans = symbolizer._symtab_spans(exe)
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
        enforcement_name(v.callee.function) if v.callee else "<unresolved>" for v in violations
    ]
    suffixes = [link_time_suffix(name) for name in names]
    functions, _ = _demangle_batch(
        [name[: len(name) - len(suffix)] for name, suffix in zip(names, suffixes)]
    )
    details = []
    by_file: dict[str, dict] = {}
    for violation, function, suffix in zip(violations, functions, suffixes):
        callee = violation.callee
        file = _relative_file(callee, engine.project_root)
        details.append(
            {
                "id": violation.id,
                "binary": str(violation.binary),
                "fault_pc": hex(violation.static_fault_pc),
                "function": function + suffix,
                "file": file,
                "line": callee.line if callee else None,
                "status": violation.status.value,
                "level": violation.ladder_level.short,
                "tests": list(violation.test_ids),
                "attempted": [line for _, line in violation.attempted],
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


def _baseline(cfg: ProjectConfig) -> tuple[dict[str, TestResult], list[str]]:
    """The uninstrumented build's suite results by test id, and its cross-DSO bindings.

    The bindings come from the files the build wrote: those not older than
    state.json, which heal() writes just before. Both times are read from
    the file system's clock, which can lag time.time().
    """
    started_ns = (cfg.report_dir / STATE_NAME).stat().st_mtime_ns
    build = run_build(cfg, BuildMode.baseline(), iteration=1)
    if not build.succeeded:
        raise PipelineFailure(f"baseline build failed; see {build.log_path}")
    planned = cross_dso_bindings(cfg.project_root, started_ns)
    return {r.test_id: r for r in run_suite(cfg, build)}, planned


def _cfi_build(run: _Run, phase: str, planned: Iterable[str] = ()) -> BuildOutcome:
    """An instrumented build, repaired until it stands; phase is repair's "build" or "test"."""
    mode = BuildMode.cfi(run.cfg.cfi_variants, run.engine.store.path)
    run.built_list = run.engine.store.write()
    build, _ = repair_until_buildable(run.cfg, mode, run.ledger, phase=phase, planned=planned)
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
    build = _cfi_build(run, "test")
    affected = sorted({tid for v in pending for tid in v.test_ids})
    cases = {c.test_id: c for c in enumerate_tests(run.cfg)}
    missing = [tid for tid in affected if tid not in cases]
    if missing:
        raise PipelineFailure(f"tests disappeared from enumeration during healing: {missing}")
    rerun = run_cases(run.cfg, [cases[tid] for tid in affected])
    recurred: set[ViolationKey] = set()
    for test_id, trap, fault in _traps(run, rerun):
        key = violation_key(*fault[:3])
        recurred.add(key)
        if key not in engine.violations:
            engine.observe(trap, *fault, test_id)
    for violation in pending:
        engine.record_outcome(violation, violation.key in recurred)
    return build


def _confirm(run: _Run, results: list[TestResult]) -> bool:
    """Observe the full suite's traps; True if a violation is new or open again."""
    reopened = False
    for test_id, trap, fault in _traps(run, results):
        violation, is_new = run.engine.observe(trap, *fault, test_id)
        if is_new or (violation.status is ViolationStatus.FIXED and run.engine.reopen(violation)):
            reopened = True
    return reopened


def _account(run: _Run, diff: SuiteDiff, started: float) -> HealResult:
    """Coverage accounting from the run's census, and the emitted report."""
    cfg, engine, ledger = run.cfg, run.engine, run.ledger
    census_total, per_function = run.census
    records = _function_records(cfg, run.symbolizer, per_function, ledger)
    coverage = compute_coverage(records, engine.store.active_entries())

    counts = engine.counts()
    details, by_file = _violation_rows(engine)
    duration = time.monotonic() - started
    report = {
        "schema_version": "1",
        "duration": format_duration(duration),
        "coverage": {
            "per_function": coverage.per_function.as_dict(),
            "per_call_site": coverage.per_call_site.as_dict(),
        },
        "census": {**census_total.as_dict(), "total": census_total.total()},
        "violations": {
            "total": counts["total"],
            "fixed": counts["fixed"],
            "unresolvable": counts["unresolvable"],
            "open": counts["open"],
            "by_file": by_file,
            "details": details,
        },
        "ignorelist": [e.line for e in engine.store.active_entries()],
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


def heal(cfg: ProjectConfig, *, symbolizer: Symbolizer | None = None) -> HealResult:
    """Run the full healing pipeline; raises PipelineFailure on hard errors.

    A run that fails once it holds the project lock leaves state.json at
    phase "failed", with the PipelineFailure message as "reason"; test
    harness and tracer errors from any phase surface as PipelineFailure.
    """
    findings = validate_config(cfg)
    if findings:
        raise PipelineFailure("invalid configuration: " + "; ".join(findings))
    symbolizer = symbolizer or Symbolizer()
    started = time.monotonic()
    state: dict = {}
    with ProjectLock(cfg.report_dir), _CensusAhead(cfg) as ahead:
        _save_state(cfg, state, phase="building", iteration=0)
        try:
            baseline, planned = _baseline(cfg)
            store = IgnorelistStore(cfg.report_dir / "cfi.ignorelist")
            engine = EscalationEngine(store, cfg.project_root)
            run = _Run(cfg, symbolizer, baseline, engine, RepairLedger())
            cfi_build = _cfi_build(run, "build", planned)
            run.census = _run_census(cfg, ahead.result())
            engine.check_free = _check_free(cfg.cfi_variants, run.census[1])
            engine.file_check_free = functools.partial(_file_check_free, run)

            _save_state(cfg, state, phase="testing", ignorelist=[])
            for test_id, trap, fault in _traps(run, run_suite(cfg, cfi_build)):
                engine.observe(trap, *fault, test_id)

            rounds = 0
            while True:
                while engine.open_violations() and rounds < cfg.max_repair_iterations:
                    rounds += 1
                    cfi_build = _escalation_round(run) or cfi_build
                    _save_state(
                        cfg,
                        state,
                        iteration=rounds,
                        violations=engine.counts(),
                        ignorelist=[e.line for e in store.active_entries()],
                    )
                # The last round may have dropped entries after its rebuild.
                if store.render() != run.built_list:
                    cfi_build = _cfi_build(run, "test")
                final_results = run_suite(cfg, cfi_build)
                if not _confirm(run, final_results) or rounds >= cfg.max_repair_iterations:
                    break

            _save_state(cfg, state, phase="reporting")
            diff = diff_suites(list(baseline.values()), final_results)
            result = _account(run, diff, started)
            _save_state(cfg, state, phase="done", report=result.report)
            return result
        except (PipelineFailure, HarnessError, TraceError) as exc:
            reason = str(exc) if isinstance(exc, PipelineFailure) else f"test harness failed: {exc}"
            _save_state(cfg, state, phase="failed", reason=reason)
            raise PipelineFailure(reason) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse contract
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(64)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cfiheal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p_heal = sub.add_parser("heal", help="run the full healing pipeline")
    p_heal.add_argument("config", type=Path)
    p_heal.add_argument(
        "--revert",
        action="store_true",
        help="restore all journaled visibility patches and exit",
    )

    p_build = sub.add_parser("build", help="run one build")
    p_build.add_argument("config", type=Path)
    p_build.add_argument("--mode", choices=["baseline", "cfi"], default="baseline")

    p_census = sub.add_parser("census", help="census textual IR files")
    p_census.add_argument("paths", nargs="+", type=Path)

    p_report = sub.add_parser("report", help="re-emit reports from a state directory")
    p_report.add_argument("state_dir", type=Path)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 64

    if args.command == "heal":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.revert:
            removed = revert_patches(cfg)
            print(f"reverted {removed} visibility patch(es)")
            return 0
        try:
            result = heal(cfg)
        except (PipelineFailure, OrchestrationError) as exc:
            print(f"pipeline failure: {exc}", file=sys.stderr)
            return 2
        summary = result.report["violations"]
        print(
            f"done: {summary['total']} violation(s), {summary['fixed']} fixed, "
            f"{summary['unresolvable']} unresolvable; reports in {cfg.report_dir}"
        )
        return 1 if result.unresolvable else 0

    if args.command == "build":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.mode == "baseline":
            mode = BuildMode.baseline()
        else:
            path = cfg.report_dir / "cfi.ignorelist"
            if not path.exists():
                IgnorelistStore(path).write()
            mode = BuildMode.cfi(cfg.cfi_variants, path)
        try:
            with ProjectLock(cfg.report_dir):
                outcome = run_build(cfg, mode)
        except OrchestrationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"build {'succeeded' if outcome.succeeded else 'failed'}; log: {outcome.log_path}")
        for diag in outcome.diagnostics[:20]:
            print(f"  [{diag.kind.value}] {diag.symbol or diag.raw_line}")
        return 0 if outcome.succeeded else 2

    if args.command == "census":
        files: list[Path] = []
        for path in args.paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.ll")))
            elif path.is_file():
                files.append(path)
        if not files:
            print("error: no .ll files found", file=sys.stderr)
            return 2
        total = IrSiteCensus.sum_of(census(read_ir_lines(path)) for path in files)
        for key, value in total.as_dict().items():
            print(f"{key}\t{value}")
        print(f"total\t{total.total()}")
        return 0

    if args.command == "report":
        state_path: Path = args.state_dir / STATE_NAME
        if not state_path.is_file():
            print(f"error: no {STATE_NAME} in {args.state_dir}", file=sys.stderr)
            return 2
        state = json.loads(state_path.read_text())
        report = state.get("report")
        if not report:
            print("error: state file has no completed report", file=sys.stderr)
            return 2
        for path in emit_report(report, args.state_dir):
            print(f"wrote {path}")
        return 0

    parser.print_usage(sys.stderr)
    return 64


def main() -> None:
    raise SystemExit(cli_main())
