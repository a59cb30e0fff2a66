"""End-to-end healing pipeline and the command-line interface.

heal() drives the whole sequence: validate config, baseline build and suite,
CFI build with automatic visibility repair (planned from the baseline's
cross-DSO bindings, with the linker's diagnostics as the fallback), the IR
census, taken once that build stands, trap-driven escalation rounds
(re-running only the tests attributed to still-open violations after each
ignorelist update, and skipping fun: rungs the census shows hold no check),
a full-suite confirmation pass, coverage accounting, and report emission.
state.json in the report directory is rewritten after every phase
transition so an interrupted run leaves an inspectable trail.

Exit codes of the heal subcommand: 0 when the run completes with no
unresolvable violations, 1 when it completes but some violations stayed
unresolvable, 2 when the pipeline itself failed. Usage errors exit 64.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .build import BuildMode, BuildOutcome, OrchestrationError, ProjectLock, run_build
from .config import ConfigError, ProjectConfig, load_config, validate_config
from .escalation import EscalationEngine, Violation, ViolationKey, ViolationStatus
from .escalation import _relative_file, enforcement_name, violation_key
from .harness import (
    FailureClass,
    HarnessError,
    SuiteDiff,
    TestResult,
    diff_suites,
    enumerate_tests,
    run_case,
    run_suite,
)
from .ignorelist import IgnorelistStore
from .ircensus import IrSiteCensus, census, census_by_function
from .repair import RepairLedger, cross_dso_bindings, repair_until_buildable, revert_patches
from .report import (
    CoverageCore,
    FunctionRecord,
    compute_coverage,
    emit_report,
    format_duration,
)
from .symbols import ResolutionError, SymbolInfo, Symbolizer
from .tracing import TraceError, TrapEvent

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


def _symbolize_trap(
    symbolizer: Symbolizer, trap: TrapEvent
) -> tuple[Path, int, SymbolInfo | None, SymbolInfo | None, SymbolInfo | None]:
    """Fault key plus callee/caller/caller's-caller identities (None = unknown)."""
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
    # The IR census, totals and per function, taken once the first
    # instrumented build stands.
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
            yield result.test_id, trap, _symbolize_trap(run.symbolizer, trap)


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


def _run_census(cfg: ProjectConfig) -> tuple[IrSiteCensus, dict[str, IrSiteCensus]]:
    total = IrSiteCensus()
    per_function: dict[str, IrSiteCensus] = {}
    diagnostics: list[str] = []
    for path in _collect_ir_files(cfg):
        try:
            text = path.read_text(errors="replace")
        except OSError:
            continue
        sidecar: list[tuple[int, str]] = []
        for name, counts in census_by_function(text, sidecar).items():
            total = total + counts
            if name:
                per_function[name] = per_function.get(name, IrSiteCensus()) + counts
        diagnostics.extend(f"{path.name}:{lineno}: {reason}\n" for lineno, reason in sidecar)
    if diagnostics:
        (cfg.report_dir / "ir-census-diagnostics.txt").write_text("".join(diagnostics))
    return total, per_function


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
    details = []
    by_file: dict[str, dict] = {}
    for violation in engine.all_violations():
        callee = violation.callee
        file = _relative_file(callee, engine.project_root)
        function = enforcement_name(callee.function) if callee else "<unresolved>"
        details.append(
            {
                "id": violation.id,
                "binary": str(violation.binary),
                "fault_pc": hex(violation.static_fault_pc),
                "function": function,
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
    rerun = [run_case(run.cfg, cases[tid]) for tid in affected]
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
    with ProjectLock(cfg.report_dir):
        _save_state(cfg, state, phase="building", iteration=0)
        try:
            baseline, planned = _baseline(cfg)
            store = IgnorelistStore(cfg.report_dir / "cfi.ignorelist")
            engine = EscalationEngine(store, cfg.project_root)
            run = _Run(cfg, symbolizer, baseline, engine, RepairLedger())
            cfi_build = _cfi_build(run, "build", planned)
            run.census = _run_census(cfg)
            engine.check_free = _check_free(cfg.cfi_variants, run.census[1])

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
        total = IrSiteCensus()
        for path in files:
            total = total + census(path.read_text(errors="replace"))
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
