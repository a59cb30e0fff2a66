"""Pipeline orchestration and the command-line entry points."""

import ast
import fcntl
import json
import os
import random
import shutil
import subprocess
import signal
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cfiheal import ircensus, pipeline
from cfiheal.build import BuildKind, BuildMode, BuildOutcome, OrchestrationError, ProjectLock
from cfiheal.config import ProjectConfig
from cfiheal.harness import FailureClass, HarnessError, TestCase, TestResult
from cfiheal.escalation import EscalationEngine, Fault
from cfiheal.ignorelist import EntryKind, IgnorelistEntry, LadderLevel, parse, render
from cfiheal.pipeline import PipelineFailure, _run_census, cli_main, heal
from cfiheal.repair import RepairLedger
from cfiheal.report import EnforcementStatus, compute_coverage
from cfiheal.symbols import Confidence, SymbolInfo, Symbolizer
from cfiheal.tracing import (
    MemoryRegion,
    OutcomeKind,
    TraceError,
    TraceOutcome,
    TrapEvent,
    TrapSignal,
)

from conftest import (
    HAVE_GCC,
    SAMPLE_CXX,
    TableSymbolizer,
    copy_fixture,
    make_config,
    needs_linux,
    needs_toolchain,
    reaped,
    refuse_seize,
    unshown_fields,
)
from test_repair import cut_before_rename

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CENSUS_IR = """
define i32 @driver(i32 %x) {
entry:
  %slot = alloca i32 (i32)*, align 8
  store i32 (i32)* @work, i32 (i32)** %slot, align 8
  %fp = load i32 (i32)*, i32 (i32)** %slot, align 8
  %r = call i32 %fp(i32 %x)
  ret i32 %r
}
define i32 @work(i32 %x) { ret i32 %x }
"""
# Line 3 is a call without an argument list, which the census reports.
ODD_IR = "define void @f(void ()* %fp) {\nentry:\n  call void %fp\n  ret void\n}\n"


def test_census_diagnostics_sidecar_names_file_and_line(tmp_path):
    root = tmp_path / "proj"
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "odd.ll").write_text(ODD_IR)
    (root / "clean.ll").write_text(CENSUS_IR)
    reports = tmp_path / "reports"
    reports.mkdir()
    total = _run_census(make_config(root, reports)).total
    assert total.fp_calls == 1
    sidecar = reports / "ir-census-diagnostics.txt"
    assert sidecar.read_text() == "sub/odd.ll:3: call instruction without an argument list\n"


def test_census_diagnostics_tell_same_named_files_apart(tmp_path, capsys):
    root = tmp_path / "proj"
    reports = tmp_path / "reports"
    for where in (root / "x", root / "y", reports / "ir" / "x"):
        where.mkdir(parents=True)
        (where / "odd.ll").write_text(ODD_IR)
    _run_census(make_config(root, reports))
    reason = ":3: call instruction without an argument list\n"
    assert (reports / "ir-census-diagnostics.txt").read_text() == (
        f"x/odd.ll{reason}y/odd.ll{reason}ir/x/odd.ll{reason}"
    )
    # The CLI names each file relative to the directory given, and a file
    # given directly as it was spelled.
    assert cli_main(["census", str(root / "x"), str(root), str(reports / "ir" / "x" / "odd.ll")]) == 0
    assert capsys.readouterr().err == f"odd.ll{reason}y/odd.ll{reason}{reports}/ir/x/odd.ll{reason}"


def test_census_diagnostics_sidecar_names_an_unreadable_path(tmp_path):
    root = tmp_path / "proj"
    (root / "x.ll").mkdir(parents=True)
    (root / "clean.ll").write_text(CENSUS_IR)
    reports = tmp_path / "reports"
    reports.mkdir()
    total = _run_census(make_config(root, reports)).total
    assert total.fp_calls == 1
    sidecar = (reports / "ir-census-diagnostics.txt").read_text()
    assert sidecar.startswith("x.ll: unreadable: [Errno 21] Is a directory")
    assert sidecar.count("\n") == 1


def test_a_link_to_nothing_stays_listed_and_is_named_unreadable(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "x.ll").symlink_to(root / "absent.ll")
    (root / "clean.ll").write_text(CENSUS_IR)
    reports = tmp_path / "reports"
    reports.mkdir()
    assert _run_census(make_config(root, reports)).total.fp_calls == 1
    sidecar = (reports / "ir-census-diagnostics.txt").read_text()
    assert sidecar.startswith("x.ll: unreadable: [Errno 2] No such file or directory")


@pytest.mark.parametrize("link", [Path.symlink_to, Path.hardlink_to])
def test_an_alias_of_an_ir_file_is_censused_once(tmp_path, capsys, link):
    root = tmp_path / "proj"
    (root / "sub").mkdir(parents=True)
    (root / "a.ll").write_text(CENSUS_IR)
    cfg = make_config(root, tmp_path / "reports")
    alone = _run_census(cfg)
    assert cli_main(["census", str(root)]) == 0
    listed = capsys.readouterr().out
    link(root / "sub" / "alias.ll", root / "a.ll")
    aliased = _run_census(cfg)
    assert (aliased.total, aliased.per_function) == (alone.total, alone.per_function)
    # The first path in sorted order is the one read.
    assert [path.name for path, _ in aliased.read] == ["a.ll"]
    assert cli_main(["census", str(root), str(root / "sub" / "alias.ll")]) == 0
    assert capsys.readouterr().out == listed


def _src_rung_run(tmp_path, tables, per_function, variants=("cfi-icall",)):
    root = (tmp_path / "proj").resolve()
    (root / "bin").mkdir(parents=True)
    app, data = str(root / "bin" / "app"), str(root / "data.bin")
    regions = (
        MemoryRegion(0x1000, 0x2000, "r--p", 0, app),
        MemoryRegion(0x2000, 0x3000, "r-xp", 0x1000, app),
        MemoryRegion(0x4000, 0x5000, "r--p", 0, data),
        MemoryRegion(0x6000, 0x7000, "r-xp", 0, "/usr/lib/libc.so.6"),
        MemoryRegion(0x8000, 0x9000, "r-xp", 0, "[vdso]"),
    )
    trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, 0x2100, 0x2100, (0x2200,), {}, Path(app),
                     regions)
    symbolizer = TableSymbolizer({app: tables}, root)
    cfg = make_config(root, tmp_path / "reports", cfi_variants=variants)
    holds_no_check = pipeline._no_check_in_scope(cfg, per_function, symbolizer)
    engine = EscalationEngine()
    frames = (SymbolInfo("fail", "rt.c", 1, Confidence.DEBUGINFO),
              SymbolInfo("mid", "a.c", 2, Confidence.DEBUGINFO), None)
    violation, _ = engine.observe(trap, Fault(Path(app), 0x1100, *frames), "t")
    return holds_no_check, violation, symbolizer


def _entry(line):
    (entry,) = parse(line)
    return entry


def test_a_src_rung_reads_the_dwarf_of_the_project_binaries_the_trap_mapped(tmp_path):
    root = (tmp_path / "proj").resolve()
    checked = ircensus.IrSiteCensus(fp_calls=1)
    per_function = {"fail": ircensus.IrSiteCensus(), "mid": checked}
    table = {"rt.c": frozenset({"fail"}), "a.c": frozenset({"mid"})}
    holds_no_check, violation, symbolizer = _src_rung_run(tmp_path, table, per_function)
    assert holds_no_check(violation, _entry("src:rt.c"))
    assert symbolizer.asked == [str(root / "bin" / "app")]
    # The caller resolved in a.c names a function with a check: no DWARF is read.
    assert not holds_no_check(violation, _entry("src:a.c"))
    assert len(symbolizer.asked) == 1
    # A fun: line is decided by the census alone.
    assert holds_no_check(violation, _entry("fun:fail"))
    assert not holds_no_check(violation, _entry("fun:mid"))
    assert len(symbolizer.asked) == 1
    # Without the census's check-free names nothing is skipped, and nothing read.
    holds_no_check, violation, symbolizer = _src_rung_run(
        tmp_path / "again", table, per_function, ("cfi-icall", "cfi-nvcall")
    )
    assert not holds_no_check(violation, _entry("src:rt.c"))
    assert not holds_no_check(violation, _entry("fun:fail"))
    assert symbolizer.asked == []


def test_run_census_walks_each_file_once(tmp_path, monkeypatch):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "a.ll").write_text(CENSUS_IR)
    (root / "b.ll").write_text(CENSUS_IR)
    walked = []
    real_walk = ircensus._walk

    def counting_walk(text, diagnostics):
        walked.append(text)
        return real_walk(text, diagnostics)

    monkeypatch.setattr(ircensus, "_walk", counting_walk)
    taken = _run_census(make_config(root, tmp_path / "reports"))
    total, per_function = taken.total, taken.per_function
    assert len(walked) == 2
    assert (total.fp_calls, total.callback_stores) == (2, 2)
    assert per_function["driver"].total() == 4


def test_run_census_counts_nothing_of_a_file_that_fails_partway(tmp_path, monkeypatch):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "a.ll").write_text(CENSUS_IR)
    (root / "b.ll").write_text(CENSUS_IR + "define void @g(ptr %fp) {\n  call void %fp\n}\n")
    real_readinto = pipeline._Crc32Reader.readinto

    def failing_readinto(reader, buffer):
        n = real_readinto(reader, buffer)
        if not n and reader._file.name.endswith("b.ll"):  # every byte read, then a failure
            raise OSError(5, "Input/output error")
        return n

    monkeypatch.setattr(pipeline._Crc32Reader, "readinto", failing_readinto)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    reports = tmp_path / "reports"
    reports.mkdir()
    cfg = make_config(root, reports)
    with pipeline._CensusAhead(cfg) as ahead:
        taken = ahead.result()
        kept = _run_census(cfg, taken)
    assert (kept.total.fp_calls, kept.total.callback_stores) == (1, 1)
    assert kept.per_function["driver"].total() == 2 and "g" not in kept.per_function
    # The check fails on b.ll as the census did, so the census is kept.
    assert kept is taken
    assert taken.read[1] == (root / "b.ll", "unreadable: [Errno 5] Input/output error")
    sidecar = (reports / "ir-census-diagnostics.txt").read_text()
    assert sidecar == "b.ll: unreadable: [Errno 5] Input/output error\n"


def test_run_census_holds_one_function_not_the_whole_file(tmp_path):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(PERFBENCH))
    writer = gen.ProjectWriter(tmp_path / "bulk")
    gen._ir_bulk(writer, gen.Names(random.Random("census-memory")), 4)
    root = tmp_path / "proj"
    root.mkdir()
    with open(root / "whole.ll", "wb") as whole:  # four bulk modules as one module
        for part in sorted((tmp_path / "bulk").rglob("*.ll")):
            whole.write(part.read_bytes())
    size = (root / "whole.ll").stat().st_size
    assert size >= 4_000_000
    tracemalloc.start()
    try:
        total = _run_census(make_config(root, tmp_path / "reports")).total
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total.as_dict() == writer.census
    # Reading the file whole holds its text and its list of lines: about 4x.
    assert peak < 2 * size


def write_config(root, report_dir) -> "Path":
    # Relative paths in a config resolve against the invoking cwd, so a
    # config destined for cli_main() spells both directories absolutely.
    cfg_path = root / "cfi.yaml"
    cfg_path.write_text(
        f"project_root: {root}\n"
        "build_cmd: make app\n"
        "test_cmd: sh runtests.sh\n"
        "executables: [app]\n"
        "cfi_variants: [cfi-icall]\n"
        f"report_dir: {report_dir}\n"
        "clean_cmd: make clean\n"
        "extra_compile_flags: [-fuse-ld=lld, -g]\n"
        "test_timeout: 30\n"
    )
    return cfg_path


@needs_toolchain
def test_heal_clean_project(tmp_path):
    root = copy_fixture("hello", tmp_path / "proj")
    reports = tmp_path / "reports"
    result = heal(make_config(root, reports))

    report = result.report
    assert report["schema_version"] == "1"
    assert report["violations"] == {
        "total": 0,
        "fixed": 0,
        "unresolvable": 0,
        "open": 0,
        "by_file": [],
        "details": [],
    }
    assert report["tests"]["total"] == 2
    assert report["tests"]["pass"] == 2
    assert report["ignorelist"] == []
    assert report["repair"]["patches"] == []
    # Everything hidden, nothing ignored: full protection.
    cov = report["coverage"]["per_function"]
    assert cov["protected"] == 100.0
    assert cov["counts"]["ignored"] == 0
    assert report["census"]["total"] >= 0
    assert result.unresolvable == 0

    # Artifacts on disk.
    assert (reports / "report.json").is_file()
    assert (reports / "report.html").is_file()
    state = json.loads((reports / "state.json").read_text())
    assert state["phase"] == "done"
    assert state["report"]["schema_version"] == "1"
    emitted = json.loads((reports / "report.json").read_text())
    assert emitted == report


@needs_toolchain
def test_heal_census_from_project_emitted_ir(tmp_path):
    # A build that also emits textual IR feeds the census; the violating
    # handler and the healthy one each contribute one fp call and one store.
    root = copy_fixture("trap_l0", tmp_path / "proj")
    result = heal(
        make_config(root, tmp_path / "reports", build_cmd="make app ir")
    )
    census = result.report["census"]
    assert census["fp_calls"] == 2
    assert census["callback_stores"] == 2
    assert census["total"] == 4
    assert result.report["violations"]["fixed"] == 1
    assert result.report["ignorelist"] == ["fun:run_cb"]


@needs_toolchain
def test_heal_cli_exit_codes(tmp_path, capsys):
    root = copy_fixture("hello", tmp_path / "proj")
    cfg_path = write_config(root, tmp_path / "reports")
    rc = cli_main(["heal", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 violation(s)" in out
    assert "0 unresolvable" in out


@needs_linux
def test_a_host_that_forbids_tracing_fails_the_heal(tmp_path, monkeypatch, capsys):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "cfi.yaml").write_text(
        f"project_root: {root}\n"
        "build_cmd: cp /bin/true app\n"
        "test_cmd: printf 'TEST\\tt1\\ttrue\\n'\n"
        "executables: [app]\n"
        "cfi_variants: [cfi-icall]\n"
        f"report_dir: {tmp_path / 'reports'}\n"
    )
    refused = refuse_seize(monkeypatch)
    with pytest.raises(PipelineFailure, match="PTRACE_SEIZE failed"):
        heal(pipeline.load_config(root / "cfi.yaml"))
    assert cli_main(["heal", str(root / "cfi.yaml")]) == 2
    assert "pipeline failure: test harness failed" in capsys.readouterr().err
    state = json.loads((tmp_path / "reports" / "state.json").read_text())
    assert state["phase"] == "failed" and "PTRACE_SEIZE failed" in state["reason"]
    # The baseline suite's one test, once per heal: each shell killed and reaped.
    assert len(refused) == 2 and all(map(reaped, refused))


def test_cli_no_command_is_usage_error(capsys):
    assert cli_main([]) == 64
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["obliterate"])
    assert exc.value.code == 64


def test_cli_heal_bad_config(tmp_path, capsys):
    bad = tmp_path / "cfi.yaml"
    bad.write_text("nonsense: [\n")
    assert cli_main(["heal", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_heal_missing_config(tmp_path, capsys):
    assert cli_main(["heal", str(tmp_path / "absent.yaml")]) == 2


def test_cli_census_file(tmp_path, capsys):
    ir = tmp_path / "mod.ll"
    ir.write_text(CENSUS_IR)
    assert cli_main(["census", str(ir)]) == 0
    out = capsys.readouterr().out
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["fp_calls"] == "1"
    assert rows["callback_stores"] == "1"
    assert rows["total"] == "2"


def test_cli_census_directory_recurses(tmp_path, capsys):
    sub = tmp_path / "ir" / "deep"
    sub.mkdir(parents=True)
    (sub / "a.ll").write_text(CENSUS_IR)
    (sub / "b.ll").write_text(CENSUS_IR)
    assert cli_main(["census", str(tmp_path)]) == 0
    rows = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert rows["total"] == "4"


def test_cli_census_no_files(tmp_path, capsys):
    assert cli_main(["census", str(tmp_path)]) == 2
    assert "no .ll files" in capsys.readouterr().err


def test_cli_census_names_each_unreadable_path_as_heal_does(tmp_path, capsys):
    root = tmp_path / "ir"
    root.mkdir()
    (root / "a.ll").write_text(CENSUS_IR)
    (root / "b.ll").symlink_to(root / "absent.ll")
    (root / "d.ll").mkdir()
    assert cli_main(["census", str(root)]) == 0
    out, err = capsys.readouterr()
    assert dict(line.split("\t") for line in out.splitlines())["total"] == "2"
    assert [line.split(": ")[:2] for line in err.splitlines()] == [
        ["b.ll", "unreadable"], ["d.ll", "unreadable"]
    ]
    reports = tmp_path / "reports"
    reports.mkdir()
    _run_census(make_config(root, reports))
    assert err == (reports / "ir-census-diagnostics.txt").read_text()


def test_cli_census_names_an_unreadable_path_given_directly(tmp_path, capsys):
    (tmp_path / "a.ll").write_text(CENSUS_IR)
    (tmp_path / "b.ll").symlink_to(tmp_path / "absent.ll")
    paths = [tmp_path / "a.ll", tmp_path / "b.ll", tmp_path / "nothere.ll"]
    assert cli_main(["census", *map(str, paths)]) == 0
    out, err = capsys.readouterr()
    assert dict(line.split("\t") for line in out.splitlines())["total"] == "2"
    assert [line.split(": ")[:2] for line in err.splitlines()] == [
        [str(tmp_path / "b.ll"), "unreadable"], [str(tmp_path / "nothere.ll"), "unreadable"]
    ]


@needs_toolchain
def test_cli_build_baseline(tmp_path, capsys):
    root = copy_fixture("hello", tmp_path / "proj")
    cfg_path = write_config(root, tmp_path / "reports")
    assert cli_main(["build", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "build succeeded" in out
    assert (root / "app").is_file()


@needs_toolchain
def test_cli_build_cfi_seeds_empty_ignorelist(tmp_path, capsys):
    root = copy_fixture("hello", tmp_path / "proj")
    reports = tmp_path / "reports"
    cfg_path = write_config(root, reports)
    assert cli_main(["build", str(cfg_path), "--mode", "cfi"]) == 0
    assert (reports / "cfi.ignorelist").read_text() == ""
    assert "build succeeded" in capsys.readouterr().out


def test_cli_build_on_a_locked_project_exits_2(tmp_path, capsys):
    # run_build takes no lock; the build command holds it around the build.
    root = tmp_path / "proj"
    root.mkdir()
    reports = tmp_path / "reports"
    reports.mkdir()
    fd = os.open(ProjectLock(reports).lock_path, os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        assert cli_main(["build", str(write_config(root, reports))]) == 2
    finally:
        os.close(fd)
    assert "locked by another pipeline" in capsys.readouterr().err
    assert not list(reports.glob("build-*.log"))


def test_cli_report_reemits_from_state(tmp_path, capsys):
    report = {"schema_version": "1", "coverage": {}, "census": {},
              "tests": {}, "violations": {}, "ignorelist": [], "repair": {}}
    (tmp_path / "state.json").write_text(
        json.dumps({"phase": "done", "report": report})
    )
    assert cli_main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "report.json" in out and "report.html" in out
    assert json.loads((tmp_path / "report.json").read_text()) == report


def test_cli_report_missing_state(tmp_path, capsys):
    assert cli_main(["report", str(tmp_path)]) == 2
    assert "state.json" in capsys.readouterr().err


def test_cli_report_incomplete_state(tmp_path, capsys):
    (tmp_path / "state.json").write_text(json.dumps({"phase": "building"}))
    assert cli_main(["report", str(tmp_path)]) == 2
    assert "no completed report" in capsys.readouterr().err


def test_cli_revert_with_no_journal(tmp_path, capsys):
    root = copy_fixture("hello", tmp_path / "proj")
    cfg_path = write_config(root, tmp_path / "reports")
    assert cli_main(["heal", str(cfg_path), "--revert"]) == 0
    assert "reverted 0" in capsys.readouterr().out


def test_cli_report_truncated_state(tmp_path, capsys):
    (tmp_path / "state.json").write_text('{"phase": "done", "report": {"schema')
    assert cli_main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not valid JSON" in err
    assert "Traceback" not in err


def test_state_is_replaced_not_rewritten_in_place(tmp_path, monkeypatch):
    cfg = make_config(tmp_path / "proj", tmp_path / "reports")
    state: dict = {}
    pipeline._save_state(cfg, state, phase="building")
    before = (cfg.report_dir / "state.json").read_bytes()

    def crash(src, dst):
        raise OSError("killed before the rename")

    # A run that dies while saving leaves the previous state.json whole.
    monkeypatch.setattr(pipeline.os, "replace", crash)
    with pytest.raises(OSError):
        pipeline._save_state(cfg, state, phase="testing", filler="x" * 100_000)
    assert (cfg.report_dir / "state.json").read_bytes() == before
    monkeypatch.undo()
    pipeline._save_state(cfg, state, phase="done")
    assert json.loads((cfg.report_dir / "state.json").read_text())["phase"] == "done"
    assert sorted(p.name for p in cfg.report_dir.iterdir()) == ["state.json"]


def test_cli_revert_reports_the_rows_it_left(tmp_path, capsys):
    root = copy_fixture("hello", tmp_path / "proj")
    reports = tmp_path / "reports"
    cfg_path = write_config(root, reports)
    source = next(root.rglob("*.c"))
    reports.mkdir()
    (reports / "repair-journal.tsv").write_text(f"1\t{source.relative_to(root)}\t1\tno_such_fn\n")
    assert cli_main(["heal", str(cfg_path), "--revert"]) == 1
    out, err = capsys.readouterr()
    assert "reverted 0" in out
    assert "1 journal row(s) not reverted" in err
    assert (reports / "repair-journal.tsv").exists()

    # A journal that is not cfiheal's is a usage failure, not a traceback.
    (reports / "repair-journal.tsv").write_text("garbage row\n")
    assert cli_main(["heal", str(cfg_path), "--revert"]) == 2
    assert "error: journal line 1 is malformed" in capsys.readouterr().err


def _trivial_config(tmp_path, **keys) -> Path:
    """A config whose build copies /bin/true to app and whose suite is one test running it."""
    root = tmp_path / "proj"
    root.mkdir()
    keys = {"executables": "[app]", **keys}
    (root / "cfi.yaml").write_text(
        f"project_root: {root}\n"
        "build_cmd: cp /bin/true app\n"
        "test_cmd: printf 'TEST\\tt1\\ttrue\\n'\n"
        "cfi_variants: [cfi-icall]\n"
        f"report_dir: {tmp_path / 'reports'}\n"
        + "".join(f"{key}: {value}\n" for key, value in keys.items())
    )
    return root / "cfi.yaml"


@needs_linux
def test_an_executable_outside_the_root_fails_the_heal_inside_the_lock(tmp_path, capsys):
    (tmp_path / "outside").mkdir()
    cfg_path = _trivial_config(tmp_path, executables="[../outside/app]")
    with pytest.raises(OrchestrationError, match="^executable escapes project root"):
        heal(pipeline.load_config(cfg_path))
    assert json.loads((tmp_path / "reports" / "state.json").read_text()) == {
        "phase": "failed",
        "iteration": 0,
        "reason": "OrchestrationError: executable escapes project root: ../outside/app",
    }
    assert cli_main(["heal", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "pipeline failure: executable escapes project root: ../outside/app\n"
    )


@needs_linux
@pytest.mark.parametrize(
    ("keys", "err", "phase"),
    [
        ({"test_timeout": "1.0e+7"}, "error: test_timeout must be positive and at most", None),
        ({"executables": "[../outside/app]"}, "pipeline failure: executable escapes", "failed"),
    ],
    ids=["huge-timeout", "escaping-executable"],
)
def test_the_entry_point_exits_2_without_a_traceback(tmp_path, keys, err, phase):
    # A fresh interpreter, as the installed cfiheal script runs: a traceback
    # the interpreter prints is seen only there.
    (tmp_path / "outside").mkdir()
    cfg_path = _trivial_config(tmp_path, **keys)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "from cfiheal.pipeline import main; main()", "heal", str(cfg_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr.startswith(err)) == (2, True), proc.stderr
    assert "Traceback" not in proc.stderr
    state = tmp_path / "reports" / "state.json"
    assert (json.loads(state.read_text())["phase"] if state.exists() else None) == phase


# A static `helper` in two units, one of whose definitions makes an indirect call.
HELPER_WITH_CALL = """
define internal i32 @helper(ptr %fp, i32 %x) {
entry:
  %r = call i32 %fp(i32 %x)
  ret i32 %r
}
define i32 @plain(i32 %x) {
entry:
  ret i32 %x
}
"""
HELPER_WITHOUT = """
define internal i32 @helper(i32 %x) {
entry:
  ret i32 %x
}
define i32 @quiet(i32 %x) {
entry:
  ret i32 %x
}
declare i32 @external(i32)
"""


def test_check_free_names_sum_every_definition(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "a.ll").write_text(HELPER_WITH_CALL)
    (root / "b.ll").write_text(HELPER_WITHOUT)
    per_function = _run_census(make_config(root, tmp_path / "reports")).per_function
    free = pipeline._check_free(("cfi-icall", "cfi-vcall", "cfi-mfcall"), per_function)
    # helper holds a check in a.ll; a declared or unknown name is not known to hold none.
    assert free == {"plain", "quiet"}


@pytest.mark.parametrize(
    "variant", ["cfi-nvcall", "cfi-derived-cast", "cfi-unrelated-cast", "cfi-cast-strict", "cfi"]
)
def test_check_free_is_empty_when_a_check_guards_sites_the_census_cannot_see(variant):
    per_function = {"plain": ircensus.IrSiteCensus()}
    assert pipeline._check_free(("cfi-icall",), per_function) == {"plain"}
    assert pipeline._check_free(("cfi-icall", variant), per_function) == frozenset()


# Fake-layer heal rig. heal() runs with the five layer names pipeline
# imports replaced: every build stands unless a test breaks it, and each
# test is a script of traps. A trap fires when its condition entries are in
# the ignorelist the last CFI build was made with and none of its
# suppressing entries is; the first trap that fires ends the test. A fake
# symbolizer maps the scripted addresses to functions.

LAYERS = ("run_build", "repair_until_buildable", "enumerate_tests", "run_cases", "run_suite")

SYMBOLS = {
    0x1010: ("f", "f.c"),
    0x1110: ("main", "main.c"),
    0x2010: ("g", "lib/g.c"),
    0x2110: ("h", "lib/h.c"),
    0x3010: ("u", "u.c"),
    0x3110: ("w", "w.c"),
    0x3210: ("x", "x.c"),
    0x4010: ("q", "q.c"),
    0x5010: ("b", "b.c"),
    0x6010: ("m", "m.c"),
}
# The DWARF line of the check in each function that has one.
LINES = {"m": 7}


@dataclass(frozen=True)
class ScriptedTrap:
    pc: int
    returns: tuple[int, ...] = ()
    suppressed_by: frozenset[str] = frozenset()
    only_with: frozenset[str] = frozenset()
    # Bytes the trap moves per entry of the built list: entries shift the code.
    drift: int = 0


def trap(pc, returns=(), suppressed_by=(), only_with=(), drift=0):
    return ScriptedTrap(pc, tuple(returns), frozenset(suppressed_by), frozenset(only_with), drift)


# L0: fixed by the callee. L3: neither function rung helps and there is no
# caller's caller, so the callee's file fixes it. Unresolvable: nothing does.
# t_basefail traps under CFI but already failed its baseline run.
SCRIPT = {
    "t_pass": [],
    "t_l0": [trap(0x1010, [0x1110], ["fun:f"])],
    "t_l3": [trap(0x2010, [0x2110], ["src:lib/g.c"])],
    "t_unres": [trap(0x3010, [0x3110, 0x3210])],
    "t_basefail": [trap(0x5010)],
}


class FakeSymbolizer:
    """Each SYMBOLS address stands for a function spanning 16 bytes either side of it."""

    def __init__(self, project_root=None):
        pass

    def resolve_runtime_many(self, addrs, regions):
        found = []
        for addr in addrs:
            function, source = next(SYMBOLS[k] for k in SYMBOLS if k - 0x10 <= addr < k + 0x10)
            found.append((Path("app"), addr,
                          SymbolInfo(function, source, LINES.get(function), Confidence.DEBUGINFO)))
        return found


def raising(exc):
    def layer():
        raise exc

    return layer


class Rig:
    def __init__(self, tmp_path, monkeypatch, script):
        root = tmp_path / "proj"
        root.mkdir()
        self.reports = tmp_path / "reports"
        self.cfg = make_config(root, self.reports)
        self.script = script
        self.built: frozenset[str] | None = None  # None: the last build was the baseline
        self.engine: EscalationEngine | None = None  # the heal's, once it has one
        self.calls: Counter = Counter()
        # (layer, n) -> callable run instead of the n-th call of that layer.
        self.overrides: dict = {}
        for name in LAYERS:
            monkeypatch.setattr(pipeline, name, getattr(self, name))
        # A second CPU, so heal() reads the census ahead on any host.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pipeline, "Symbolizer", FakeSymbolizer)
        monkeypatch.setattr(pipeline, "EscalationEngine", self._engine)

    def _engine(self, *args) -> EscalationEngine:
        self.engine = EscalationEngine(*args)
        return self.engine

    def _layer(self, name, real):
        self.calls[name] += 1
        override = self.overrides.get((name, self.calls[name]))
        return override() if override else real()

    def _build(self, mode) -> BuildOutcome:
        if mode.kind is BuildKind.CFI:
            listed = mode.ignorelist_path.read_text()
            # Each instrumented build reads the list the engine holds at that moment.
            assert listed == (render(self.engine.entries()) if self.engine else "")
            self.built = frozenset(listed.split())
        else:
            self.built = None
        return BuildOutcome(True, mode, (), (), None, 0.0)

    def _cases(self):
        return [TestCase(tid, f"run {tid}") for tid in self.script]

    def _run(self, test_id) -> TestResult:
        if self.built is None:
            status = 1 if test_id == "t_basefail" else 0
            return TestResult(test_id, TraceOutcome(OutcomeKind.EXITED, exit_status=status))
        for step in self.script[test_id]:
            if step.only_with <= self.built and not step.suppressed_by & self.built:
                pc = step.pc + step.drift * len(self.built)
                event = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, pc, pc,
                                  step.returns, {}, Path("app"), ())
                return TestResult(test_id, TraceOutcome(OutcomeKind.TRAPPED, trap=event))
        return TestResult(test_id, TraceOutcome(OutcomeKind.EXITED, exit_status=0))

    def run_build(self, cfg, mode, iteration=1):
        return self._layer("run_build", lambda: self._build(mode))

    def repair_until_buildable(self, cfg, mode, ledger=None, *, planned=()):
        ledger = ledger if ledger is not None else RepairLedger()
        ledger.build_attempts += 1
        return self._layer("repair_until_buildable", lambda: (self._build(mode), ledger))

    def enumerate_tests(self, cfg):
        return self._layer("enumerate_tests", self._cases)

    def run_cases(self, cfg, cases):
        return self._layer("run_cases", lambda: [self._run(c.test_id) for c in cases])

    def run_suite(self, cfg, build, cases):
        return self._layer("run_suite", lambda: [self._run(c.test_id) for c in cases])

    def state(self) -> dict:
        return json.loads((self.reports / "state.json").read_text())


def violation_rows(result):
    return [
        (v.id, v.status.value, v.ladder_level.short, v.test_ids)
        for v in result.violations
    ]


def test_rig_heals_l0_l3_and_marks_unresolvable(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    result = heal(rig.cfg)

    assert violation_rows(result) == [
        ("V1", "Fixed", "L0", ("t_l0",)),
        ("V2", "Fixed", "L3", ("t_l3",)),
        ("V3", "Unresolvable", "L5", ("t_unres",)),
    ]
    assert [[(level, entry.line) for level, entry in v.attempted]
            for v in result.violations] == [
        [(LadderLevel.CALLEE_FUNCTION, "fun:f")],
        [(LadderLevel.CALLEE_FUNCTION, "fun:g"), (LadderLevel.CALLER_FUNCTION, "fun:h"),
         (LadderLevel.CALLEE_SOURCE, "src:lib/g.c")],
        [(LadderLevel.CALLEE_FUNCTION, "fun:u"), (LadderLevel.CALLER_FUNCTION, "fun:w"),
         (LadderLevel.CALLERS_CALLER_FUNCTION, "fun:x"), (LadderLevel.CALLEE_SOURCE, "src:u.c"),
         (LadderLevel.CALLER_SOURCE, "src:w.c")],
    ]
    assert (rig.reports / "cfi.ignorelist").read_text() == "fun:f\nsrc:lib/g.c\n"
    # One instrumented build, one rebuild per escalation round, and one more
    # because the last round retired src:w.c after its rebuild: the
    # confirmation suite runs on a build of the final list. Each round re-runs
    # its affected tests in one batch.
    assert result.ledger.build_attempts == 7
    assert rig.calls == Counter(run_build=1, repair_until_buildable=7, enumerate_tests=1,
                                run_cases=5, run_suite=3)
    assert rig.built == {"fun:f", "src:lib/g.c"}
    assert (result.unresolvable, result.open_violations) == (1, 0)
    assert result.diff.per_test["t_unres"] is FailureClass.CFI_POLICY_VIOLATION
    assert result.diff.per_test["t_basefail"] is FailureClass.BASELINE_FAILURE

    report = dict(result.report)
    assert report.pop("duration")
    assert report == {
        "schema_version": "1",
        "coverage": {
            "per_function": {"protected": 0.0, "default_visibility": 0.0, "ignored": 0.0,
                             "counts": {"protected": 0, "default_visibility": 0, "ignored": 0}},
            "per_call_site": {"protected": 0.0, "default_visibility": 0.0, "ignored": 0.0,
                              "counts": {"protected": 0, "default_visibility": 0, "ignored": 0}},
        },
        "census": {"fp_calls": 0, "virtual_calls": 0, "callback_stores": 0, "jt_switch": 0,
                   "jt_lowered": 0, "inline_asm": 0, "total": 0},
        "violations": {
            "total": 3, "fixed": 2, "unresolvable": 1, "open": 0,
            "by_file": [
                {"file": "f.c", "count": 1, "tests": ["t_l0"]},
                {"file": "lib/g.c", "count": 1, "tests": ["t_l3"]},
                {"file": "u.c", "count": 1, "tests": ["t_unres"]},
            ],
            "details": [
                {"id": "V1", "binary": "app", "fault_pc": "0x1010", "function": "f",
                 "file": "f.c", "line": None, "status": "Fixed", "level": "L0",
                 "tests": ["t_l0"], "attempted": ["fun:f"]},
                {"id": "V2", "binary": "app", "fault_pc": "0x2010", "function": "g",
                 "file": "lib/g.c", "line": None, "status": "Fixed", "level": "L3",
                 "tests": ["t_l3"], "attempted": ["fun:g", "fun:h", "src:lib/g.c"]},
                {"id": "V3", "binary": "app", "fault_pc": "0x3010", "function": "u",
                 "file": "u.c", "line": None, "status": "Unresolvable", "level": "L5",
                 "tests": ["t_unres"],
                 "attempted": ["fun:u", "fun:w", "fun:x", "src:u.c", "src:w.c"]},
            ],
        },
        "ignorelist": ["fun:f", "src:lib/g.c"],
        "repair": {"patches": [], "iterations_build_phase": 0, "iterations_test_phase": 0,
                   "skipped": []},
        "tests": {"total": 5, "pass": 3, "baseline_failure": 1, "cfi_policy_violation": 1,
                  "functional_non_cfi": 0},
    }
    assert rig.state() == {
        "phase": "done",
        "iteration": 5,
        "violations": {"total": 3, "fixed": 2, "unresolvable": 1, "open": 0},
        "ignorelist": ["fun:f", "src:lib/g.c"],
        "report": result.report,
    }


def test_rig_enumerates_the_suite_once_per_heal(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    enumerated_after = []

    def enumerate_once():
        enumerated_after.append(Counter(rig.calls))
        return rig._cases()

    rig.overrides[("enumerate_tests", 1)] = enumerate_once
    heal(rig.cfg)
    # Right after the baseline build; every suite, escalation round and the
    # confirmation take their tests from that one enumeration.
    assert enumerated_after == [Counter(run_build=1, enumerate_tests=1)]
    assert rig.calls["enumerate_tests"] == 1
    assert rig.calls["run_cases"] == 5 and rig.calls["run_suite"] == 3


def test_rig_censuses_once_per_heal(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    (rig.cfg.project_root / "a.ll").write_text(CENSUS_IR)
    taken, joined = [], []
    real_take, real_run = pipeline._take_census, pipeline._run_census

    def counting_take(cfg, stop=None):
        taken.append(threading.current_thread())
        return real_take(cfg, stop)

    def counting_run(cfg, ahead=None):
        joined.append(rig.calls["repair_until_buildable"])
        return real_run(cfg, ahead)

    monkeypatch.setattr(pipeline, "_take_census", counting_take)
    monkeypatch.setattr(pipeline, "_run_census", counting_run)
    result = heal(rig.cfg)
    # Once, in the background; kept right after the first instrumented build,
    # since the IR is unchanged, and not taken again to account.
    assert len(taken) == 1 and taken[0] is not threading.main_thread()
    assert joined == [1]
    assert result.report["census"]["total"] == 2


def _rewrite_ir(root, changes):
    """Change the IR as a build would: a.ll in place at the same length, or a new b.ll."""
    if "rewrite" in changes:
        # The store now names no function: one callback store fewer.
        text = (root / "a.ll").read_text()
        (root / "a.ll").write_text(text.replace("@work, i32", "@wor2, i32"))
        assert len((root / "a.ll").read_text()) == len(text)
    if "add" in changes:
        (root / "b.ll").write_text(NO_CHECK_IR + CENSUS_IR.replace("@", "@b_"))


@pytest.mark.parametrize("changes", [("rewrite",), ("add",), ("rewrite", "add")])
def test_rig_build_that_rewrites_the_ir_is_censused_after_it(tmp_path, monkeypatch, changes):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    root = rig.cfg.project_root
    (root / "a.ll").write_text(CENSUS_IR)
    ahead_done = threading.Event()
    real_take = pipeline._take_census

    def signalling_take(cfg, stop=None):
        try:
            return real_take(cfg, stop)
        finally:
            ahead_done.set()

    def rewriting_build():
        assert ahead_done.wait(30)  # the background census has read the old IR
        _rewrite_ir(root, changes)
        return rig._build(BuildMode.cfi(rig.cfg.cfi_variants, rig.reports / "cfi.ignorelist")), \
            RepairLedger()

    accounted = []
    real_records = pipeline._function_records

    def recording_records(cfg, symbolizer, per_function, ledger):
        accounted.append(per_function)
        return real_records(cfg, symbolizer, per_function, ledger)

    monkeypatch.setattr(pipeline, "_take_census", signalling_take)
    monkeypatch.setattr(pipeline, "_function_records", recording_records)
    rig.overrides[("repair_until_buildable", 1)] = rewriting_build
    result = heal(rig.cfg)

    fresh = real_take(pipeline._collect_ir_files(rig.cfg))
    assert fresh.total != ircensus.census(CENSUS_IR)
    assert result.report["census"] == {**fresh.total.as_dict(), "total": fresh.total.total()}
    assert accounted == [fresh.per_function]


def test_rig_clean_rerun_removes_the_previous_census_diagnostics(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, {"t_pass": []})
    (rig.cfg.project_root / "odd.ll").write_text(ODD_IR)
    sidecar = rig.reports / "ir-census-diagnostics.txt"
    heal(rig.cfg)
    assert sidecar.read_text() == "odd.ll:3: call instruction without an argument list\n"
    (rig.cfg.project_root / "odd.ll").write_text(CENSUS_IR)
    heal(rig.cfg)
    assert not sidecar.exists()


def _bulk_ir(root, modules=20):
    for m in range(modules):
        (root / f"m{m:02d}.ll").write_text(CENSUS_IR.replace("@", f"@m{m}_") * 50)


@pytest.mark.parametrize(
    "failure",
    [lambda: BuildOutcome(False, None, (), (), None, 0.0), raising(RuntimeError("make died"))],
    ids=["failed", "raised"],
)
def test_rig_failed_baseline_leaves_no_census_thread(tmp_path, monkeypatch, failure):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    _bulk_ir(rig.cfg.project_root)
    rig.overrides[("run_build", 1)] = failure
    before = threading.enumerate()
    with pytest.raises((PipelineFailure, RuntimeError)):
        heal(rig.cfg)
    assert [t for t in threading.enumerate() if t not in before] == []


def test_rig_census_runs_with_sigchld_blocked_in_its_thread(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, {"t_pass": []})
    (rig.cfg.project_root / "a.ll").write_text(CENSUS_IR)
    masks = []
    real = pipeline.census_by_function

    def recording(lines, diagnostics=None):
        masks.append((threading.current_thread(), signal.pthread_sigmask(signal.SIG_BLOCK, ())))
        return real(lines, diagnostics)

    monkeypatch.setattr(pipeline, "census_by_function", recording)
    caller_mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    heal(rig.cfg)
    ((thread, mask),) = masks
    assert thread is not threading.current_thread()
    assert signal.SIGCHLD in mask
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == caller_mask


def test_rig_census_exception_surfaces_from_heal(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, {"t_pass": []})
    (rig.cfg.project_root / "a.ll").write_text(CENSUS_IR)

    def broken(lines, diagnostics=None):
        raise ValueError("census bug")

    monkeypatch.setattr(pipeline, "census_by_function", broken)
    before = threading.enumerate()
    with pytest.raises(ValueError, match="census bug"):
        heal(rig.cfg)
    assert [t for t in threading.enumerate() if t not in before] == []
    # It surfaced from the census taken again after the first instrumented build.
    assert rig.calls["repair_until_buildable"] == 1


def test_rig_one_cpu_censuses_after_the_build_without_a_thread(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, {"t_pass": []})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    (rig.cfg.project_root / "a.ll").write_text(CENSUS_IR)
    taken = []
    real_take = pipeline._take_census

    def counting_take(cfg, stop=None):
        taken.append((threading.current_thread(), rig.calls["repair_until_buildable"]))
        return real_take(cfg, stop)

    monkeypatch.setattr(pipeline, "_take_census", counting_take)
    monkeypatch.setattr(pipeline._CensusAhead, "start", lambda self: pytest.fail("started"))
    result = heal(rig.cfg)
    assert taken == [(threading.main_thread(), 1)]
    assert result.report["census"]["total"] == 2


def test_rig_census_ahead_that_raises_is_taken_again(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, {"t_pass": []})
    (rig.cfg.project_root / "a.ll").write_text(CENSUS_IR)
    listed = []
    real_collect = pipeline._collect_ir_files

    def vanishing_collect(cfg):
        # The build removes a directory while the thread walks the tree.
        listed.append(threading.current_thread())
        if len(listed) == 1:
            raise FileNotFoundError(2, "No such file or directory", "conftest.dir")
        return real_collect(cfg)

    monkeypatch.setattr(pipeline, "_collect_ir_files", vanishing_collect)
    result = heal(rig.cfg)
    assert listed[0] is not threading.main_thread()
    assert listed[1:] == [threading.main_thread()]
    fresh = pipeline._take_census(pipeline._collect_ir_files(rig.cfg))
    assert result.report["census"] == {**fresh.total.as_dict(), "total": fresh.total.total()}
    assert json.loads((rig.reports / "state.json").read_text())["phase"] == "done"


# h, t_l3's caller, is defined without an indirect call.
NO_CHECK_IR = "define i32 @h(i32 %x) {\nentry:\n  ret i32 %x\n}\n"


@pytest.mark.parametrize(
    ("variants", "attempted"),
    [
        (("cfi-icall",), ["fun:g", "src:lib/g.c"]),
        (("cfi-icall", "cfi-nvcall"), ["fun:g", "fun:h", "src:lib/g.c"]),
    ],
)
def test_rig_skips_a_caller_rung_without_a_check(tmp_path, monkeypatch, variants, attempted):
    rig = Rig(tmp_path, monkeypatch, {"t_l3": SCRIPT["t_l3"]})
    rig.cfg = replace(rig.cfg, cfi_variants=variants)
    (rig.cfg.project_root / "h.ll").write_text(NO_CHECK_IR)
    result = heal(rig.cfg)
    (violation,) = result.violations
    assert (violation.status.value, violation.ladder_level.short) == ("Fixed", "L3")
    assert [entry.line for _, entry in violation.attempted] == attempted
    assert result.ledger.build_attempts == 1 + len(attempted)
    assert result.report["ignorelist"] == ["src:lib/g.c"]


def test_rig_clean_suite(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, {"t_pass": [], "t_basefail": [trap(0x5010)]})
    result = heal(rig.cfg)
    assert result.violations == []
    assert result.ledger.build_attempts == 1
    # The baseline suite and the first instrumented one: a suite that traps
    # nothing new is the one reported, not run again on the same build.
    assert rig.calls == Counter(run_build=1, repair_until_buildable=1, enumerate_tests=1,
                                run_suite=2)
    assert rig.state()["phase"] == "done"
    assert rig.state()["ignorelist"] == []


@pytest.mark.parametrize(("script", "code"), [(SCRIPT, 1), ({"t_l0": SCRIPT["t_l0"]}, 0)])
def test_rig_cli_exit_codes(tmp_path, monkeypatch, capsys, script, code):
    rig = Rig(tmp_path, monkeypatch, script)
    assert cli_main(["heal", str(write_config(rig.cfg.project_root, rig.reports))]) == code
    assert "reports in" in capsys.readouterr().out


def test_rig_report_page_shows_every_field_escaped(tmp_path, monkeypatch):
    # A test id with markup stands in each list of tests the report holds.
    rig = Rig(tmp_path, monkeypatch, {**SCRIPT, "t_<b>&'\"": SCRIPT["t_l0"]})
    heal(rig.cfg)
    page = (rig.reports / "report.html").read_text()
    assert unshown_fields(json.loads((rig.reports / "report.json").read_text()), page) == []
    assert "<b>" not in page and "t_&lt;b&gt;&amp;&#x27;&quot;" in page


def test_rig_report_command_re_emits_what_heal_wrote(tmp_path, monkeypatch, capsys):
    # The command renders the report state.json holds, read back from JSON.
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    heal(rig.cfg)
    names = ("report.json", "report.html")
    written = [(rig.reports / name).read_bytes() for name in names]
    for name in names:
        (rig.reports / name).unlink()
    assert cli_main(["report", str(rig.reports)]) == 0
    assert [(rig.reports / name).read_bytes() for name in names] == written


def test_rig_confirmation_reopen_releases_the_ineffective_entry(tmp_path, monkeypatch):
    # Only fun:main gets t_q past q, and from there it reaches the check V1
    # was already fixed at, through g this time. The confirmation suite is the
    # first to see that trap, so V1 reopens and fun:f no longer suppresses it.
    script = {
        "t_l0": [trap(0x1010, [0x2010], ["fun:f", "fun:g"])],
        "t_q": [trap(0x4010, [0x1110], ["fun:main"]),
                trap(0x1010, [0x2010], ["fun:g"], only_with=["fun:main"])],
    }
    rig = Rig(tmp_path, monkeypatch, script)
    result = heal(rig.cfg)
    assert violation_rows(result) == [
        ("V1", "Fixed", "L1", ("t_l0", "t_q")),
        ("V2", "Fixed", "L1", ("t_q",)),
    ]
    assert rig.calls["run_suite"] == 4
    # fun:f was V1's rung before the reopen; nothing claims it any more.
    assert result.report["ignorelist"] == ["fun:g", "fun:main"]


def test_rig_check_that_moves_keeps_its_violation(tmp_path, monkeypatch):
    # Each built entry moves m's check 4 bytes; its function, file and line
    # stay. Only fun:main, the caller's rung, suppresses it.
    script = {"t_m": [trap(0x6010, [0x1110], ["fun:main"], drift=4)]}
    rig = Rig(tmp_path, monkeypatch, script)
    result = heal(rig.cfg)
    # fun:m moved the check to 0x6014, where it trapped again: one violation,
    # climbing past fun:m, which does nothing and leaves the list.
    assert violation_rows(result) == [("V1", "Fixed", "L1", ("t_m",))]
    assert [(level, entry.line) for level, entry in result.violations[0].attempted] == [
        (LadderLevel.CALLEE_FUNCTION, "fun:m"), (LadderLevel.CALLER_FUNCTION, "fun:main"),
    ]
    assert result.report["ignorelist"] == ["fun:main"]
    assert result.report["violations"]["details"][0]["fault_pc"] == "0x6010"
    assert result.ledger.build_attempts == 3


@pytest.mark.parametrize(
    ("cxxfilt", "shown"),
    [(None, "app::step(int)"), (FileNotFoundError("c++filt"), "_ZN3app4stepEi")],
    ids=["demangled", "cxxfilt-missing"],
)
def test_rig_cxx_entry_is_mangled_and_its_report_row_demangled(
    tmp_path, monkeypatch, cxxfilt, shown
):
    # The symbol table spells C++ functions mangled, and so must fun: entries.
    monkeypatch.setitem(SYMBOLS, 0x7010, ("_ZN3app4stepEi.cfi", "step.cpp"))
    rig = Rig(tmp_path, monkeypatch, {"t_cxx": [trap(0x7010, [0x1110], ["fun:_ZN3app4stepEi"])]})
    if cxxfilt is not None:
        def missing(argv, *args, **kwargs):
            raise cxxfilt

        monkeypatch.setattr(subprocess, "run", missing)
    result = heal(rig.cfg)
    assert violation_rows(result) == [("V1", "Fixed", "L0", ("t_cxx",))]
    assert result.report["ignorelist"] == ["fun:_ZN3app4stepEi"]
    written = json.loads((rig.reports / "report.json").read_text())
    (row,) = written["violations"]["details"]
    assert (row["function"], row["attempted"]) == (shown, ["fun:_ZN3app4stepEi"])


def test_rig_locked_project_leaves_the_running_state_alone(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    rig.reports.mkdir()
    running = json.dumps({"phase": "testing", "iteration": 3})
    (rig.reports / "state.json").write_text(running)
    # Another pipeline holds the project: flock conflicts across open files.
    fd = os.open(ProjectLock(rig.reports).lock_path, os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        with pytest.raises(OrchestrationError):
            heal(rig.cfg)
    finally:
        os.close(fd)
    assert (rig.reports / "state.json").read_text() == running
    assert rig.calls == Counter()


FAILURE_SITES = {
    "baseline build": (("run_build", 1), lambda: BuildOutcome(False, None, (), (), None, 0.0)),
    "enumeration": (("enumerate_tests", 1), raising(HarnessError("no TEST lines"))),
    "baseline suite": (("run_suite", 1), raising(TraceError("lost the tracee"))),
    "instrumented build": (("repair_until_buildable", 1),
                           lambda: (BuildOutcome(False, None, (), (), None, 0.0), RepairLedger())),
    "instrumented suite": (("run_suite", 2), raising(TraceError("fork failed"))),
    "rebuild": (("repair_until_buildable", 2),
                lambda: (BuildOutcome(False, None, (), (), None, 0.0), RepairLedger())),
    "round re-run": (("run_cases", 1), raising(TraceError("lost the tracee"))),
    "confirmation suite": (("run_suite", 3), raising(HarnessError("enumeration timed out"))),
}


@pytest.mark.parametrize("site", FAILURE_SITES)
def test_rig_failure_saves_failed_state(tmp_path, monkeypatch, site):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    key, layer = FAILURE_SITES[site]
    rig.overrides[key] = layer
    with pytest.raises(PipelineFailure) as excinfo:
        heal(rig.cfg)
    state = rig.state()
    assert state["phase"] == "failed"
    assert state["reason"] == str(excinfo.value)


def test_rig_any_other_exception_saves_failed_state_and_surfaces(tmp_path, monkeypatch, capsys):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    rig.overrides[("run_build", 1)] = raising(ValueError("bad build"))
    with pytest.raises(ValueError, match="^bad build$"):
        heal(rig.cfg)
    assert rig.state() == {"phase": "failed", "iteration": 0, "reason": "ValueError: bad build"}
    rig.calls.clear()
    assert cli_main(["heal", str(write_config(rig.cfg.project_root, rig.reports))]) == 2
    assert capsys.readouterr().err == "pipeline failure: ValueError: bad build\n"


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_rig_interrupted_heal_says_so(tmp_path, monkeypatch, exc):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    # The first instrumented build is interrupted while the census may still be read ahead.
    rig.overrides[("repair_until_buildable", 1)] = raising(exc())
    with pytest.raises(exc):
        heal(rig.cfg)
    assert rig.state()["phase"] == "interrupted"
    assert "cfiheal-census" not in [thread.name for thread in threading.enumerate()]


@pytest.mark.parametrize("exc", [HarnessError("enumeration timed out"), TraceError("lost it")])
def test_rig_cli_harness_error_in_round_exits_2(tmp_path, monkeypatch, capsys, exc):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    rig.overrides[("run_cases", 2)] = raising(exc)
    assert cli_main(["heal", str(write_config(rig.cfg.project_root, rig.reports))]) == 2
    assert str(exc) in capsys.readouterr().err
    assert rig.state()["phase"] == "failed"


# Numbers at and just past every bound a config key has, and values of every YAML type.
BOUNDARY_NUMBERS = [0, 1, -1, 0.5, 2147483, 2147484, 2147483.0, 2147484.0, 1.0e10, 10**400,
                    float("nan"), float("inf"), -float("inf")]
ANY_VALUE = st.one_of(
    st.sampled_from(BOUNDARY_NUMBERS), st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=4), st.lists(st.text(max_size=4), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
DROPPED = object()  # a key left out of the document


def test_every_config_heals_or_fails_through_the_one_path(tmp_path, monkeypatch, capsys):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    monkeypatch.chdir(tmp_path)
    paths = st.sampled_from(
        ["proj", "reports", "proj/rep", "missing", ".", str(rig.cfg.project_root), str(rig.reports)]
    )
    keys = st.one_of(st.sampled_from([f.name for f in fields(ProjectConfig)]), st.integers(),
                     st.none())
    changes = st.dictionaries(keys, st.one_of(st.just(DROPPED), ANY_VALUE), max_size=1)
    faults = st.sampled_from([ValueError("bad"), OSError(5, "I/O error"),
                              HarnessError("no TEST lines"), TraceError("lost")])
    path = tmp_path / "cfg.yaml"

    @settings(max_examples=150, deadline=None)
    @given(project_root=paths, report_dir=paths,
           test_timeout=st.one_of(st.just(30), st.sampled_from(BOUNDARY_NUMBERS), st.floats()),
           budget=st.one_of(st.just(8), st.sampled_from(BOUNDARY_NUMBERS), st.integers()),
           changes=st.one_of(st.just({}), changes),
           fault=st.one_of(st.none(), st.tuples(st.sampled_from(LAYERS), faults)),
           script=st.sampled_from([SCRIPT, {"t_l0": SCRIPT["t_l0"]}]))
    def check(project_root, report_dir, test_timeout, budget, changes, fault, script):
        doc = {"project_root": project_root, "build_cmd": "make app", "test_cmd": "sh runtests.sh",
               "executables": ["app"], "cfi_variants": ["cfi-icall"], "report_dir": report_dir,
               "test_timeout": test_timeout, "max_repair_iterations": budget, **changes}
        path.write_text(yaml.safe_dump({k: v for k, v in doc.items() if v is not DROPPED}))
        for state in tmp_path.rglob("state.json"):
            state.unlink()
        rig.script, rig.engine, rig.calls, rig.overrides = script, None, Counter(), {}
        if fault is not None:
            rig.overrides[(fault[0], 1)] = raising(fault[1])
        assert cli_main(["heal", str(path)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err
        for state in tmp_path.rglob("state.json"):
            assert json.loads(state.read_text())["phase"] in ("failed", "interrupted", "done")

    check()


class SpanSymbolizer:
    """Three functions, caller and next_fn abutting; records every address asked for."""

    SPANS = (("caller", 0x1000, 0x1040), ("next_fn", 0x1040, 0x1080), ("callee", 0x2000, 0x2040))

    def __init__(self):
        self.asked: list[int] = []

    def resolve_runtime_many(self, addrs, regions):
        self.asked.extend(addrs)
        return [
            next((Path("app"), addr, SymbolInfo(name, "a.c", None, Confidence.DEBUGINFO))
                 for name, start, end in self.SPANS if start <= addr < end)
            for addr in addrs
        ]


def test_symbolize_trap_resolves_callers_at_return_address_minus_one():
    # The call into the callee is the last instruction of `caller`, so the
    # return address is the first byte of `next_fn`.
    symbolizer = SpanSymbolizer()
    event = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, 0x2010, 0x2010,
                      (0x1040, 0x1060), {}, Path("app"), ())
    binary, static, callee, caller, callers_caller = pipeline._symbolize_trap(symbolizer, event)
    assert (binary, static) == (Path("app"), 0x2010)
    assert [callee.function, caller.function, callers_caller.function] == ["callee", "caller", "next_fn"]
    assert symbolizer.asked == [0x2010, 0x103F, 0x105F]


def test_function_records_never_disassemble(gcc_binaries, monkeypatch):
    exes = (gcc_binaries["c"], gcc_binaries["cxx"], gcc_binaries["stripped"])
    root = exes[0].parent
    cfg = make_config(root, root / "reports", executables=tuple(e.name for e in exes))
    per_function = {
        "alpha": ircensus.IrSiteCensus(fp_calls=2),
        "_ZN3geo7measureERKNS_5ShapeEi": ircensus.IrSiteCensus(virtual_calls=1),
    }
    started: list[str] = []
    real = subprocess.run

    def recording_run(argv, *args, **kwargs):
        started.append(argv[0])
        return real(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording_run)
    records = pipeline._function_records(cfg, Symbolizer(), per_function, RepairLedger())
    assert started == ["addr2line", "addr2line"]  # the stripped copy has no spans and no lines
    by_name = {r.name: r for r in records}
    assert {"alpha", "beta", "gamma_fn", "main", "_ZL5twicei"} <= set(by_name)
    assert by_name["alpha"].call_sites == 2
    assert Path(by_name["alpha"].file).name == "sample.c"
    # C++ functions are named as the census keys them: mangled.
    assert by_name["_ZN3geo7measureERKNS_5ShapeEi"].call_sites == 1


@pytest.mark.skipif(not HAVE_GCC, reason="requires gcc")
def test_function_records_count_exported_cxx_functions_default(tmp_path):
    # -rdynamic exports every global function through .dynsym, mangled.
    subprocess.run(["g++", "-g", "-O0", "-rdynamic", "-o", str(tmp_path / "app"),
                    str(SAMPLE_CXX)], check=True, capture_output=True)
    cfg = make_config(tmp_path, tmp_path / "reports")
    records = pipeline._function_records(cfg, Symbolizer(), {}, RepairLedger())
    visibility = {r.name: r.visibility for r in records}
    assert visibility["_ZN3geo7measureERKNS_5ShapeEi"] == "default"
    assert visibility["_ZL5twicei"] == "hidden"  # file-local: never exported


def test_account_phase_starts_one_addr2line_per_executable(gcc_binaries, monkeypatch):
    exes = (gcc_binaries["c"], gcc_binaries["cxx"], gcc_binaries["stripped"])
    root = exes[0].parent
    cfg = make_config(root, root / "reports", executables=tuple(e.name for e in exes))
    started: list[str] = []
    real = subprocess.run

    def recording_run(argv, *args, **kwargs):
        if argv[0] == "addr2line":
            started.append(argv[argv.index("-e") + 1])
        return real(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording_run)
    records = pipeline._function_records(cfg, Symbolizer(), {}, RepairLedger())
    assert sorted(started) == sorted(str(e) for e in exes[:2])  # the stripped copy has no lines
    assert sum(r.file is not None for r in records) >= 10


TWO_TU = {
    "a.c": "int a_one(int x) { return x + 1; }\nint a_two(int x) { return a_one(x) * 2; }\n",
    "b.c": "int b_one(int x) { return x - 1; }\nint b_two(int x) { return b_one(x) * 3; }\n"
           "int a_two(int);\nint main(void) { return a_two(b_two(1)); }\n",
}


@pytest.mark.skipif(not HAVE_GCC, reason="requires gcc")
def test_src_entry_ignores_the_first_function_of_its_unit(tmp_path):
    # At -O0 gcc does not align functions, so the line sequence of b.c starts
    # where the one of a.c ends, at b_one.
    for name, text in TWO_TU.items():
        (tmp_path / name).write_text(text)
    subprocess.run(["gcc", "-g", "-O0", "-fno-omit-frame-pointer", "-o", "app", "a.c", "b.c"],
                   cwd=tmp_path, check=True, capture_output=True)
    cfg = make_config(tmp_path, tmp_path / "reports")
    records = pipeline._function_records(cfg, Symbolizer(tmp_path), {}, RepairLedger())
    expected = {"a_one": "a.c", "a_two": "a.c", "b_one": "b.c", "b_two": "b.c", "main": "b.c"}
    files = {r.name: r.file for r in records if r.name in expected}
    assert files == expected
    coverage = compute_coverage(records, [IgnorelistEntry(EntryKind.SRC, "b.c")])
    ignored = {n for n, status in coverage.statuses.items() if status is EnforcementStatus.IGNORED}
    assert ignored == {"b_one", "b_two", "main"}


def test_a_src_entry_ignores_no_function_of_a_file_outside_the_project(outside_source_app):
    # helper's file is outside the project, though its path ends in /src/a.c.
    project, _ = outside_source_app
    cfg = make_config(project, project / "reports")
    records = pipeline._function_records(cfg, Symbolizer(project), {}, RepairLedger())
    coverage = compute_coverage(records, [IgnorelistEntry(EntryKind.SRC, "src/a.c")])
    ignored = {n for n, status in coverage.statuses.items() if status is EnforcementStatus.IGNORED}
    assert ignored == {"main"}


def test_violation_rows_spell_files_relative_to_the_project(tmp_path):
    # addr2line joins a unit's file to its compile directory; the symbolizer
    # spells it relative to the project root when it lies under it.
    engine = EscalationEngine()
    spell = Symbolizer(tmp_path)._spell
    trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, 0x2010, 0x2010, (), {}, Path("app"), ())
    for pc, file in ((0x2010, tmp_path / "src" / "a.c"), (0x3010, "/usr/include/x.h")):
        callee = SymbolInfo("f", spell(str(file)), 3, Confidence.DEBUGINFO)
        engine.observe(trap, Fault(Path("app"), pc, callee, None, None), hex(pc))
    details, by_file = pipeline._violation_rows(engine)
    assert [d["file"] for d in details] == ["src/a.c", "/usr/include/x.h"]
    assert [g["file"] for g in by_file] == ["/usr/include/x.h", "src/a.c"]


@pytest.mark.skipif(shutil.which("c++filt") is None, reason="requires c++filt")
def test_violation_rows_append_a_link_time_suffix_after_demangling():
    # c++filt alone would show _ZL8stepkyuui.1 as "stepkyuu(int) [clone .1]".
    engine = EscalationEngine()
    trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, 0x2010, 0x2010, (), {}, Path("app"), ())
    names = ("_ZL8stepkyuui.1", "_ZN3app4stepEi.cfi", "engine_step.1", "_ZL3foov.__uniq.77")
    for pc, name in enumerate(names):
        callee = SymbolInfo(name, "a.cpp", pc + 1, Confidence.DEBUGINFO)
        engine.observe(trap, Fault(Path("app"), pc, callee, None, None), name)
    details, _ = pipeline._violation_rows(engine)
    assert [d["function"] for d in details] == [
        "stepkyuu(int).1",
        "app::step(int)",
        "engine_step.1",
        subprocess.run(["c++filt", "_ZL3foov.__uniq.77"], capture_output=True, text=True,
                       check=True).stdout.strip(),
    ]


def test_the_traced_benchmark_installs_its_hooks():
    # perfbench's layer trace patches cfiheal's layers by name; a renamed or
    # removed name it looks up fails its install. A fresh interpreter keeps
    # the patches out of this session.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
    proc = subprocess.run(
        [sys.executable, "-c", "from layertrace import Tracer; Tracer().install()"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _benchmark_tools() -> tuple[str, ...]:
    """The tools perfbench/run.py requires before it runs, read from its TOOLS."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TOOLS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TOOLS")


@pytest.mark.skipif(
    any(shutil.which(tool) is None for tool in _benchmark_tools()),
    reason="requires every tool the benchmark requires",
)
def test_the_traced_benchmark_heals_correctly():
    # The layer trace wraps cfiheal's layers for a whole heal: a hook that
    # installs but breaks when called shows only in a traced run.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "cxx_static", "--seed", "901",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), last


def test_an_ignorelist_write_cut_before_its_rename_leaves_the_previous_list(tmp_path, monkeypatch):
    root = tmp_path / "project"
    root.mkdir()
    cfg = make_config(root, tmp_path / "out")
    cfg.report_dir.mkdir()
    path = cfg.report_dir / pipeline.IGNORELIST_NAME
    previous = "[cfi-icall]\nfun:kept\n"
    path.write_text(previous)
    left = cut_before_rename(monkeypatch)
    with pytest.raises(OSError, match="killed before the rename"):
        pipeline._cfi_build(cfg, "[cfi-icall]\nfun:kept\nfun:added\n", RepairLedger())
    assert left and path.read_text() == previous
    assert [p.name for p in cfg.report_dir.iterdir()] == [pipeline.IGNORELIST_NAME]


def test_importing_cfiheal_loads_no_openssl():
    # OpenSSL's bindings alone add about 4 MB to every heal's peak RSS; no
    # heal needs them. A fresh interpreter sees only what the import loads.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cfiheal; print(sorted({'_hashlib', '_ssl'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_benchmark_self_check_imports():
    # perfbench/selfcheck.py imports cfiheal's internals by name, and no other
    # test runs it; a fresh interpreter imports it as its script would.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
    proc = subprocess.run(
        [sys.executable, "-c", "import selfcheck"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_a_symbolized_trap_unpacks_as_the_benchmark_self_check_reads_it():
    # perfbench/selfcheck.py unpacks _symbolize_trap's result by position.
    selfcheck = (PERFBENCH / "selfcheck.py").read_text()
    assert "_, _, callee, caller, callers_caller = _symbolize_trap(" in selfcheck
    event = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, 0x2010, 0x2010,
                      (0x1040, 0x1060), {}, Path("app"), ())
    fault = pipeline._symbolize_trap(SpanSymbolizer(), event)
    binary, static, callee, caller, callers_caller = fault
    assert (binary, static) == (fault.binary, fault.static_pc) == (Path("app"), 0x2010)
    assert (callee, caller, callers_caller) == fault.frames
    assert [f.function for f in fault.frames] == ["callee", "caller", "next_fn"]
