"""Pipeline orchestration and the command-line entry points."""

import fcntl
import json
import os
import subprocess
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from cfiheal import ircensus, pipeline
from cfiheal.build import BuildKind, BuildOutcome, OrchestrationError, ProjectLock
from cfiheal.harness import FailureClass, HarnessError, TestCase, TestResult
from cfiheal.escalation import EscalationEngine
from cfiheal.ignorelist import EntryKind, IgnorelistEntry, IgnorelistStore, LadderLevel
from cfiheal.pipeline import PipelineFailure, _run_census, cli_main, heal
from cfiheal.repair import RepairLedger
from cfiheal.report import EnforcementStatus, compute_coverage
from cfiheal.symbols import Confidence, SymbolInfo, Symbolizer
from cfiheal.tracing import OutcomeKind, TraceError, TraceOutcome, TrapEvent, TrapSignal

from conftest import HAVE_GCC, copy_fixture, make_config, needs_toolchain

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


def test_census_diagnostics_sidecar_names_file_and_line(tmp_path):
    root = tmp_path / "proj"
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "odd.ll").write_text(
        "define void @f(void ()* %fp) {\nentry:\n  call void %fp\n  ret void\n}\n"
    )
    (root / "clean.ll").write_text(CENSUS_IR)
    reports = tmp_path / "reports"
    reports.mkdir()
    total, _ = _run_census(make_config(root, reports))
    assert total.fp_calls == 1
    sidecar = reports / "ir-census-diagnostics.txt"
    assert sidecar.read_text() == "odd.ll:3: call instruction without an argument list\n"


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
    total, per_function = _run_census(make_config(root, tmp_path / "reports"))
    assert len(walked) == 2
    assert (total.fp_calls, total.callback_stores) == (2, 2)
    assert per_function["driver"].total() == 4


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
    _, per_function = _run_census(make_config(root, tmp_path / "reports"))
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

LAYERS = ("run_build", "repair_until_buildable", "enumerate_tests", "run_case", "run_suite")

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

    def resolve_runtime(self, addr, regions):
        function, source = next(SYMBOLS[k] for k in SYMBOLS if k - 0x10 <= addr < k + 0x10)
        return Path("app"), addr, SymbolInfo(function, source, LINES.get(function),
                                             Confidence.DEBUGINFO)

    def resolve_runtime_many(self, addrs, regions):
        return [self.resolve_runtime(addr, regions) for addr in addrs]


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
        self.calls: Counter = Counter()
        # (layer, n) -> callable run instead of the n-th call of that layer.
        self.overrides: dict = {}
        for name in LAYERS:
            monkeypatch.setattr(pipeline, name, getattr(self, name))
        monkeypatch.setattr(pipeline, "Symbolizer", FakeSymbolizer)

    def _layer(self, name, real):
        self.calls[name] += 1
        override = self.overrides.get((name, self.calls[name]))
        return override() if override else real()

    def _build(self, mode) -> BuildOutcome:
        if mode.kind is BuildKind.CFI:
            self.built = frozenset(mode.ignorelist_path.read_text().split())
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

    def repair_until_buildable(self, cfg, mode, ledger=None, *, phase="build", planned=()):
        ledger = ledger if ledger is not None else RepairLedger()
        ledger.build_attempts += 1
        return self._layer("repair_until_buildable", lambda: (self._build(mode), ledger))

    def enumerate_tests(self, cfg):
        return self._layer("enumerate_tests", self._cases)

    def run_case(self, cfg, case):
        return self._layer("run_case", lambda: self._run(case.test_id))

    def run_suite(self, cfg, build):
        return self._layer("run_suite", lambda: [self._run(c.test_id) for c in self._cases()])

    def state(self) -> dict:
        return json.loads((self.reports / "state.json").read_text())


def violation_rows(result):
    return [
        (v.id, v.status.value, v.ladder_level.short,
         v.fixed_level.short if v.fixed_level is not None else None, v.test_ids)
        for v in result.violations
    ]


def test_rig_heals_l0_l3_and_marks_unresolvable(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    result = heal(rig.cfg, symbolizer=FakeSymbolizer())

    assert violation_rows(result) == [
        ("V1", "Fixed", "L0", "L0", ("t_l0",)),
        ("V2", "Fixed", "L3", "L3", ("t_l3",)),
        ("V3", "Unresolvable", "L5", None, ("t_unres",)),
    ]
    assert [v.attempted for v in result.violations] == [
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
    # confirmation suite runs on a build of the final list.
    assert result.ledger.build_attempts == 7
    assert rig.calls == Counter(run_build=1, repair_until_buildable=7, enumerate_tests=5,
                                run_case=9, run_suite=3)
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


def test_rig_censuses_once_per_heal(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    calls = []
    real = pipeline._run_census

    def counting(cfg):
        calls.append(rig.calls["repair_until_buildable"])
        return real(cfg)

    monkeypatch.setattr(pipeline, "_run_census", counting)
    heal(rig.cfg, symbolizer=FakeSymbolizer())
    # Once, right after the first instrumented build, and not again to account.
    assert calls == [1]


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
    result = heal(rig.cfg, symbolizer=FakeSymbolizer())
    (violation,) = result.violations
    assert (violation.status.value, violation.ladder_level.short) == ("Fixed", "L3")
    assert [line for _, line in violation.attempted] == attempted
    assert result.ledger.build_attempts == 1 + len(attempted)
    assert result.report["ignorelist"] == ["src:lib/g.c"]


def test_rig_clean_suite(tmp_path, monkeypatch):
    rig = Rig(tmp_path, monkeypatch, {"t_pass": [], "t_basefail": [trap(0x5010)]})
    result = heal(rig.cfg, symbolizer=FakeSymbolizer())
    assert result.violations == []
    assert result.ledger.build_attempts == 1
    assert rig.calls == Counter(run_build=1, repair_until_buildable=1, run_suite=3)
    assert rig.state()["phase"] == "done"
    assert rig.state()["ignorelist"] == []


@pytest.mark.parametrize(("script", "code"), [(SCRIPT, 1), ({"t_l0": SCRIPT["t_l0"]}, 0)])
def test_rig_cli_exit_codes(tmp_path, monkeypatch, capsys, script, code):
    rig = Rig(tmp_path, monkeypatch, script)
    assert cli_main(["heal", str(write_config(rig.cfg.project_root, rig.reports))]) == code
    assert "reports in" in capsys.readouterr().out


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
    result = heal(rig.cfg, symbolizer=FakeSymbolizer())
    assert violation_rows(result) == [
        ("V1", "Fixed", "L1", "L1", ("t_l0", "t_q")),
        ("V2", "Fixed", "L1", "L1", ("t_q",)),
    ]
    assert rig.calls["run_suite"] == 4
    # fun:f was V1's rung before the reopen; nothing claims it any more.
    assert result.report["ignorelist"] == ["fun:g", "fun:main"]


def test_rig_check_that_moves_keeps_its_violation(tmp_path, monkeypatch):
    # Each built entry moves m's check 4 bytes; its function, file and line
    # stay. Only fun:main, the caller's rung, suppresses it.
    script = {"t_m": [trap(0x6010, [0x1110], ["fun:main"], drift=4)]}
    rig = Rig(tmp_path, monkeypatch, script)
    result = heal(rig.cfg, symbolizer=FakeSymbolizer())
    # fun:m moved the check to 0x6014, where it trapped again: one violation,
    # climbing past fun:m, which does nothing and leaves the list.
    assert violation_rows(result) == [("V1", "Fixed", "L1", "L1", ("t_m",))]
    assert result.violations[0].attempted == [
        (LadderLevel.CALLEE_FUNCTION, "fun:m"), (LadderLevel.CALLER_FUNCTION, "fun:main"),
    ]
    assert result.report["ignorelist"] == ["fun:main"]
    assert result.report["violations"]["details"][0]["fault_pc"] == "0x6010"
    assert result.ledger.build_attempts == 3


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
            heal(rig.cfg, symbolizer=FakeSymbolizer())
    finally:
        os.close(fd)
    assert (rig.reports / "state.json").read_text() == running
    assert rig.calls == Counter()


FAILURE_SITES = {
    "baseline build": (("run_build", 1), lambda: BuildOutcome(False, None, (), (), None, 0.0)),
    "baseline suite": (("run_suite", 1), raising(HarnessError("no TEST lines"))),
    "instrumented build": (("repair_until_buildable", 1),
                           lambda: (BuildOutcome(False, None, (), (), None, 0.0), RepairLedger())),
    "instrumented suite": (("run_suite", 2), raising(TraceError("fork failed"))),
    "rebuild": (("repair_until_buildable", 2),
                lambda: (BuildOutcome(False, None, (), (), None, 0.0), RepairLedger())),
    "round enumeration": (("enumerate_tests", 1), raising(HarnessError("enumeration timed out"))),
    "round re-run": (("run_case", 1), raising(TraceError("lost the tracee"))),
    "vanished tests": (("enumerate_tests", 1), lambda: [TestCase("t_pass", "run t_pass")]),
    "confirmation suite": (("run_suite", 3), raising(HarnessError("enumeration timed out"))),
}


@pytest.mark.parametrize("site", FAILURE_SITES)
def test_rig_failure_saves_failed_state(tmp_path, monkeypatch, site):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    key, layer = FAILURE_SITES[site]
    rig.overrides[key] = layer
    with pytest.raises(PipelineFailure) as excinfo:
        heal(rig.cfg, symbolizer=FakeSymbolizer())
    state = rig.state()
    assert state["phase"] == "failed"
    assert state["reason"] == str(excinfo.value)


@pytest.mark.parametrize("exc", [HarnessError("enumeration timed out"), TraceError("lost it")])
def test_rig_cli_harness_error_in_round_exits_2(tmp_path, monkeypatch, capsys, exc):
    rig = Rig(tmp_path, monkeypatch, SCRIPT)
    rig.overrides[("run_case", 2)] = raising(exc)
    assert cli_main(["heal", str(write_config(rig.cfg.project_root, rig.reports))]) == 2
    assert str(exc) in capsys.readouterr().err
    assert rig.state()["phase"] == "failed"


class SpanSymbolizer:
    """Three functions, caller and next_fn abutting; records every address asked for."""

    SPANS = (("caller", 0x1000, 0x1040), ("next_fn", 0x1040, 0x1080), ("callee", 0x2000, 0x2040))

    def __init__(self):
        self.asked: list[int] = []

    def resolve_runtime(self, addr, regions):
        self.asked.append(addr)
        for name, start, end in self.SPANS:
            if start <= addr < end:
                return Path("app"), addr, SymbolInfo(name, "a.c", None, Confidence.DEBUGINFO)
        return None

    def resolve_runtime_many(self, addrs, regions):
        return [self.resolve_runtime(addr, regions) for addr in addrs]


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


class _NoDisassembly:
    def function_candidates(self, binary):
        raise AssertionError("the account phase must not disassemble")


class _BoundariesSymbolizer(Symbolizer):
    """The account phase's former span source: every boundary, symtab spans kept."""

    def _symtab_spans(self, binary):
        return [s for s in self.function_boundaries(binary) if s.source == "symtab"]


def test_function_records_never_disassemble(gcc_binaries):
    exes = (gcc_binaries["c"], gcc_binaries["cxx"])
    root = exes[0].parent
    cfg = make_config(root, root / "reports", executables=tuple(e.name for e in exes))
    per_function = {"alpha": ircensus.IrSiteCensus(fp_calls=2)}
    records = pipeline._function_records(
        cfg, Symbolizer(backend=_NoDisassembly()), per_function, RepairLedger()
    )
    assert records == pipeline._function_records(
        cfg, _BoundariesSymbolizer(), per_function, RepairLedger()
    )
    by_name = {r.name: r for r in records}
    assert {"alpha", "beta", "gamma_fn", "main", "twice(int)"} <= set(by_name)
    assert by_name["alpha"].call_sites == 2
    assert Path(by_name["alpha"].file).name == "sample.c"


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
    records = pipeline._function_records(cfg, Symbolizer(), {}, RepairLedger())
    expected = {"a_one": "a.c", "a_two": "a.c", "b_one": "b.c", "b_two": "b.c", "main": "b.c"}
    files = {r.name: r.file and Path(r.file).name for r in records if r.name in expected}
    assert files == expected
    coverage = compute_coverage(records, [IgnorelistEntry(EntryKind.SRC, "b.c",
                                                          level=LadderLevel.CALLEE_SOURCE)])
    ignored = {n for n, status in coverage.statuses.items() if status is EnforcementStatus.IGNORED}
    assert ignored == {"b_one", "b_two", "main"}


def test_violation_rows_spell_files_relative_to_the_project(tmp_path):
    # addr2line joins a unit's file to its compile directory.
    engine = EscalationEngine(IgnorelistStore(tmp_path / "cfi.ignorelist"), tmp_path)
    trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, 0x2010, 0x2010, (), {}, Path("app"), ())
    for pc, file in ((0x2010, tmp_path / "src" / "a.c"), (0x3010, "/usr/include/x.h")):
        callee = SymbolInfo("f", str(file), 3, Confidence.DEBUGINFO)
        engine.observe(trap, Path("app"), pc, callee, None, None, hex(pc))
    details, by_file = pipeline._violation_rows(engine)
    assert [d["file"] for d in details] == ["src/a.c", "/usr/include/x.h"]
    assert [g["file"] for g in by_file] == ["/usr/include/x.h", "src/a.c"]
