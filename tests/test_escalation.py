"""Ladder state machine: rung selection, dedup, retirement, minimality."""

from pathlib import Path

import pytest

from cfiheal import pipeline
from cfiheal.escalation import EscalationEngine, Fault, ViolationStatus, enforcement_name
from cfiheal.ignorelist import EntryKind, LadderLevel, render
from cfiheal.ircensus import IrSiteCensus
from cfiheal.symbols import Confidence, SymbolInfo, Symbolizer
from cfiheal.tracing import MemoryRegion, TrapEvent, TrapSignal

from conftest import TableSymbolizer, make_config


@pytest.mark.parametrize(
    ("decorated", "plain"),
    [
        ("handler", "handler"),
        ("handler.cfi", "handler"),
        ("handler.cfi_jt", "handler"),
        ("handler.llvm.123456", "handler"),
        ("handler.cfi.llvm.99", "handler"),
        # Link-time collision suffixes are part of the name, not a decoration.
        ("engine_step.1", "engine_step.1"),
        ("x.2.cfi", "x.2"),
        (".cfi", ".cfi"),
        # C++ names keep their mangled spelling: that is what fun: matches.
        ("_ZN1a1fEv.cfi", "_ZN1a1fEv"),
        ("_ZL8stepheiyi.1.cfi_jt", "_ZL8stepheiyi.1"),
    ],
)
def test_enforcement_name(decorated, plain):
    assert enforcement_name(decorated) == plain


def info(function: str, source: str | None = None, line: int | None = None) -> SymbolInfo:
    conf = Confidence.DEBUGINFO if source else Confidence.SYMBOL_TABLE
    return SymbolInfo(function=function, source_file=source, line=line, confidence=conf)


def trap_at(pc: int, memory_map: tuple[MemoryRegion, ...] = ()) -> TrapEvent:
    return TrapEvent(
        signal=TrapSignal.ILLEGAL_INSTRUCTION,
        raw_pc=pc,
        fault_pc=pc,
        return_addresses=(),
        registers={},
        binary=Path("app"),
        memory_map=memory_map,
    )


def functions_without_checks(names):
    """A holds_no_check that answers True for the fun: lines of `names` only."""
    lines = {f"fun:{name}" for name in names}
    return lambda violation, entry: entry.line in lines


def census_predicate(root: Path, check_free, tables=None):
    """heal()'s holds_no_check, for a census that defines `check_free` without a check."""
    per_function = {name: IrSiteCensus() for name in check_free}
    cfg = make_config(root, root / "reports")
    return pipeline._no_check_in_scope(cfg, per_function, TableSymbolizer(tables or {}, root))


@pytest.fixture
def engine():
    return EscalationEngine()


def rendered(engine) -> str:
    return render(engine.entries())


def tried(violation) -> list:
    """The violation's attempted rungs, each with its entry's line."""
    return [(level, entry.line) for level, entry in violation.attempted]


def observe(engine, pc=0x1000, callee=None, caller=None, cc=None, test_id="t1",
            binary=Path("app"), memory_map=()):
    return engine.observe(trap_at(pc, memory_map), Fault(binary, pc, callee, caller, cc), test_id)


def test_observe_dedups_by_binary_and_pc(engine):
    v1, new1 = observe(engine, pc=0x1000, callee=info("f"), test_id="t1")
    v2, new2 = observe(engine, pc=0x1000, callee=info("f"), test_id="t2")
    assert new1 and not new2
    assert v1 is v2
    assert v1.test_ids == ("t1", "t2")
    # Same test hitting it again does not duplicate the id.
    observe(engine, pc=0x1000, callee=info("f"), test_id="t2")
    assert v1.test_ids == ("t1", "t2")


def test_observe_distinguishes_binaries(engine):
    v1, _ = observe(engine, pc=0x1000, callee=info("f"), binary=Path("app"))
    v2, _ = observe(engine, pc=0x1000, callee=info("f"), binary=Path("helper"))
    assert v1 is not v2
    assert engine.counts()["total"] == 2


def test_observe_keys_by_check_site_across_moved_addresses(engine):
    # A rebuild moved the check: same function, file and line, new address.
    v1, _ = observe(engine, pc=0x1000, callee=info("f.cfi", "a.c", 7), test_id="t1")
    v2, new = observe(engine, pc=0x1010, callee=info("f", "a.c", 7), test_id="t2")
    assert v2 is v1 and not new
    assert v1.fault.static_pc == 0x1000
    assert v1.fault.key == Fault(Path("app"), 0x1010, info("f", "a.c", 7), None, None).key
    # Another line, function or binary is another check.
    for pc, callee, binary in ((0x1020, info("f", "a.c", 8), "app"),
                               (0x1030, info("g", "a.c", 7), "app"),
                               (0x1000, info("f", "a.c", 7), "helper")):
        _, new = observe(engine, pc=pc, callee=callee, binary=Path(binary))
        assert new
    assert engine.counts()["total"] == 4


@pytest.mark.parametrize("callee", [None, info("f"), info("f", "a.c")])
def test_observe_without_a_line_keys_by_address(engine, callee):
    v1, _ = observe(engine, pc=0x1000, callee=callee)
    v2, new = observe(engine, pc=0x1010, callee=callee)
    assert new and v2 is not v1
    assert v1.fault.key == (str(Path("app")), 0x1000)


def test_full_ladder_sequence(engine, tmp_path):
    callee = info("leaf", "src/leaf.c", 10)
    caller = info("mid", "src/mid.c", 20)
    cc = info("main", "src/main.c", 30)
    v, _ = observe(engine, callee=callee, caller=caller, cc=cc)

    expected = [
        (LadderLevel.CALLEE_FUNCTION, "fun:leaf"),
        (LadderLevel.CALLER_FUNCTION, "fun:mid"),
        (LadderLevel.CALLERS_CALLER_FUNCTION, "fun:main"),
        (LadderLevel.CALLEE_SOURCE, "src:src/leaf.c"),
        (LadderLevel.CALLER_SOURCE, "src:src/mid.c"),
    ]
    for level, line in expected:
        entry = engine.next_scope(v)
        assert entry is not None
        assert v.ladder_level is level
        assert entry.line == line
        engine.record_outcome(v, trap_recurred=True)

    assert engine.next_scope(v) is None
    assert v.status is ViolationStatus.UNRESOLVABLE
    assert tried(v) == expected
    # Nothing helped, so nothing stays active.
    assert rendered(engine) == ""


CXX_FRAMES = {
    "callee": info("_ZN3app4stepEi.cfi", "src/step.cpp", 10),
    "caller": info("_ZN3app5visitEi.llvm.123", "src/visit.cpp", 20),
    "cc": info("_ZL8stepheiyi.cfi_jt", "src/main.cpp", 30),
}


@pytest.mark.parametrize(
    ("check_free", "spelled"),
    [
        (frozenset(), ["fun:_ZN3app4stepEi", "fun:_ZN3app5visitEi", "fun:_ZL8stepheiyi"]),
        # The census keys functions by mangled IR name, so a check-free
        # caller is skipped on C++ as on C.
        (frozenset({"_ZN3app5visitEi"}), ["fun:_ZN3app4stepEi", "fun:_ZL8stepheiyi"]),
    ],
)
def test_cxx_fun_rungs_are_spelled_mangled(check_free, spelled):
    engine = EscalationEngine(functions_without_checks(check_free))
    v, _ = observe(engine, **CXX_FRAMES)
    lines = []
    while engine.next_scope(v).kind is EntryKind.FUN:
        lines.append(v.attempted[-1][1].line)
        engine.record_outcome(v, trap_recurred=True)
    assert lines == spelled
    assert v.ladder_level is LadderLevel.CALLEE_SOURCE


def test_violation_key_strips_clone_suffixes_from_mangled_names():
    plain, clone = (
        Fault(Path("app"), pc, info(name, "a.cpp", 3), None, None).key
        for pc, name in ((0x10, "_ZN1a1fEv"), (0x20, "_ZN1a1fEv.cfi"))
    )
    assert plain == clone
    assert plain[1] == "_ZN1a1fEv"


def test_fix_at_first_rung(engine):
    v, _ = observe(engine, callee=info("run_cb", "bad.c", 11))
    entry = engine.next_scope(v)
    assert entry.pattern == "run_cb"
    engine.record_outcome(v, trap_recurred=False)
    assert v.status is ViolationStatus.FIXED
    assert v.ladder_level is LadderLevel.CALLEE_FUNCTION
    assert rendered(engine) == "fun:run_cb\n"
    # A fixed violation asks for nothing further.
    assert engine.next_scope(v) is None


def test_ineffective_rungs_are_retired(engine):
    v, _ = observe(
        engine,
        callee=info("engine_step", "two.c", 12),
        caller=info("run_two", "two.c", 16),
    )
    e0 = engine.next_scope(v)
    assert e0.pattern == "engine_step"
    engine.record_outcome(v, trap_recurred=True)
    e1 = engine.next_scope(v)
    assert e1.pattern == "run_two"
    engine.record_outcome(v, trap_recurred=True)
    # No callers_caller identity: rung 2 is skipped, rung 3 lands on src.
    e3 = engine.next_scope(v)
    assert v.ladder_level is LadderLevel.CALLEE_SOURCE
    assert e3.kind is EntryKind.SRC and e3.pattern == "two.c"
    engine.record_outcome(v, trap_recurred=False)

    assert v.status is ViolationStatus.FIXED
    assert v.ladder_level is LadderLevel.CALLEE_SOURCE
    assert (LadderLevel.CALLERS_CALLER_FUNCTION, "identity unavailable") in v.skipped_levels
    assert rendered(engine) == "src:two.c\n"


def test_skips_rungs_without_identity(engine):
    # Symbol-table-only callee: function known, file unknown.
    v, _ = observe(engine, callee=info("mystery"))
    entry = engine.next_scope(v)
    assert entry.pattern == "mystery"
    engine.record_outcome(v, trap_recurred=True)
    # Caller, callers_caller and both source rungs all lack identities.
    assert engine.next_scope(v) is None
    assert v.status is ViolationStatus.UNRESOLVABLE
    skipped = [level for level, _ in v.skipped_levels]
    assert skipped == [
        LadderLevel.CALLER_FUNCTION,
        LadderLevel.CALLERS_CALLER_FUNCTION,
        LadderLevel.CALLEE_SOURCE,
        LadderLevel.CALLER_SOURCE,
    ]


def test_no_identities_at_all(engine):
    v, _ = observe(engine)
    assert engine.next_scope(v) is None
    assert v.status is ViolationStatus.UNRESOLVABLE
    assert v.attempted == []
    assert engine.counts() == {"total": 1, "fixed": 0, "unresolvable": 1, "open": 0}


def test_absolute_source_paths_become_project_relative(engine, tmp_path):
    src = Symbolizer(tmp_path)._spell(str(tmp_path / "lib" / "core.c"))
    v, _ = observe(engine, callee=info("f", src, 5))
    engine.next_scope(v)
    engine.record_outcome(v, trap_recurred=True)  # fun:f fails
    entry = engine.next_scope(v)
    assert v.ladder_level is LadderLevel.CALLEE_SOURCE
    assert entry.pattern == "lib/core.c"


def test_shared_entry_survives_while_any_claimant_needs_it(engine):
    # Two violations in the same file whose function rungs both fail.
    a, _ = observe(engine, pc=0x1000, callee=info("f", "core.c", 3), test_id="t1")
    b, _ = observe(engine, pc=0x2000, callee=info("g", "core.c", 9), test_id="t2")

    engine.next_scope(a)
    engine.record_outcome(a, trap_recurred=True)
    engine.next_scope(b)
    engine.record_outcome(b, trap_recurred=True)

    ea = engine.next_scope(a)
    eb = engine.next_scope(b)
    # Both escalate to the same src entry; the list holds it once.
    assert ea.pattern == eb.pattern == "core.c"
    assert rendered(engine) == "src:core.c\n"

    # a is fixed by it; b's re-test somehow still traps. The shared entry
    # must survive because a still needs it.
    engine.record_outcome(a, trap_recurred=False)
    engine.record_outcome(b, trap_recurred=True)
    assert a.status is ViolationStatus.FIXED
    assert rendered(engine) == "src:core.c\n"


def test_unshared_entries_retire_on_unresolvable(engine):
    v, _ = observe(engine, callee=info("lone", "only.c", 2))
    engine.next_scope(v)
    engine.record_outcome(v, trap_recurred=True)
    engine.next_scope(v)  # src:only.c
    engine.record_outcome(v, trap_recurred=True)
    assert engine.next_scope(v) is None
    assert v.status is ViolationStatus.UNRESOLVABLE
    assert rendered(engine) == ""


def test_counts_track_status(engine):
    a, _ = observe(engine, pc=0x1, callee=info("fa", "a.c", 1), test_id="t1")
    b, _ = observe(engine, pc=0x2, callee=info("fb", "b.c", 1), test_id="t2")
    c, _ = observe(engine, pc=0x3, test_id="t3")
    engine.next_scope(a)
    engine.record_outcome(a, trap_recurred=False)
    engine.next_scope(c)
    assert engine.counts() == {"total": 3, "fixed": 1, "unresolvable": 1, "open": 1}
    assert [v.id for v in engine.open_violations()] == [b.id]


def test_violation_ids_are_sequential(engine):
    a, _ = observe(engine, pc=0x1, test_id="t1")
    b, _ = observe(engine, pc=0x2, test_id="t2")
    assert (a.id, b.id) == ("V1", "V2")


def test_reopen_releases_the_entry_it_was_fixed_at(engine):
    v, _ = observe(engine, callee=info("f", "f.c", 1), caller=info("g", "g.c", 2))
    engine.next_scope(v)
    engine.record_outcome(v, trap_recurred=False)
    assert rendered(engine) == "fun:f\n"

    # The confirmation suite sees the trap again: fun:f did not hold.
    assert engine.reopen(v) is True
    assert (v.status, v.ladder_level) == (ViolationStatus.OPEN, LadderLevel.CALLER_FUNCTION)
    engine.next_scope(v)
    engine.record_outcome(v, trap_recurred=False)
    assert (v.status, v.ladder_level) == (ViolationStatus.FIXED, LadderLevel.CALLER_FUNCTION)
    assert rendered(engine) == "fun:g\n"


def test_reopen_keeps_an_entry_another_violation_is_fixed_at(engine):
    a, _ = observe(engine, pc=0x1, callee=info("f", "f.c", 1), test_id="t1")
    b, _ = observe(engine, pc=0x2, callee=info("f", "f.c", 5), test_id="t2")
    for v in (a, b):
        engine.next_scope(v)
        engine.record_outcome(v, trap_recurred=False)
    # a has no caller, so reopening climbs it straight to its file.
    assert engine.reopen(a) is True
    assert rendered(engine) == "fun:f\n"
    engine.next_scope(a)
    assert a.ladder_level is LadderLevel.CALLEE_SOURCE
    assert rendered(engine) == "fun:f\nsrc:f.c\n"


def test_reopen_at_the_last_rung_is_unresolvable(engine):
    v, _ = observe(engine, callee=info("f", "f.c", 1), caller=info("g", "g.c", 2))
    for _ in range(3):  # fun:f, fun:g, src:f.c; the caller's caller is unknown
        engine.next_scope(v)
        engine.record_outcome(v, trap_recurred=True)
    engine.next_scope(v)
    engine.record_outcome(v, trap_recurred=False)
    assert (v.status, v.ladder_level) == (ViolationStatus.FIXED, LadderLevel.CALLER_SOURCE)
    assert engine.reopen(v) is False
    assert v.status is ViolationStatus.UNRESOLVABLE
    assert rendered(engine) == ""


def test_rungs_whose_function_holds_no_check_are_skipped():
    engine = EscalationEngine(functions_without_checks({"fail", "mid"}))
    v, _ = observe(engine, callee=info("fail", "rt.c", 1), caller=info("mid", "a.c", 2),
                   cc=info("entry", "a.c", 3))
    entry = engine.next_scope(v)
    assert (v.ladder_level, entry.pattern) == (LadderLevel.CALLERS_CALLER_FUNCTION, "entry")
    assert v.skipped_levels == [
        (LadderLevel.CALLEE_FUNCTION, "no CFI check in scope"),
        (LadderLevel.CALLER_FUNCTION, "no CFI check in scope"),
    ]
    engine.record_outcome(v, trap_recurred=True)
    assert engine.next_scope(v).pattern == "rt.c"
    assert rendered(engine) == "src:rt.c\n"


def test_src_rungs_are_tried_whatever_the_check_free_names(tmp_path):
    # A check-free set holds function names; a path that spells one is no function.
    engine = EscalationEngine(census_predicate(tmp_path, {"f", "a.c"}))
    v, _ = observe(engine, callee=info("f", "a.c", 1))
    assert engine.next_scope(v).pattern == "a.c"
    assert tried(v) == [(LadderLevel.CALLEE_SOURCE, "src:a.c")]


def test_src_rungs_whose_file_holds_no_check_are_skipped():
    asked = []

    def holds_no_check(violation, entry):
        asked.append((violation.id, entry.line))
        return entry.line in {"fun:fail", "fun:mid", "fun:entry", "src:rt.c"}

    engine = EscalationEngine(holds_no_check)
    v, _ = observe(engine, callee=info("fail", "rt.c", 1), caller=info("mid", "a.c", 2),
                   cc=info("entry", "a.c", 3))
    assert engine.next_scope(v).pattern == "a.c"
    assert tried(v) == [(LadderLevel.CALLER_SOURCE, "src:a.c")]
    assert v.skipped_levels[3] == (LadderLevel.CALLEE_SOURCE, "no CFI check in scope")
    # Each rung is asked once, narrowest first, with its full line.
    assert asked == [("V1", line) for line in ("fun:fail", "fun:mid", "fun:entry", "src:rt.c",
                                               "src:a.c")]


def test_no_check_is_asked_only_of_rungs_no_frame_reason_skips():
    asked = []
    engine = EscalationEngine(lambda violation, entry: asked.append(entry.line))
    outside = SymbolInfo("libc.so.6", None, None, Confidence.OUTSIDE_PROJECT)
    v, _ = observe(engine, callee=info("f.1", "/elsewhere/f.c", 1), caller=outside)
    assert engine.next_scope(v) is None
    assert [reason for _, reason in v.skipped_levels] == [
        "link-time name", "outside the project", "identity unavailable", "outside the project",
        "outside the project",
    ]
    assert asked == []


F = "src/rt.c"


@pytest.mark.parametrize(
    ("tables", "skipped"),
    [
        pytest.param([{F: frozenset({"fail", "slow"})}], True, id="every definition check-free"),
        pytest.param([{F: frozenset({"fail"})}, {"src/a.c": frozenset({"x"})}], True,
                     id="a second binary without the file"),
        pytest.param([{F: frozenset({"fail", "other"})}], False, id="a name the census lacks"),
        pytest.param([{F: frozenset({"fail", None})}], False, id="a definition without a file"),
        pytest.param([{F: frozenset({"fail"})}, None], False, id="a failed dump"),
        pytest.param([{"src/a.c": frozenset({"fail"})}], False, id="a header-only file"),
        pytest.param([{F: frozenset()}], False, id="no definitions"),
        pytest.param([], False, id="no project binary mapped"),
    ],
)
def test_a_src_rung_is_skipped_only_if_every_definition_of_its_file_is_check_free(
    tmp_path, tables, skipped
):
    root = tmp_path.resolve()
    binaries = [str(root / "bin" / f"app{i}") for i in range(len(tables))]
    served = dict(zip(binaries, tables))
    engine = EscalationEngine(census_predicate(root, {"fail", "slow"}, served))
    # Each binary maps a data region before its code; only code counts.
    regions = tuple(
        MemoryRegion(base, base + 0x1000, perms, 0, binary)
        for i, binary in enumerate(binaries)
        for base, perms in ((0x10000 * (i + 1), "r--p"), (0x10000 * (i + 1) + 0x1000, "r-xp"))
    )
    v, _ = observe(engine, callee=info("fail", F, 1), caller=info("slow", F, 2),
                   memory_map=regions)
    entry = engine.next_scope(v)
    if skipped:
        assert entry is None
        assert v.status is ViolationStatus.UNRESOLVABLE
        assert v.skipped_levels[3:] == [
            (LadderLevel.CALLEE_SOURCE, "no CFI check in scope"),
            (LadderLevel.CALLER_SOURCE, "no CFI check in scope"),
        ]
    else:
        assert entry.line == f"src:{F}"


def test_a_name_outside_the_check_free_set_is_tried():
    engine = EscalationEngine(functions_without_checks({"other"}))
    v, _ = observe(engine, callee=info("f", "a.c", 1))
    assert engine.next_scope(v).pattern == "f"
    assert v.skipped_levels == []


def test_a_src_rung_repeating_the_callee_file_is_skipped(engine):
    # A static helper and its caller share a file: L4 would be L3 again.
    v, _ = observe(engine, callee=info("f", "core.c", 3), caller=info("g", "core.c", 9))
    for _ in range(3):  # fun:f, fun:g, src:core.c
        engine.next_scope(v)
        engine.record_outcome(v, trap_recurred=True)
    assert engine.next_scope(v) is None
    assert v.status is ViolationStatus.UNRESOLVABLE
    assert [line for _, line in tried(v)] == ["fun:f", "fun:g", "src:core.c"]
    assert (LadderLevel.CALLER_SOURCE, "same entry as L3") in v.skipped_levels
    assert rendered(engine) == ""


def test_a_recursive_caller_is_not_tried_twice(engine):
    v, _ = observe(engine, callee=info("walk", "t.c", 4), caller=info("walk", "t.c", 9),
                   cc=info("main", "m.c", 2))
    engine.next_scope(v)
    engine.record_outcome(v, trap_recurred=True)
    entry = engine.next_scope(v)
    assert (v.ladder_level, entry.pattern) == (LadderLevel.CALLERS_CALLER_FUNCTION, "main")
    assert v.skipped_levels == [(LadderLevel.CALLER_FUNCTION, "same entry as L0")]


def test_reopen_skips_the_line_it_was_fixed_at(engine):
    # Fixed at fun:f; the confirmation suite traps again with fun:f built,
    # so a caller rung naming f again cannot help either.
    v, _ = observe(engine, callee=info("f", "f.c", 1), caller=info("f", "f.c", 8))
    engine.next_scope(v)
    engine.record_outcome(v, trap_recurred=False)
    assert engine.reopen(v) is True
    assert engine.next_scope(v).pattern == "f.c"
    assert v.ladder_level is LadderLevel.CALLEE_SOURCE
    assert v.skipped_levels[0] == (LadderLevel.CALLER_FUNCTION, "same entry as L0")


@pytest.mark.parametrize(
    ("name", "renamed"),
    [
        ("f.1", True),
        ("_ZL8stepheiyi.12", True),
        ("x.2.cfi", True),
        ("_ZL3foov.__uniq.123", False),
        ("f.constprop", False),
        ("f", False),
    ],
)
def test_fun_rungs_with_a_link_time_name_are_skipped(engine, name, renamed):
    v, _ = observe(engine, callee=info(name, "core.c", 3), caller=info("g", "core.c", 9))
    entry = engine.next_scope(v)
    skipped = [(LadderLevel.CALLEE_FUNCTION, "link-time name")] if renamed else []
    assert v.skipped_levels == skipped
    assert entry.pattern == ("g" if renamed else enforcement_name(name))


def test_frames_outside_the_project_give_no_rung(engine):
    outside = SymbolInfo("libc.so.6", None, None, Confidence.OUTSIDE_PROJECT)
    v, _ = observe(engine, callee=info("main", "m.c", 4), caller=outside)
    lines = []
    while engine.next_scope(v) is not None:
        lines.append(v.attempted[-1][1].line)
        engine.record_outcome(v, trap_recurred=True)
    assert lines == ["fun:main", "src:m.c"]
    assert v.skipped_levels == [
        (LadderLevel.CALLER_FUNCTION, "outside the project"),
        (LadderLevel.CALLERS_CALLER_FUNCTION, "identity unavailable"),
        (LadderLevel.CALLER_SOURCE, "outside the project"),
    ]


def test_a_source_file_outside_the_project_gives_no_rung(engine, tmp_path):
    spell = Symbolizer(tmp_path)._spell
    v, _ = observe(engine, callee=info("f", spell("/usr/include/x.h"), 3),
                   caller=info("g", spell(str(tmp_path / "src" / "g.c")), 9))
    for _ in range(2):  # fun:f, fun:g
        engine.next_scope(v)
        engine.record_outcome(v, trap_recurred=True)
    assert engine.next_scope(v).pattern == "src/g.c"
    assert (LadderLevel.CALLEE_SOURCE, "outside the project") in v.skipped_levels


def test_frames_without_a_symbol_give_no_rung(engine):
    # A stripped binary's frames: each rung is skipped for want of an identity.
    v, _ = observe(engine, callee=None, caller=None)
    assert engine.next_scope(v) is None
    assert v.status is ViolationStatus.UNRESOLVABLE
    assert v.skipped_levels == [
        (level, "identity unavailable") for level in list(LadderLevel)[:5]
    ]
