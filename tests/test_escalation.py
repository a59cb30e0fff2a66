"""Ladder state machine: rung selection, dedup, retirement, minimality."""

from pathlib import Path

import pytest

from cfiheal.escalation import (
    EscalationEngine,
    ViolationStatus,
    enforcement_name,
    violation_key,
)
from cfiheal.ignorelist import EntryKind, IgnorelistStore, LadderLevel, render
from cfiheal.symbols import Confidence, SymbolInfo
from cfiheal.tracing import TrapEvent, TrapSignal


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
    ],
)
def test_enforcement_name(decorated, plain):
    assert enforcement_name(decorated) == plain


def info(function: str, source: str | None = None, line: int | None = None) -> SymbolInfo:
    conf = Confidence.DEBUGINFO if source else Confidence.SYMBOL_TABLE
    return SymbolInfo(function=function, source_file=source, line=line, confidence=conf)


def trap_at(pc: int) -> TrapEvent:
    return TrapEvent(
        signal=TrapSignal.ILLEGAL_INSTRUCTION,
        raw_pc=pc,
        fault_pc=pc,
        return_addresses=(),
        registers={},
        binary=Path("app"),
        memory_map=(),
    )


@pytest.fixture
def engine(tmp_path):
    return EscalationEngine(IgnorelistStore(tmp_path / "cfi-ignorelist.txt"), tmp_path)


def rendered(engine) -> str:
    return render(engine.store.entries.values())


def observe(engine, pc=0x1000, callee=None, caller=None, cc=None, test_id="t1",
            binary=Path("app")):
    return engine.observe(
        trap=trap_at(pc),
        binary=binary,
        static_fault_pc=pc,
        callee=callee,
        caller=caller,
        callers_caller=cc,
        test_id=test_id,
    )


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
    assert v1.static_fault_pc == 0x1000
    assert v1.key == violation_key(Path("app"), 0x1010, info("f", "a.c", 7))
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
    assert v1.key == (str(Path("app")), 0x1000)


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
        assert f"{entry.kind.value}:{entry.pattern}" == line
        engine.record_outcome(v, trap_recurred=True)

    assert engine.next_scope(v) is None
    assert v.status is ViolationStatus.UNRESOLVABLE
    assert v.attempted == expected
    # Nothing helped, so nothing stays active.
    assert rendered(engine) == ""


def test_fix_at_first_rung(engine):
    v, _ = observe(engine, callee=info("run_cb", "bad.c", 11))
    entry = engine.next_scope(v)
    assert entry.pattern == "run_cb"
    engine.record_outcome(v, trap_recurred=False)
    assert v.status is ViolationStatus.FIXED
    assert v.fixed_level is LadderLevel.CALLEE_FUNCTION
    assert rendered(engine) == "fun:run_cb\n"
    # A fixed violation asks for nothing further.
    assert engine.next_scope(v) is None


def test_ineffective_rungs_are_retired(engine):
    v, _ = observe(
        engine,
        callee=info("engine_step.1", "two.c", 12),
        caller=info("run_two", "two.c", 16),
    )
    e0 = engine.next_scope(v)
    assert e0.pattern == "engine_step.1"
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
    assert v.fixed_level is LadderLevel.CALLEE_SOURCE
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
    src = tmp_path / "lib" / "core.c"
    v, _ = observe(engine, callee=info("f.1", str(src), 5))
    engine.next_scope(v)
    engine.record_outcome(v, trap_recurred=True)  # fun:f.1 fails
    entry = engine.next_scope(v)
    assert v.ladder_level is LadderLevel.CALLEE_SOURCE
    assert entry.pattern == "lib/core.c"


def test_shared_entry_survives_while_any_claimant_needs_it(engine):
    # Two violations in the same file, both with renamed-static callees.
    a, _ = observe(engine, pc=0x1000, callee=info("f.1", "core.c", 3), test_id="t1")
    b, _ = observe(engine, pc=0x2000, callee=info("g.1", "core.c", 9), test_id="t2")

    engine.next_scope(a)
    engine.record_outcome(a, trap_recurred=True)
    engine.next_scope(b)
    engine.record_outcome(b, trap_recurred=True)

    ea = engine.next_scope(a)
    eb = engine.next_scope(b)
    # Both escalate to the same src entry; the store holds it once.
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
    assert (v.status, v.fixed_level, v.ladder_level) == (
        ViolationStatus.OPEN, None, LadderLevel.CALLER_FUNCTION)
    engine.next_scope(v)
    engine.record_outcome(v, trap_recurred=False)
    assert v.fixed_level is LadderLevel.CALLER_FUNCTION
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
    assert v.fixed_level is LadderLevel.CALLER_SOURCE
    assert engine.reopen(v) is False
    assert v.status is ViolationStatus.UNRESOLVABLE
    assert rendered(engine) == ""


def test_rungs_whose_function_holds_no_check_are_skipped(tmp_path):
    store = IgnorelistStore(tmp_path / "cfi.ignorelist")
    engine = EscalationEngine(store, tmp_path, check_free=frozenset({"fail", "mid"}))
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
    store = IgnorelistStore(tmp_path / "cfi.ignorelist")
    engine = EscalationEngine(store, tmp_path, check_free=frozenset({"f", "a.c"}))
    v, _ = observe(engine, callee=info("f", "a.c", 1))
    assert engine.next_scope(v).pattern == "a.c"
    assert v.attempted == [(LadderLevel.CALLEE_SOURCE, "src:a.c")]


def test_a_name_outside_the_check_free_set_is_tried(tmp_path):
    store = IgnorelistStore(tmp_path / "cfi.ignorelist")
    engine = EscalationEngine(store, tmp_path, check_free=frozenset({"other"}))
    v, _ = observe(engine, callee=info("f", "a.c", 1))
    assert engine.next_scope(v).pattern == "f"
    assert v.skipped_levels == []


def test_a_src_rung_repeating_the_callee_file_is_skipped(engine):
    # A static helper and its caller share a file: L4 would be L3 again.
    v, _ = observe(engine, callee=info("f.1", "core.c", 3), caller=info("g.1", "core.c", 9))
    for _ in range(3):  # fun:f.1, fun:g.1, src:core.c
        engine.next_scope(v)
        engine.record_outcome(v, trap_recurred=True)
    assert engine.next_scope(v) is None
    assert v.status is ViolationStatus.UNRESOLVABLE
    assert [line for _, line in v.attempted] == ["fun:f.1", "fun:g.1", "src:core.c"]
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
