"""Acceptance gate: one test per release criterion, one printed line each.

Each criterion checks a user-visible guarantee end to end, at the exact
tolerance it ships with, and prints a single [PASS]/[FAIL] line to the
terminal so a full run reads as a checklist. Heavy criteria share
module-scoped healed fixture projects; the quick ones are self-contained.

Oracles are independent of the code under test: linker maps, direct
compiler invocations on pristine fixture copies, and hand-derived tables.
"""

import random
import shlex
import shutil
import subprocess
import time
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path
from signal import SIGILL

import pytest

from cfiheal.build import BuildMode
from cfiheal.escalation import ViolationStatus
from cfiheal.harness import FailureClass, TestResult, classify
from cfiheal.ignorelist import (
    FUN_LEVELS,
    EntryKind,
    IgnorelistEntry,
    LadderLevel,
    parse,
    render,
)
from cfiheal.ircensus import IrSiteCensus
from cfiheal.pipeline import heal
from cfiheal.repair import repair_until_buildable
from cfiheal.report import FunctionRecord, compute_coverage
from cfiheal.tracing import (
    OutcomeKind,
    TraceOutcome,
    TrapEvent,
    TrapSignal,
    correct_pc,
    run_traced,
    unwind_frames,
)

from conftest import (
    HAVE_CLANG,
    HAVE_LLD,
    IS_LINUX_X86_64,
    copy_fixture,
    linker_map_symbol,
    make_config,
)

TOOLCHAIN_OK = HAVE_CLANG and HAVE_LLD and IS_LINUX_X86_64


@contextmanager
def criterion(capsys, number: int, label: str):
    """Print exactly one checklist line, whatever the body does."""
    try:
        yield
    except BaseException as exc:
        word = "SKIP" if type(exc).__name__ in ("Skipped", "SkipTest") else "FAIL"
        with capsys.disabled():
            print(f"[{word}] criterion {number}: {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] criterion {number}: {label}")


def require_toolchain():
    if not TOOLCHAIN_OK:
        pytest.skip("needs clang, lld and Linux x86_64")


# --- shared healed projects (built once, inspected by several criteria) ---


def _heal_fixture(name: str, tmp_path_factory):
    require_toolchain()
    base = tmp_path_factory.mktemp(f"accept_{name}")
    root = copy_fixture(name, base)
    reports = base / "reports"
    cfg = make_config(root, reports)
    started = time.monotonic()
    result = heal(cfg)
    elapsed = time.monotonic() - started
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def healed_l0(tmp_path_factory):
    return _heal_fixture("trap_l0", tmp_path_factory)


@pytest.fixture(scope="module")
def healed_l3(tmp_path_factory):
    return _heal_fixture("trap_l3", tmp_path_factory)


@pytest.fixture(scope="module")
def healed_chain(tmp_path_factory):
    return _heal_fixture("chain", tmp_path_factory)


def clang_cfi_build(
    sources: list[str], cwd: Path, ignorelist: Path, out: str = "app"
) -> None:
    """Independent oracle build: the raw compiler, not the package's driver."""
    cmd = [
        "clang",
        "-flto",
        "-fvisibility=hidden",
        "-fsanitize=cfi-icall",
        f"-fsanitize-ignorelist={ignorelist}",
        "-fno-omit-frame-pointer",
        "-fuse-ld=lld",
        "-g",
        *sources,
        "-o",
        out,
    ]
    subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True)


def run_app(cwd: Path, *args: str) -> int:
    proc = subprocess.run(
        ["./app", *args], cwd=cwd, capture_output=True, timeout=20
    )
    return proc.returncode


# --- criterion 1: census row sums ---

PROJECT_ROWS = {
    (338, 6, 2316, 776, 13448, 70): 16954,
    (46, 3, 318, 200, 2873, 0): 3440,
    (63, 5, 380, 253, 4241, 0): 4942,
    (191, 20, 1461, 1458, 25056, 56): 28242,
}


def test_criterion_1_census_row_sums(capsys):
    with criterion(capsys, 1, "census category rows sum to whole-project totals"):
        started = time.monotonic()
        for row, expected in PROJECT_ROWS.items():
            assert IrSiteCensus(*row).total() == expected
        assert time.monotonic() - started < 1.0


# --- criterion 2: program-counter correction ---


def test_criterion_2_pc_correction(capsys):
    with criterion(capsys, 2, "PC correction: SIGILL identity, SIGTRAP minus one"):
        started = time.monotonic()
        rng = random.Random(0xC0DE)
        boundary = [0, 1, 2, 0x400000, 2**32 - 1, 2**32, 2**48, 2**64 - 1]
        sampled = boundary + [rng.randrange(1, 2**64) for _ in range(20000)]
        for pc in sampled:
            assert correct_pc(TrapSignal.ILLEGAL_INSTRUCTION, pc) == pc
            assert correct_pc(TrapSignal.BREAKPOINT_TRAP, pc) == pc - 1
        assert time.monotonic() - started < 1.0


# --- criterion 3: frame-pointer unwinder invariants ---


class RecordingMemory:
    def __init__(self, words: dict[int, int]):
        self.words = dict(words)
        self.reads: list[int] = []

    def __call__(self, addr: int) -> int | None:
        self.reads.append(addr)
        return self.words.get(addr)


def test_criterion_3_unwinder_invariants(capsys):
    with criterion(capsys, 3, "unwinder reads [FP+8], enforces monotonicity, caps depth"):
        started = time.monotonic()

        # Well-formed two-frame chain: every return address comes from FP+8.
        fp0, fp1 = 0x1000, 0x2000
        mem = RecordingMemory(
            {fp0 + 8: 0xAAAA, fp0: fp1, fp1 + 8: 0xBBBB, fp1: 0x3000, 0x3008: 0xCCCC}
        )
        frames = unwind_frames({"rbp": fp0}, mem)
        assert frames == (0xAAAA, 0xBBBB)
        assert fp0 + 8 in mem.reads and fp1 + 8 in mem.reads
        assert all(r in (fp0, fp0 + 8, fp1, fp1 + 8) for r in mem.reads)

        # Depth is capped at two even though a third frame is reachable.
        assert len(frames) <= 2

        # Monotonicity: a next FP at or below the current one ends the walk,
        # even when that frame's return slot would be readable.
        for bad_fp1 in (fp0, 0x800, 0):
            words = {fp0 + 8: 0xAAAA, fp0: bad_fp1}
            words.setdefault(bad_fp1 + 8, 0xDDDD)
            assert unwind_frames({"rbp": fp0}, RecordingMemory(words)) == (0xAAAA,)

        # Truncation on read failure, at each stage of the walk.
        assert unwind_frames({"rbp": fp0}, RecordingMemory({})) == ()
        assert unwind_frames(
            {"rbp": fp0}, RecordingMemory({fp0 + 8: 0xAAAA})
        ) == (0xAAAA,)
        assert unwind_frames(
            {"rbp": fp0}, RecordingMemory({fp0 + 8: 0xAAAA, fp0: fp1})
        ) == (0xAAAA,)

        # No frame pointer register at all: nothing to walk.
        assert unwind_frames({}, RecordingMemory({fp0 + 8: 0xEEEE})) == ()
        assert time.monotonic() - started < 1.0


# --- criterion 4: live trap capture with exact fault PC ---


def test_criterion_4_live_trap_capture(capsys, asm_binaries):
    with criterion(capsys, 4, "live illegal-instruction trap captured at exact PC"):
        binary, map_path = asm_binaries["ud2"]
        expected_pc = linker_map_symbol(map_path, "trap_marker")
        started = time.monotonic()
        outcome = run_traced(shlex.quote(str(binary)), timeout=10.0)
        elapsed = time.monotonic() - started
        assert outcome.kind is OutcomeKind.TRAPPED
        trap = outcome.trap
        assert trap is not None
        assert trap.signal is TrapSignal.ILLEGAL_INSTRUCTION
        assert trap.fault_pc == expected_pc
        assert trap.raw_pc == expected_pc
        assert elapsed < 5.0


# --- criterion 5: divergence classification matrix ---


def _exited(status: int) -> TraceOutcome:
    return TraceOutcome(kind=OutcomeKind.EXITED, exit_status=status)


def _trapped(sig: TrapSignal) -> TraceOutcome:
    event = TrapEvent(
        signal=sig, raw_pc=0, fault_pc=0, return_addresses=(),
        registers={}, binary=None, memory_map=(),
    )
    return TraceOutcome(kind=OutcomeKind.TRAPPED, trap=event)


MATRIX_FORMS = {
    "pass": _exited(0),
    "exit_nonzero": _exited(3),
    "sigill": _trapped(TrapSignal.ILLEGAL_INSTRUCTION),
    "other_signal": TraceOutcome(kind=OutcomeKind.SIGNALLED, term_signal=11),
    "timeout": TraceOutcome(kind=OutcomeKind.TIMED_OUT),
}


def test_criterion_5_classification_matrix(capsys):
    with criterion(capsys, 5, "baseline/CFI outcome matrix maps onto the four classes"):
        started = time.monotonic()
        for base_key, base_outcome in MATRIX_FORMS.items():
            for cfi_key, cfi_outcome in MATRIX_FORMS.items():
                got = classify(
                    TestResult("t", base_outcome), TestResult("t", cfi_outcome)
                )
                if base_key != "pass":
                    expected = FailureClass.BASELINE_FAILURE
                elif cfi_key == "sigill":
                    expected = FailureClass.CFI_POLICY_VIOLATION
                elif cfi_key == "pass":
                    expected = FailureClass.PASS
                else:
                    expected = FailureClass.FUNCTIONAL_NON_CFI
                assert got is expected, (base_key, cfi_key)
        # A breakpoint trap is a trap outcome but never a policy violation.
        got = classify(
            TestResult("t", _exited(0)),
            TestResult("t", _trapped(TrapSignal.BREAKPOINT_TRAP)),
        )
        assert got is FailureClass.FUNCTIONAL_NON_CFI
        assert time.monotonic() - started < 1.0


# --- criterion 6: end-to-end repair at the narrowest rung ---


def test_criterion_6_heal_single_function_entry(capsys, healed_l0, tmp_path):
    with criterion(capsys, 6, "type-mismatch violation healed with one fun: entry"):
        cfg, result, heal_elapsed = healed_l0
        started = time.monotonic()

        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.status is ViolationStatus.FIXED
        assert violation.ladder_level is LadderLevel.CALLEE_FUNCTION
        assert result.report["ignorelist"] == ["fun:run_cb"]
        list_path = cfg.report_dir / "cfi.ignorelist"
        assert list_path.read_text() == "fun:run_cb\n"

        # Post-repair the whole suite passes.
        assert result.report["tests"]["pass"] == result.report["tests"]["total"] == 2
        assert result.report["tests"]["cfi_policy_violation"] == 0
        assert result.unresolvable == 0

        # Oracle: a pristine copy built by the raw compiler with that single
        # entry runs clean, and without it the callback test dies on SIGILL.
        oracle_root = copy_fixture("trap_l0", tmp_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        clang_cfi_build(["main.c", "ok.c", "bad.c"], oracle_root, empty)
        assert run_app(oracle_root) == 0
        assert run_app(oracle_root, "cb") == -SIGILL

        healed_list = tmp_path / "healed.txt"
        healed_list.write_text(list_path.read_text())
        clang_cfi_build(["main.c", "ok.c", "bad.c"], oracle_root, healed_list)
        assert run_app(oracle_root) == 0
        assert run_app(oracle_root, "cb") == 0

        assert heal_elapsed + (time.monotonic() - started) < 120.0


# --- criterion 7: escalation stops exactly where suppression starts ---


def test_criterion_7_escalation_minimality(capsys, healed_l3, tmp_path):
    with criterion(capsys, 7, "ladder ends at src: rung; every narrower entry fails"):
        cfg, result, heal_elapsed = healed_l3
        started = time.monotonic()

        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.status is ViolationStatus.FIXED
        assert violation.ladder_level is LadderLevel.CALLEE_SOURCE
        attempted = [entry.line for _, entry in violation.attempted]
        assert attempted == [
            "fun:engine_step.1",
            "fun:run_two",
            "fun:main",
            "src:two.c",
        ]
        assert result.report["ignorelist"] == ["src:two.c"]
        assert (cfg.report_dir / "cfi.ignorelist").read_text() == "src:two.c\n"
        assert result.report["tests"]["pass"] == result.report["tests"]["total"] == 2

        # Oracle: brute-force every narrower candidate on a pristine copy.
        # Each function entry must still trap; only the file entry passes.
        oracle_root = copy_fixture("trap_l3", tmp_path)
        sources = ["one.c", "two.c", "main.c"]
        for entry in ("fun:engine_step.1", "fun:run_two", "fun:main"):
            candidate = tmp_path / "candidate.txt"
            candidate.write_text(entry + "\n")
            clang_cfi_build(sources, oracle_root, candidate)
            assert run_app(oracle_root, "two") == -SIGILL, entry
            assert run_app(oracle_root) == 0, entry
        winner = tmp_path / "winner.txt"
        winner.write_text("src:two.c\n")
        clang_cfi_build(sources, oracle_root, winner)
        assert run_app(oracle_root, "two") == 0
        assert run_app(oracle_root) == 0

        assert heal_elapsed + (time.monotonic() - started) < 300.0


# --- criterion 8: visibility repair converges and is idempotent ---


def test_criterion_8_visibility_repair_convergence(capsys, healed_chain):
    with criterion(capsys, 8, "chained hidden-symbol breakage repaired in one planned pass"):
        cfg, result, heal_elapsed = healed_chain
        started = time.monotonic()

        # The baseline's cross-DSO bindings plan both symbols before the
        # first instrumented build, which then stands.
        ledger = result.ledger
        assert ledger.build_attempts == 1
        assert ledger.iterations_build_phase == 1
        assert len(ledger.patches) == 2
        first, second = ledger.patches
        assert (first.iteration, first.symbol) == (1, "bar_helper")
        assert (second.iteration, second.symbol) == (1, "foo_api")
        assert first.file.endswith("bar.c")
        assert second.file.endswith("foo.c")
        assert result.report["tests"]["pass"] == result.report["tests"]["total"] == 1
        assert result.unresolvable == 0

        # Third pass over the already-patched tree: nothing left to patch.
        mode = BuildMode.cfi(cfg.cfi_variants, cfg.report_dir / "cfi.ignorelist")
        outcome, third = repair_until_buildable(cfg, mode)
        assert outcome.succeeded
        assert third.patches == []
        assert third.iterations_build_phase == 0

        assert heal_elapsed + (time.monotonic() - started) < 120.0


# --- criterion 9: coverage arithmetic at published proportions ---


def synthetic_function_table() -> list[FunctionRecord]:
    """10000 functions split 8629/1054/317 with call sites 8946/753/301."""
    records: list[FunctionRecord] = []
    # Protected: 8629 functions, 8946 call sites.
    records.append(FunctionRecord("p0", "keep/p.c", 318, "hidden"))
    records.extend(
        FunctionRecord(f"p{i}", "keep/p.c", 1, "hidden") for i in range(1, 8629)
    )
    # Default visibility: 1054 functions, 753 call sites.
    records.extend(
        FunctionRecord(f"d{i}", "keep/d.c", 1 if i < 753 else 0, "default")
        for i in range(1054)
    )
    # Ignored: 317 functions, 301 call sites.
    records.extend(
        FunctionRecord(f"i{i}", "quiet/ign.c", 1 if i < 301 else 0, "hidden")
        for i in range(317)
    )
    return records


def test_criterion_9_coverage_arithmetic(capsys):
    with criterion(capsys, 9, "coverage triples match published shares, sum to 100.00"):
        started = time.monotonic()
        records = synthetic_function_table()
        entry = IgnorelistEntry(EntryKind.SRC, "quiet/ign.c")
        core = compute_coverage(records, [entry])

        assert core.per_function.counts == (8629, 1054, 317)
        assert core.per_call_site.counts == (8946, 753, 301)

        # Raw shares stay within a cent of the published figures...
        for counts, targets in (
            ((8629, 1054, 317), (86.29, 10.54, 3.17)),
            ((8946, 753, 301), (89.46, 7.53, 3.01)),
        ):
            total = sum(counts)
            for count, target in zip(counts, targets):
                assert abs(100.0 * count / total - target) <= 0.01

        # ...and the reconciled triples hit them exactly.
        fn = core.per_function
        site = core.per_call_site
        assert (fn.protected, fn.default_visibility, fn.ignored) == (86.29, 10.54, 3.17)
        assert (site.protected, site.default_visibility, site.ignored) == (
            89.46,
            7.53,
            3.01,
        )
        for triple in (fn, site):
            total = sum(
                Decimal(str(v))
                for v in (triple.protected, triple.default_visibility, triple.ignored)
            )
            assert total == Decimal("100.00")
        assert time.monotonic() - started < 1.0


# --- criterion 10: ignorelist normal form ---

PATTERN_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_./-"


def random_entries(rng: random.Random) -> list[IgnorelistEntry]:
    entries = []
    for _ in range(rng.randrange(0, 12)):
        kind = rng.choice((EntryKind.FUN, EntryKind.SRC))
        pattern = "".join(
            rng.choice(PATTERN_CHARS) for _ in range(rng.randrange(1, 20))
        )
        entries.append(IgnorelistEntry(kind, pattern))
    return entries


def test_criterion_10_ignorelist_normal_form(capsys):
    with criterion(capsys, 10, "render-parse-render is a fixpoint, ordering is fixed"):
        started = time.monotonic()
        rng = random.Random(1337)
        for _ in range(500):
            entries = random_entries(rng)
            text = render(entries)
            again = render(parse(text))
            assert again == text
            # Deterministic ordering: fun: block first, each block sorted,
            # and shuffling the input never changes the output.
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert render(shuffled) == text
            lines = text.splitlines()
            funs = [l for l in lines if l.startswith("fun:")]
            srcs = [l for l in lines if l.startswith("src:")]
            assert lines == sorted(funs) + sorted(srcs)
        assert time.monotonic() - started < 1.0
