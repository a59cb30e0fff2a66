"""Suite enumeration protocol and divergence classification."""

import os

import pytest

from cfiheal import harness, tracing
from cfiheal.build import BuildKind, BuildMode, BuildOutcome
from cfiheal.harness import (
    FailureClass,
    HarnessError,
    TestCase,
    TestResult,
    classify,
    diff_suites,
    enumerate_tests,
    run_suite,
)
from cfiheal.tracing import OutcomeKind, TraceOutcome, TrapEvent, TrapSignal

from conftest import make_config, needs_linux


def enum_config(tmp_path, script: str):
    (tmp_path / "enum.sh").write_text(script)
    return make_config(tmp_path, tmp_path / "reports", test_cmd="sh enum.sh")


def test_enumerate_parses_protocol_lines(tmp_path):
    cfg = enum_config(
        tmp_path,
        "echo 'building fixtures...'\n"
        "printf 'TEST\\tt_one\\t./app one\\n'\n"
        "echo 'not a test line'\n"
        "printf 'TEST\\tt_two\\t./app two | grep -q ok\\n'\n",
    )
    cases = enumerate_tests(cfg)
    assert cases == [
        TestCase("t_one", "./app one"),
        TestCase("t_two", "./app two | grep -q ok"),
    ]


def test_enumerate_preserves_tabs_inside_command(tmp_path):
    # Only the first two tabs delimit; the command may contain more.
    cfg = enum_config(tmp_path, "printf 'TEST\\tt_tab\\tprintf \"a\\\\tb\"\\n'\n")
    cases = enumerate_tests(cfg)
    assert len(cases) == 1
    assert "\\t" in cases[0].command or "\t" in cases[0].command


def test_enumerate_rejects_duplicate_ids(tmp_path):
    cfg = enum_config(
        tmp_path,
        "printf 'TEST\\tsame\\ttrue\\n'\nprintf 'TEST\\tsame\\tfalse\\n'\n",
    )
    with pytest.raises(HarnessError, match="duplicate"):
        enumerate_tests(cfg)


def test_enumerate_rejects_empty_suite(tmp_path):
    cfg = enum_config(tmp_path, "echo 'no tests here'\n")
    with pytest.raises(HarnessError, match="no TEST lines"):
        enumerate_tests(cfg)


def test_enumerate_skips_blank_fields(tmp_path):
    cfg = enum_config(
        tmp_path,
        "printf 'TEST\\t\\t./app\\n'\n"
        "printf 'TEST\\tt_blank\\t  \\n'\n"
        "printf 'TEST\\tt_real\\ttrue\\n'\n",
    )
    cases = enumerate_tests(cfg)
    assert [c.test_id for c in cases] == ["t_real"]


@needs_linux
def test_bytes_that_are_no_utf8_pass_from_the_enumeration_to_the_shell(tmp_path):
    # A Latin-1 noise line, and a test that creates a file with a Latin-1 name.
    cfg = enum_config(tmp_path, "printf 'caf\\351 noise\\nTEST\\tt1\\ttouch caf\\351.txt\\n'\n")
    cases = enumerate_tests(cfg)
    assert [c.test_id for c in cases] == ["t1"]
    assert [r.passed for r in harness.run_cases(cfg, cases)] == [True]
    assert b"caf\xe9.txt" in os.listdir(bytes(tmp_path))


def test_run_suite_refuses_failed_build(tmp_path):
    cfg = enum_config(tmp_path, "printf 'TEST\\tt\\ttrue\\n'\n")
    failed = BuildOutcome(
        succeeded=False,
        mode=BuildMode(BuildKind.BASELINE),
        diagnostics=(),
        produced_executables=(),
        log_path=tmp_path / "x.log",
        wall_time=0.1,
    )
    with pytest.raises(HarnessError, match="failed build"):
        run_suite(cfg, failed, enumerate_tests(cfg))


@needs_linux
def test_run_suite_spawns_every_test_in_one_copy_of_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CFIHEAL_SUITE_MARK", "set before the suite")
    cfg = enum_config(
        tmp_path,
        "printf 'TEST\\tt_one\\ttest \"$CFIHEAL_SUITE_MARK\" = \"set before the suite\"\\n'\n"
        "printf 'TEST\\tt_two\\ttest -n \"$CFIHEAL_SUITE_MARK\"\\n'\n",
    )
    batches, envs = [], []
    real_many, real_spawn = harness.run_traced_many, tracing._spawn_traced

    def recording_batch(cmds, timeout, **kwargs):
        batches.append(list(cmds))
        return real_many(cmds, timeout, **kwargs)

    def recording_spawn(cmd, env, kit):
        envs.append(env)
        return real_spawn(cmd, env, kit)

    monkeypatch.setattr(harness, "run_traced_many", recording_batch)
    monkeypatch.setattr(tracing, "_spawn_traced", recording_spawn)
    built = BuildOutcome(
        succeeded=True,
        mode=BuildMode(BuildKind.BASELINE),
        diagnostics=(),
        produced_executables=(),
        log_path=tmp_path / "x.log",
        wall_time=0.1,
    )
    results = run_suite(cfg, built, enumerate_tests(cfg))
    assert [(r.test_id, r.passed) for r in results] == [("t_one", True), ("t_two", True)]
    # One batch for the suite, and one environment for every test in it.
    assert len(batches) == 1 and len(envs) == 2
    assert type(envs[0]) is dict and envs[0] is envs[1]


# Synthetic outcomes for the classification matrix.

def exited(status: int) -> TraceOutcome:
    return TraceOutcome(kind=OutcomeKind.EXITED, exit_status=status)


def trapped(sig: TrapSignal) -> TraceOutcome:
    event = TrapEvent(
        signal=sig,
        raw_pc=0x1000,
        fault_pc=0x1000,
        return_addresses=(),
        registers={},
        binary=None,
        memory_map=(),
    )
    return TraceOutcome(kind=OutcomeKind.TRAPPED, trap=event)


def signalled(num: int) -> TraceOutcome:
    return TraceOutcome(kind=OutcomeKind.SIGNALLED, term_signal=num)


def timed_out() -> TraceOutcome:
    return TraceOutcome(kind=OutcomeKind.TIMED_OUT)


PASS = exited(0)
FAIL_EXIT = exited(1)
SIGILL_TRAP = trapped(TrapSignal.ILLEGAL_INSTRUCTION)
SIGTRAP_TRAP = trapped(TrapSignal.BREAKPOINT_TRAP)
SEGV = signalled(11)
TIMEOUT = timed_out()

BASELINE_FORMS = {
    "pass": PASS,
    "fail_exit": FAIL_EXIT,
    "sigill": SIGILL_TRAP,
    "segv": SEGV,
    "timeout": TIMEOUT,
}
CFI_FORMS = {
    "pass": PASS,
    "fail_exit": FAIL_EXIT,
    "sigill": SIGILL_TRAP,
    "segv": SEGV,
    "timeout": TIMEOUT,
}


def expected_class(base_key: str, cfi_key: str) -> FailureClass:
    if base_key != "pass":
        return FailureClass.BASELINE_FAILURE
    if cfi_key == "sigill":
        return FailureClass.CFI_POLICY_VIOLATION
    if cfi_key == "pass":
        return FailureClass.PASS
    return FailureClass.FUNCTIONAL_NON_CFI


@pytest.mark.parametrize("base_key", sorted(BASELINE_FORMS))
@pytest.mark.parametrize("cfi_key", sorted(CFI_FORMS))
def test_classification_matrix(base_key, cfi_key):
    base = TestResult("t", BASELINE_FORMS[base_key])
    cfi = TestResult("t", CFI_FORMS[cfi_key])
    assert classify(base, cfi) is expected_class(base_key, cfi_key)


def test_breakpoint_trap_is_not_a_policy_violation():
    # int3 under CFI means instrumentation or debugger noise, not enforcement.
    base = TestResult("t", PASS)
    cfi = TestResult("t", SIGTRAP_TRAP)
    assert classify(base, cfi) is FailureClass.FUNCTIONAL_NON_CFI


def test_classify_requires_matching_ids():
    with pytest.raises(ValueError, match="matching tests"):
        classify(TestResult("a", PASS), TestResult("b", PASS))


def test_result_predicates():
    assert TestResult("t", PASS).passed
    assert not TestResult("t", FAIL_EXIT).passed
    assert TestResult("t", SIGILL_TRAP).cfi_trapped
    assert not TestResult("t", SIGTRAP_TRAP).cfi_trapped
    assert not TestResult("t", SEGV).cfi_trapped


def test_diff_suites_counts_and_unmatched():
    baseline = [
        TestResult("a", PASS),
        TestResult("b", PASS),
        TestResult("c", FAIL_EXIT),
        TestResult("only_base", PASS),
    ]
    cfi = [
        TestResult("a", PASS),
        TestResult("b", SIGILL_TRAP),
        TestResult("c", PASS),
        TestResult("only_cfi", PASS),
    ]
    diff = diff_suites(baseline, cfi)
    assert diff.per_test == {
        "a": FailureClass.PASS,
        "b": FailureClass.CFI_POLICY_VIOLATION,
        "c": FailureClass.BASELINE_FAILURE,
    }
    assert diff.counts[FailureClass.PASS] == 1
    assert diff.counts[FailureClass.CFI_POLICY_VIOLATION] == 1
    assert diff.counts[FailureClass.BASELINE_FAILURE] == 1
    assert diff.counts[FailureClass.FUNCTIONAL_NON_CFI] == 0
    # A test present on only one side is left out of the classification.
    assert "only_base" not in diff.per_test and "only_cfi" not in diff.per_test
