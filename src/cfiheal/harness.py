"""Test harness: enumerate the suite, run it traced, classify divergence.

Enumeration protocol: test_cmd runs once per heal, right after the baseline
build (shell, project root as cwd), and prints one line per test on stdout:

    TEST<TAB><test_id><TAB><command ...>

The command is the remainder of the line and runs through the shell with the
project root as working directory. Lines not matching the protocol are
ignored; an enumeration yielding zero tests is a harness error. Every suite
and re-run of a heal takes its tests from that one enumeration.

Classification compares a baseline result with a CFI result per test:

    baseline failed                          -> BaselineFailure
    baseline passed, CFI trapped on SIGILL   -> CfiPolicyViolation
    baseline passed, CFI failed otherwise    -> FunctionalNonCfi
       (nonzero exit, other signal, timeout, or a breakpoint trap)
    both passed                              -> Pass
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .build import BuildOutcome
from .config import ProjectConfig
from .tracing import OutcomeKind, TraceOutcome, TrapSignal, run_traced_many


class HarnessError(RuntimeError):
    """The suite could not be enumerated or driven."""


class FailureClass(Enum):
    PASS = "Pass"
    BASELINE_FAILURE = "BaselineFailure"
    CFI_POLICY_VIOLATION = "CfiPolicyViolation"
    FUNCTIONAL_NON_CFI = "FunctionalNonCfi"


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # keep pytest from collecting this as a test class

    test_id: str
    command: str


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # keep pytest from collecting this as a test class

    test_id: str
    outcome: TraceOutcome

    @property
    def passed(self) -> bool:
        return self.outcome.kind is OutcomeKind.EXITED and self.outcome.exit_status == 0

    @property
    def cfi_trapped(self) -> bool:
        return (
            self.outcome.kind is OutcomeKind.TRAPPED
            and self.outcome.trap is not None
            and self.outcome.trap.signal is TrapSignal.ILLEGAL_INSTRUCTION
        )


@dataclass(frozen=True)
class SuiteDiff:
    per_test: dict[str, FailureClass]
    counts: dict[FailureClass, int]


def enumerate_tests(cfg: ProjectConfig) -> list[TestCase]:
    """Run test_cmd and parse the TEST protocol lines off its stdout."""
    try:
        proc = subprocess.run(
            cfg.test_cmd,
            shell=True,
            cwd=str(cfg.project_root),
            capture_output=True,
            text=True,
            errors="surrogateescape",  # a command's shell gets back bytes that are no UTF-8
            timeout=cfg.test_timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"test enumeration timed out after {cfg.test_timeout}s") from exc
    except OSError as exc:
        raise HarnessError(f"test enumeration failed to start: {exc}") from exc

    cases: list[TestCase] = []
    seen: set[str] = set()
    for line in proc.stdout.splitlines():
        parts = line.split("\t", 2)
        if len(parts) != 3 or parts[0] != "TEST":
            continue
        _, test_id, command = parts
        test_id = test_id.strip()
        if not test_id or not command.strip():
            continue
        if test_id in seen:
            raise HarnessError(f"duplicate test id in enumeration: {test_id}")
        seen.add(test_id)
        cases.append(TestCase(test_id, command))
    if not cases:
        raise HarnessError(
            "test_cmd produced no TEST lines "
            f"(exit {proc.returncode}); stdout was:\n{proc.stdout[:2000]}"
        )
    return cases


def run_cases(cfg: ProjectConfig, cases: Sequence[TestCase]) -> list[TestResult]:
    """Run `cases` traced in one batch, one per usable CPU at a time; results in input order.

    The CPUs are those this process may run on, so `taskset -c 0` runs the
    tests one at a time. Every test runs in this process's environment,
    which run_traced_many copies as bytes once for the batch.
    """
    outcomes = run_traced_many(
        [case.command for case in cases],
        cfg.test_timeout,
        cwd=cfg.project_root,
        jobs=len(os.sched_getaffinity(0)),
    )
    return [TestResult(case.test_id, outcome) for case, outcome in zip(cases, outcomes)]


def run_suite(
    cfg: ProjectConfig, build: BuildOutcome, cases: Sequence[TestCase]
) -> list[TestResult]:
    """Run `cases` against `build` under trap supervision, in their order."""
    if not build.succeeded:
        raise HarnessError("refusing to run the suite against a failed build")
    return run_cases(cfg, cases)


def classify(baseline: TestResult, cfi: TestResult) -> FailureClass:
    """Attribute one test's divergence; inputs must be the same test."""
    if baseline.test_id != cfi.test_id:
        raise ValueError(
            f"classify() needs matching tests, got {baseline.test_id!r} vs {cfi.test_id!r}"
        )
    if not baseline.passed:
        return FailureClass.BASELINE_FAILURE
    if cfi.cfi_trapped:
        return FailureClass.CFI_POLICY_VIOLATION
    if cfi.passed:
        return FailureClass.PASS
    return FailureClass.FUNCTIONAL_NON_CFI


def diff_suites(baseline: list[TestResult], cfi: list[TestResult]) -> SuiteDiff:
    """Classify the whole suite; a test present on only one side is left out."""
    cfi_by_id = {r.test_id: r for r in cfi}
    per_test = {
        base.test_id: classify(base, cfi_by_id[base.test_id])
        for base in baseline
        if base.test_id in cfi_by_id
    }
    counts = {cls: 0 for cls in FailureClass}
    for cls in per_test.values():
        counts[cls] += 1
    return SuiteDiff(per_test=per_test, counts=counts)
