"""heal() end to end on each benchmark workload, through the gcc CFI model.

perfbench's generator writes a small C/C++ project (scale 0.3, as in its
self-check) whose builds go through ``cfimodel.py``, a gcc wrapper that
models clang's CFI checks, so these heals need no clang. Each heal is scored
by the generator's 12 oracle checks. A check that a known defect fails is a
strict xfail, so the fix of that defect shows as an unexpected pass.
"""

import shutil
import sys
from pathlib import Path

import pytest

from cfiheal.config import ProjectConfig
from cfiheal.pipeline import heal
from cfiheal.repair import revert_patches

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402
import oracle  # noqa: E402

SCALE = 0.3
SEED = 1
TOOLS = ("gcc", "g++", "make", "objdump", "c++filt")
CHECKS = (
    "ignorelist_minimal",
    *(f"census.{key}" for key in gen.CATEGORIES),
    "call_site_denominator",
    "per_function_sums_to_100",
    "per_call_site_sums_to_100",
    "exit_status",
    "revert_byte_exact",
)
KNOWN_DEFECTS = {
    ("cxx_static", "ignorelist_minimal"): "fun: entries are spelled demangled",
    ("cxx_static", "call_site_denominator"): "C++ call sites are missed",
    ("cxx_static", "per_call_site_sums_to_100"): "C++ call sites are missed: the triple is 0/0/0",
}

pytestmark = pytest.mark.skipif(
    any(shutil.which(tool) is None for tool in TOOLS), reason=f"requires {', '.join(TOOLS)}"
)


def _heal(workload: str, box: Path):
    """Heal a fresh project of the workload; returns the result and the oracle's checks."""
    pristine = box / "pristine"
    spec = gen.GENERATORS[workload](
        pristine, SEED, sys.executable, PERFBENCH / "cfimodel.py", SCALE
    ).to_json()
    project = box / "project"
    shutil.copytree(pristine, project, symlinks=True)
    cfg = ProjectConfig(
        project_root=project,
        build_cmd=spec["build_cmd"],
        test_cmd=spec["test_cmd"],
        executables=tuple(spec["executables"]),
        cfi_variants=tuple(spec["cfi_variants"]),
        report_dir=box / "report",
        clean_cmd=spec["clean_cmd"],
        test_timeout=60.0,
    )
    result = heal(cfg)
    revert_patches(cfg)
    reverted = oracle.sources_identical(project, pristine, spec["sources"])
    exit_status = 1 if result.unresolvable else 0
    return result, oracle.check(spec, result.report, exit_status, reverted)


@pytest.fixture(scope="module")
def healed(tmp_path_factory):
    """One heal per workload, shared by the module's tests."""
    done: dict = {}

    def get(workload: str):
        if workload not in done:
            done[workload] = _heal(workload, tmp_path_factory.mktemp(workload))
        return done[workload]

    return get


@pytest.mark.parametrize(
    ("workload", "check"),
    [
        pytest.param(
            workload,
            check,
            id=f"{workload}-{check}",
            marks=[pytest.mark.xfail(reason=KNOWN_DEFECTS[workload, check], strict=True)]
            if (workload, check) in KNOWN_DEFECTS
            else [],
        )
        for workload in gen.GENERATORS
        for check in CHECKS
    ],
)
def test_oracle_check(healed, workload, check):
    assert healed(workload)[1][check]


def test_suite_fanout_heals_each_planted_violation_once(healed):
    result, checks = healed("suite_fanout")
    assert set(checks) == set(CHECKS)
    # One violation per planted one, and one CFI build per round: the
    # initial build, then one per rung the violations climb.
    assert len(result.violations) == 7
    assert result.ledger.build_attempts == 7


# Per workload: CFI builds, then each violation's status and the rungs it
# attempted, by level: the pins hold whatever spelling a pattern has.
PINS = {
    "suite_fanout": (7, [
        ("Fixed", (0,)),
        ("Fixed", (0, 1)),
        ("Fixed", (0, 1, 2)),
        ("Fixed", (0,)),
        ("Fixed", (0, 1, 2, 3)),
        ("Fixed", (0, 1, 2, 3, 4)),
        ("Unresolvable", (0, 1, 2, 3, 4)),
    ]),
    "wide_tree": (3, []),
    "cxx_static": (6, [
        ("Fixed", (0, 1, 2, 3)),
        ("Fixed", (0, 1, 2, 3)),
        ("Fixed", (0, 1, 2, 3)),
    ]),
}


@pytest.mark.parametrize("workload", PINS)
def test_violations_and_builds_are_pinned(healed, workload):
    result, _ = healed(workload)
    builds, rows = PINS[workload]
    assert result.ledger.build_attempts == builds
    assert [
        (v.status.value, tuple(level for level, _ in v.attempted)) for v in result.violations
    ] == rows
