"""heal() end to end on each benchmark workload, through the gcc CFI model.

perfbench's generator writes a small C/C++ project (scale 0.3, as in its
self-check) whose builds go through ``cfimodel.py``, a gcc wrapper that
models clang's CFI checks, so these heals need no clang. Each heal is scored
by the generator's 12 oracle checks. A check that a known defect fails is a
strict xfail, so the fix of that defect shows as an unexpected pass.

The visibility repair planned from the baseline's cross-DSO bindings must
end where a repair driven by linker diagnostics alone ends, in fewer
builds; the chain fixture is the non-gated twin of acceptance criterion 8.
Likewise a ladder that skips the fun: rungs the IR census shows hold no
check must end where a ladder that tries every rung ends.
"""

import shutil
import sys
from pathlib import Path

import pytest

from cfiheal import pipeline
from cfiheal.build import BuildMode
from cfiheal.config import ProjectConfig
from cfiheal.pipeline import heal
from cfiheal.repair import repair_until_buildable, revert_patches

from conftest import copy_fixture, make_config

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
    # initial build, then one per rung the violations climb. Rungs naming a
    # function with no check are skipped, so the longest climb is 3 rungs.
    assert len(result.violations) == 7
    assert result.ledger.build_attempts == 4


# Per workload: CFI builds, then each violation's status and the rungs it
# attempted, by level: the pins hold whatever spelling a pattern has.
# cxx_static's fun: patterns are spelled demangled, so no census name
# matches them and none of its rungs is skipped.
PINS = {
    "suite_fanout": (4, [
        ("Fixed", (0,)),
        ("Fixed", (1,)),
        ("Fixed", (2,)),
        ("Fixed", (0,)),
        ("Fixed", (0, 3)),
        ("Fixed", (1, 3, 4)),
        ("Unresolvable", (3, 4)),
    ]),
    "wide_tree": (1, []),
    "cxx_static": (5, [
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


@pytest.mark.parametrize("workload", PINS)
def test_each_cfi_build_leaves_its_own_log(healed, workload):
    result, _ = healed(workload)
    report_dir = result.report_paths[0].parent
    logs = list(report_dir.glob("build-cfi-*.log"))
    assert len(logs) == result.ledger.build_attempts


def _signature(result) -> dict:
    """What a heal decided, apart from the directory it ran in."""
    report = result.report
    return {
        "patches": sorted((p.symbol, p.file, p.line) for p in result.ledger.patches),
        "skipped": sorted(result.ledger.skipped),
        "ambiguities": sorted(result.ledger.ambiguities),
        "ignorelist": report["ignorelist"],
        "violations": [
            {k: v for k, v in row.items() if k != "binary"}
            for row in report["violations"]["details"]
        ],
        "coverage": report["coverage"],
        "census": report["census"],
    }


# CFI builds of a heal whose repair reads linker diagnostics only.
DIAGNOSTIC_ONLY_BUILDS = {"suite_fanout": 4, "wide_tree": 3, "cxx_static": 6}


@pytest.mark.parametrize("workload", PINS)
def test_planned_heal_matches_a_diagnostic_only_heal(healed, workload, tmp_path, monkeypatch):
    planned, _ = healed(workload)
    monkeypatch.setattr(pipeline, "cross_dso_bindings", lambda root, since_ns: [])
    diagnosed, checks = _heal(workload, tmp_path)
    assert _signature(diagnosed) == _signature(planned)
    assert checks["revert_byte_exact"]
    assert diagnosed.ledger.build_attempts == DIAGNOSTIC_ONLY_BUILDS[workload]


@pytest.mark.parametrize("workload", ["wide_tree", "cxx_static"])
def test_a_plan_short_of_a_symbol_ends_the_same_one_build_later(
    healed, workload, tmp_path, monkeypatch
):
    planned, _ = healed(workload)
    dropped = min(p.symbol for p in planned.ledger.patches)
    real = pipeline.cross_dso_bindings

    def short_plan(root, since_ns):
        plan = real(root, since_ns)
        assert dropped in plan
        return [s for s in plan if s != dropped]

    monkeypatch.setattr(pipeline, "cross_dso_bindings", short_plan)
    mutated, checks = _heal(workload, tmp_path)
    assert _signature(mutated) == _signature(planned)
    assert checks["revert_byte_exact"]
    assert mutated.ledger.build_attempts == planned.ledger.build_attempts + 1
    assert [p.symbol for p in mutated.ledger.patches if p.iteration == 2] == [dropped]


def _outcome(result) -> dict:
    """What a heal ended with, apart from the rungs it tried on the way."""
    report = result.report
    return {
        "ignorelist": report["ignorelist"],
        "violations": [(v.id, v.status.value, v.ladder_level.short) for v in result.violations],
        "coverage": report["coverage"],
        "census": report["census"],
    }


# CFI builds of a heal whose ladder tries every rung it has an identity for.
UNGUIDED_BUILDS = {"suite_fanout": 7, "wide_tree": 1, "cxx_static": 5}


@pytest.mark.parametrize("workload", PINS)
def test_guided_ladder_ends_where_the_unguided_ladder_ends(
    healed, workload, tmp_path, monkeypatch
):
    guided, guided_checks = healed(workload)
    monkeypatch.setattr(pipeline, "_check_free", lambda variants, per_function: frozenset())
    unguided, checks = _heal(workload, tmp_path)
    assert _outcome(unguided) == _outcome(guided)
    assert checks == guided_checks
    assert unguided.ledger.build_attempts == UNGUIDED_BUILDS[workload]
    # Each rung the guided ladder skipped for want of a check, the unguided one tried in vain.
    for g, u in zip(guided.violations, unguided.violations):
        skipped = {level for level, reason in g.skipped_levels if reason == "no CFI check in scope"}
        assert skipped <= {level for level, _ in u.attempted}


# The chain fixture: app -> libfoo.so -> libbar.so, each link failing under
# -fvisibility=hidden. app links with --disable-new-dtags, so its rpath is a
# DT_RPATH, which also reaches libfoo.so's own dependency on libbar.so; a
# DT_RUNPATH would not.


def _heal_chain(tmp_path):
    root = copy_fixture("chain", tmp_path)
    cfg = make_config(
        root,
        tmp_path / "reports",
        build_cmd=gen._wrapped_make(sys.executable, PERFBENCH / "cfimodel.py", "app"),
        extra_compile_flags=(),
    )
    result = heal(cfg)
    assert result.report["tests"]["pass"] == result.report["tests"]["total"] == 1
    assert result.unresolvable == 0
    return cfg, result


def test_chain_heals_in_one_planned_pass(tmp_path):
    cfg, result = _heal_chain(tmp_path)
    ledger = result.ledger
    assert ledger.build_attempts == 1
    assert ledger.iterations_build_phase == 1
    assert [(p.iteration, p.symbol, p.file) for p in ledger.patches] == [
        (1, "bar_helper", "bar.c"),
        (1, "foo_api", "foo.c"),
    ]
    # Another repair over the patched tree has nothing left to patch.
    mode = BuildMode.cfi(cfg.cfi_variants, cfg.report_dir / "cfi.ignorelist")
    outcome, again = repair_until_buildable(cfg, mode)
    assert outcome.succeeded
    assert again.patches == []
    assert again.iterations_build_phase == 0


def test_chain_without_a_plan_takes_a_build_per_link(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "cross_dso_bindings", lambda root, since_ns: [])
    _, result = _heal_chain(tmp_path)
    ledger = result.ledger
    assert ledger.build_attempts == 3
    assert ledger.iterations_build_phase == 2
    assert [(p.iteration, p.symbol, p.file) for p in ledger.patches] == [
        (1, "bar_helper", "bar.c"),
        (2, "foo_api", "foo.c"),
    ]
