"""heal() end to end on each benchmark workload, through the gcc CFI model.

perfbench's generator writes a small C/C++ project (scale 0.3, as in its
self-check) whose builds go through ``cfimodel.py``, a gcc wrapper that
models clang's CFI checks, so these heals need no clang. Each heal is scored
by the generator's 12 oracle checks, and every check passes on every
workload.

The visibility repair planned from the baseline's cross-DSO bindings must
end where a repair driven by linker diagnostics alone ends, in fewer
builds; the chain fixture is the non-gated twin of acceptance criterion 8.
Likewise a ladder that skips the fun: rungs the IR census shows hold no
check, or whose name carries a link-time suffix, and the src: rungs whose
file the DWARF shows defines only functions without a check, must end
where a ladder that tries those rungs ends.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from cfiheal import build, escalation, harness, pipeline, symbols
from cfiheal.build import BuildMode
from cfiheal.config import ProjectConfig
from cfiheal.ignorelist import FUN_LEVELS
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
def dwarf_reads() -> dict[str, list[str]]:
    """Per workload, the file name of each binary whose DWARF its shared heal read."""
    return {}


@pytest.fixture(scope="module")
def healed(tmp_path_factory, dwarf_reads):
    """One heal per workload, shared by the module's tests."""
    done: dict = {}

    def get(workload: str):
        if workload not in done:
            reads = dwarf_reads.setdefault(workload, [])
            real = symbols.read_definitions

            def recording(binary):
                reads.append(Path(binary).name)
                return real(binary)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(symbols, "read_definitions", recording)
                done[workload] = _heal(workload, tmp_path_factory.mktemp(workload))
        return done[workload]

    return get


@pytest.mark.parametrize(
    ("workload", "check"),
    [
        pytest.param(workload, check, id=f"{workload}-{check}")
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
    # function or a file with no check are skipped, so every violation
    # settles in the first round, whose list is the final one: no rebuild
    # follows it.
    assert len(result.violations) == 7
    assert all(len(v.attempted) <= 1 for v in result.violations)
    assert result.ledger.build_attempts == 2


# Per workload: CFI builds, then each violation's status and the rungs it
# attempted, by level: the pins hold whatever spelling a pattern has.
# A renamed static (a ".1" suffix, which no compile-time entry matches)
# never gets a fun: rung: suite_fanout's V5 fault function and V6 caller
# are such statics. Nor does a file whose functions hold no check get a
# src: rung: V6's fault file and both files of V7's src: rungs are such
# files, so V7 ends Unresolvable without a build. cxx_static's fun:
# patterns are spelled mangled, as clang and the census spell them: two
# violations are fixed at L0, and the renamed static skips its own rung and
# its check-free caller rungs on its way to L3, so the heal takes one CFI
# build per rung climbed after L0.
PINS = {
    "suite_fanout": (2, [
        ("Fixed", (0,)),
        ("Fixed", (1,)),
        ("Fixed", (2,)),
        ("Fixed", (0,)),
        ("Fixed", (3,)),
        ("Fixed", (4,)),
        ("Unresolvable", ()),
    ]),
    "wide_tree": (1, []),
    "cxx_static": (2, [
        ("Fixed", (0,)),
        ("Fixed", (0,)),
        ("Fixed", (3,)),
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
DIAGNOSTIC_ONLY_BUILDS = {"suite_fanout": 2, "wide_tree": 3, "cxx_static": 3}


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


def _tried_in_vain(violation) -> set:
    """The rungs a violation tried and did not end fixed at."""
    return {level for level, _ in violation.attempted if level != violation.fixed_level}


# CFI builds of a heal whose ladder tries every rung that has an identity and
# no link-time name.
UNGUIDED_BUILDS = {"suite_fanout": 7, "wide_tree": 1, "cxx_static": 4}


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
        assert skipped <= _tried_in_vain(u)


# Binaries whose DWARF a heal reads: only a src: rung that no frame of its
# violation settles reads it, and each binary once per view of it.
DWARF_READS = {"suite_fanout": ["tool_b"], "wide_tree": [], "cxx_static": []}


@pytest.mark.parametrize("workload", PINS)
def test_dwarf_is_read_only_for_src_rungs_no_frame_settles(healed, dwarf_reads, workload):
    healed(workload)
    assert dwarf_reads[workload] == DWARF_READS[workload]


# CFI builds of a heal whose ladder tries src: rungs whose file holds no check.
FILES_TRIED_BUILDS = {"suite_fanout": 4, "wide_tree": 1, "cxx_static": 2}


@pytest.mark.parametrize("workload", PINS)
def test_skipping_check_free_files_ends_where_trying_them_ends(
    healed, workload, tmp_path, monkeypatch
):
    skipping, skipping_checks = healed(workload)
    monkeypatch.setattr(pipeline, "_file_check_free", lambda run, violation, file: False)
    trying, checks = _heal(workload, tmp_path)
    assert _outcome(trying) == _outcome(skipping)
    assert checks == skipping_checks
    assert trying.ledger.build_attempts == FILES_TRIED_BUILDS[workload]
    # Each src: rung skipped for want of a check, the heal that tries them tried in vain.
    for s, t in zip(skipping.violations, trying.violations):
        skipped = {
            level
            for level, reason in s.skipped_levels
            if reason == "no CFI check in scope" and level not in FUN_LEVELS
        }
        assert skipped <= _tried_in_vain(t)


# CFI builds of a heal whose ladder also tries fun: rungs with a link-time name.
LINK_TIME_TRIED_BUILDS = {"suite_fanout": 3, "wide_tree": 1, "cxx_static": 3}


@pytest.mark.parametrize("workload", PINS)
def test_skipping_link_time_names_ends_where_trying_them_ends(
    healed, workload, tmp_path, monkeypatch
):
    skipping, skipping_checks = healed(workload)
    monkeypatch.setattr(escalation, "link_time_suffix", lambda name: "")
    trying, checks = _heal(workload, tmp_path)
    assert _outcome(trying) == _outcome(skipping)
    assert checks == skipping_checks
    assert trying.ledger.build_attempts == LINK_TIME_TRIED_BUILDS[workload]
    # Each rung skipped for its link-time name, the heal that tries them tried in vain.
    for s, t in zip(skipping.violations, trying.violations):
        skipped = {level for level, reason in s.skipped_levels if reason == "link-time name"}
        assert skipped <= _tried_in_vain(t)


@pytest.mark.parametrize("workload", PINS)
def test_one_cpu_and_two_cpu_heals_write_the_same_report(workload, tmp_path, monkeypatch):
    # Both heals run in the same directory, so paths in the report agree too.
    box, reports, jobs, makeflags = tmp_path / "box", [], [], []
    real, real_step = harness.run_traced_many, build._run_step

    def recording(cmds, timeout, **kwargs):
        jobs.append(kwargs["jobs"])
        return real(cmds, timeout, **kwargs)

    def recording_step(cmd, cwd, env, sink, used):
        makeflags.append(env.get("MAKEFLAGS"))
        return real_step(cmd, cwd, env, sink, used)

    monkeypatch.delenv("MAKEFLAGS", raising=False)
    monkeypatch.setattr(harness, "run_traced_many", recording)
    monkeypatch.setattr(build, "_run_step", recording_step)
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        box.mkdir()
        jobs.clear()
        makeflags.clear()
        _, checks = _heal(workload, box)
        assert all(checks.values())
        assert set(jobs) == {len(cpus)}
        assert makeflags and set(makeflags) == {f"-j{len(cpus)} -k -Otarget"}
        report = json.loads((box / "report" / "report.json").read_text())
        assert report.pop("duration")
        reports.append(report)
        shutil.rmtree(box)
    assert reports[0] == reports[1]


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


# The twin fixture: app_a and app_b each link one hidden symbol of the shared
# libbase.so. The two links are independent, so under make's -k both fail in
# the same build, in whatever order the jobs end; the repair patches both
# symbols in one pass, in sorted order. A build that stopped at the first
# failed link took one build per link.


def test_twin_links_heal_in_one_diagnostic_pass_at_any_cpu_count(tmp_path, monkeypatch):
    monkeypatch.delenv("MAKEFLAGS", raising=False)
    monkeypatch.setattr(pipeline, "cross_dso_bindings", lambda root, since_ns: [])
    box, reports = tmp_path / "box", []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        box.mkdir()
        root = copy_fixture("twin", box)
        cfg = make_config(
            root,
            box / "reports",
            build_cmd=gen._wrapped_make(sys.executable, PERFBENCH / "cfimodel.py", "all"),
            executables=("app_a", "app_b"),
            extra_compile_flags=(),
        )
        result = heal(cfg)
        assert result.report["tests"]["pass"] == result.report["tests"]["total"] == 2
        assert result.unresolvable == 0
        ledger = result.ledger
        assert ledger.build_attempts == 2
        assert ledger.iterations_build_phase == 1
        assert [(p.iteration, p.symbol, p.file) for p in ledger.patches] == [
            (1, "base_a", "base.c"),
            (1, "base_b", "base.c"),
        ]
        report = json.loads((box / "reports" / "report.json").read_text())
        assert report.pop("duration")
        reports.append(report)
        shutil.rmtree(box)
    assert reports[0] == reports[1]
