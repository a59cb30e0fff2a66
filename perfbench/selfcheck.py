"""The benchmark's own checks, on a small project of each workload.

Usage (from the repository root):

    python3 perfbench/selfcheck.py [--workload <name>] [--seed <n>]

Model fidelity: for every modelled violation, the frames the tracer captures
and the symbolizer names are the generator's call chain; the oracle entry
alone suppresses the check, and the entry of the next narrower rung alone
does not (for a violation no rung heals, no rung entry suppresses it). The
baseline build passes every test.

Repeatability: two heals of the same seed give the same counts (rebuilds,
ignorelist, mismatch, patches, census totals, violations).

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run as bench  # noqa: E402
from cfiheal.build import BuildMode, run_build  # noqa: E402
from cfiheal.config import ProjectConfig  # noqa: E402
from cfiheal.pipeline import _symbolize_trap  # noqa: E402
from cfiheal.repair import repair_until_buildable  # noqa: E402
from cfiheal.symbols import Symbolizer  # noqa: E402
from cfiheal.tracing import run_traced  # noqa: E402

SCALE = 0.3
COUNTS = (
    "rebuilds", "ignorelist", "ignorelist_mismatch", "repair.patches", "repair.ambiguities",
    "census", "escalation.violations", "escalation.rungs_attempted",
)


class Checker:
    def __init__(self) -> None:
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"  [{'PASS' if ok else 'FAIL'}] {what}")
        self.failures += not ok


def _config(project: Path, report: Path, spec: gen.Spec) -> ProjectConfig:
    return ProjectConfig(
        project_root=project, build_cmd=spec.build_cmd, test_cmd=spec.test_cmd,
        executables=tuple(spec.executables), cfi_variants=tuple(spec.cfi_variants),
        report_dir=report, clean_cmd=spec.clean_cmd, test_timeout=60.0,
    )


def _build(cfg, entries: list[str] | None):
    """Baseline build when entries is None, else a CFI build with just these entries."""
    if entries is None:
        mode = BuildMode.baseline()
    else:
        path = cfg.report_dir / "cfi.ignorelist"
        cfg.report_dir.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{e}\n" for e in entries))
        mode = BuildMode.cfi(cfg.cfi_variants, path)
    outcome = run_build(cfg, mode)
    if not outcome.succeeded:
        raise RuntimeError(f"build failed; see {outcome.log_path}")
    return outcome


def _tests(project: Path) -> dict[str, str]:
    lines = (project / "tests" / "list.tsv").read_text().splitlines()
    return {tid: cmd for _, tid, cmd in (line.split("\t", 2) for line in lines)}


def _trap(cfg, command: str):
    outcome = run_traced(command, cfg.test_timeout, cwd=cfg.project_root)
    return outcome.trap if outcome.kind.value == "Trapped" else None


def _relative(project: Path, info) -> str | None:
    if info is None or info.source_file is None:
        return None
    try:
        return str(Path(info.source_file).resolve().relative_to(project.resolve()))
    except ValueError:
        return info.source_file


def check_fidelity(checker: Checker, workload: str, seed: int, work: Path) -> None:
    project = work / "fidelity"
    spec = gen.GENERATORS[workload](project, seed, sys.executable, HERE / "cfimodel.py", SCALE)
    cfg = _config(project.resolve(), (work / "fidelity-report").resolve(), spec)
    tests = _tests(project)
    _build(cfg, None)
    clean = [tid for tid, cmd in tests.items() if _trap(cfg, cmd) is None]
    checker.expect(len(clean) == len(tests), f"{workload}: baseline build passes all {len(tests)} tests")
    # Repair once, so the hidden-symbol links of the CFI builds below stand.
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    (cfg.report_dir / "cfi.ignorelist").write_text("")
    outcome, _ = repair_until_buildable(cfg, BuildMode.cfi(cfg.cfi_variants, cfg.report_dir / "cfi.ignorelist"))
    checker.expect(outcome.succeeded, f"{workload}: CFI build stands after visibility repair")

    symbolizer = Symbolizer()
    for v in spec.violations:
        command = tests[v.test_ids[0]]
        trap = _trap(cfg, command)
        checker.expect(trap is not None, f"{v.vid}: traps with no ignorelist")
        if trap is None:
            continue
        _, _, callee, caller, callers_caller = _symbolize_trap(symbolizer, trap)
        seen = tuple(i.function if i else None for i in (callee, caller, callers_caller))
        files = (_relative(cfg.project_root, callee), _relative(cfg.project_root, caller))
        checker.expect(seen == v.chain, f"{v.vid}: traced chain {seen} is {v.chain}")
        checker.expect(files == v.chain_files, f"{v.vid}: chain files {files} are {v.chain_files}")

    for v in spec.violations:
        command = tests[v.test_ids[0]]
        if v.rung is None:
            for k, entry in enumerate(v.rungs):
                _build(cfg, [entry])
                checker.expect(_trap(cfg, command) is not None, f"{v.vid}: L{k} {entry} alone does not suppress")
            continue
        _build(cfg, [v.oracle_entry])
        checker.expect(_trap(cfg, command) is None, f"{v.vid}: oracle L{v.rung} {v.oracle_entry} alone suppresses")
        if v.rung > 0:
            narrower = v.rungs[v.rung - 1]
            _build(cfg, [narrower])
            checker.expect(_trap(cfg, command) is not None, f"{v.vid}: L{v.rung - 1} {narrower} alone does not")


def check_repeatable(checker: Checker, workload: str, seed: int, work: Path) -> None:
    pristine = work / "pristine"
    spec = gen.GENERATORS[workload](pristine, seed, sys.executable, HERE / "cfimodel.py", SCALE)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    deadline = time.monotonic() + 600
    runs = [bench.heal_once(work, pristine, spec_path, i, False, deadline) for i in (0, 1)]
    for i, r in enumerate(runs):
        checker.expect(r["ok"], f"{workload}: heal {i} completes ({r.get('error', 'ok')})")
    if all(r["ok"] for r in runs):
        for key in COUNTS:
            a, b = runs[0][key], runs[1][key]
            checker.expect(a == b, f"{workload}: {key} repeats ({a} / {b})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench.preflight()
    checker = Checker()
    work = ROOT / ".perfbench_work" / f"selfcheck-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        for workload in [args.workload] if args.workload else sorted(gen.GENERATORS):
            print(f"{workload} (seed {args.seed}, scale {SCALE})")
            box = work / workload
            box.mkdir(parents=True)
            check_fidelity(checker, workload, args.seed, box)
            check_repeatable(checker, workload, args.seed, box)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{checker.failures} check(s) failed")
    return 1 if checker.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
