"""One heal() in a fresh process, measured and checked against the oracle.

Usage: python3 heal_worker.py <job.json>

The job names the package source directory, the project copy to heal, the
report directory, the pristine copy, the spec written by the generator, and
whether to install the layer tracer. The result, as JSON, goes to the job's
``result`` path.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _untraced_ratio(traced_runs: dict[str, float], project: Path) -> float:
    """Traced time of each test command over one plain subprocess run of it."""
    traced = plain = 0.0
    for cmd, seconds in traced_runs.items():
        started = time.perf_counter()
        subprocess.run(cmd, shell=True, cwd=project, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=False)
        plain += time.perf_counter() - started
        traced += seconds
    return traced / plain if plain else 0.0


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from cfiheal import pipeline
    from cfiheal.config import ProjectConfig
    from cfiheal.repair import revert_patches

    spec = json.loads(Path(job["spec"]).read_text())
    project = Path(job["project"]).resolve()
    cfg = ProjectConfig(
        project_root=project,
        build_cmd=spec["build_cmd"],
        test_cmd=spec["test_cmd"],
        executables=tuple(spec["executables"]),
        cfi_variants=tuple(spec["cfi_variants"]),
        report_dir=Path(job["report"]).resolve(),
        clean_cmd=spec["clean_cmd"],
        test_timeout=60.0,
    )
    tracer = None
    if job["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    try:
        result = pipeline.heal(cfg)
    except Exception as exc:  # a failed heal is counted, never fatal
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    heal_s = time.perf_counter() - started
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    report = result.report
    out = {
        "ok": True,
        "heal_s": heal_s,
        "cfiheal_cpu_s": _cpu(self1) - _cpu(self0),
        "child_cpu_s": _cpu(children1) - _cpu(children0),
        "peak_rss_mb": self1.ru_maxrss / 1024.0,
        "rebuilds": result.ledger.build_attempts,
        "ignorelist": report["ignorelist"],
        "ignorelist_mismatch": oracle.ignorelist_mismatch(spec, report),
        "ignorelist_jaccard": oracle.ignorelist_jaccard(spec, report),
        "repair.patches": len(result.ledger.patches),
        "repair.ambiguities": len(result.ledger.ambiguities),
        "census": {k: report["census"][k] for k in oracle.CATEGORIES},
        "escalation.violations": len(result.violations),
        "escalation.rungs_attempted": sum(len(v.attempted) for v in result.violations),
        "escalation.rungs_skipped": sum(len(v.skipped_levels) for v in result.violations),
        "ignorelist.entries_final": len(report["ignorelist"]),
    }
    if tracer is not None:
        out["layers"] = tracer.stats()
        out["layer_self_s"] = tracer.layer_self_time()
        out["layers"]["tracing.overhead_ratio"] = _untraced_ratio(tracer.traced_runs, project)
        out["spans"] = [[s.name, s.parent, s.start, s.end] for s in tracer.spans]

    revert_patches(cfg)
    reverted = oracle.sources_identical(project, Path(job["pristine"]), spec["sources"])
    checks = oracle.check(spec, report, 1 if result.unresolvable else 0, reverted)
    out["checks"] = checks
    out["oracle_pass_share"] = sum(checks.values()) / len(checks)
    out["fail_share"] = 1.0 - out["oracle_pass_share"]
    return out


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    Path(job["result"]).write_text(json.dumps(run(job)))


if __name__ == "__main__":
    main()
