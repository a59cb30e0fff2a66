"""Layer microbenchmarks that need no clang; writes BENCH_<layer>.json.

``--layer symbols`` (the default) times the symbolizer. For each target
binary it times, on a fresh ``Symbolizer`` each repeat:

- ``function_boundaries``: the full span list, with the disassembly heuristic;
- ``resolve_symtab_hit``: one ``resolve`` at the start of a symbol-table
  function, the cost of a trap address that never needs the heuristic;
- ``resolve_span_starts``: one ``resolve_many`` over every symbol-table span
  start, the shape of the account phase's file lookup.

Targets are ``libstdc++.so.6`` (found through ``g++ -print-file-name``), the
C++ symbolizer fixture of the test suite, built with
``g++ -g -O0 -fno-omit-frame-pointer``, and the ``bin/app`` of perfbench's
cxx_static workload at scale 1, seed 1, built by its own ``make``. Each
result also counts the subprocesses the operation started, by program.

``--layer census`` times ``census_by_function`` over textual IR shaped like
the bulk IR of perfbench's workloads (``perfbench/gen.py:_ir_bulk``), one
call per module, and reports MB/s.

``--layer repair`` times one pass of ``repair_until_buildable``: a build
(faked, so no compiler runs) fails on 1,000 undefined C symbols, defined in
1,000 of 2,000 generated source files whose other functions call them; the
pass locates and patches every definition. Each repeat runs on a fresh copy
of the tree.

It also times ``cross_dso_scan``: ``cross_dso_bindings`` over perfbench's
wide_tree workload at scale 1, seed 1, after its baseline build (its own
``make``), the scan a heal runs before its first instrumented build.

``--layer tracer`` times ``run_traced`` on ``/bin/true`` and on a two-exec
shell test shaped like perfbench's suite_fanout tests, with ``subprocess.run``
on the same commands as the untraced reference. Each repeat makes 200 calls;
it reports the median per-call wall time, this process's CPU per call
(``RUSAGE_SELF``, all its threads) and the threads started per call.

``--layer linker`` times ``parse_diagnostics`` over a synthetic build log of
about 4 MB: compiler command lines, each followed every few units by a GNU ld
report (``in function``, ``undefined reference``, ``hidden symbol ... is
referenced by DSO``) or an lld report (``undefined symbol`` or ``undefined
hidden symbol`` with its ``>>> referenced by`` lines), one unique symbol
each. It checks that every report parses to its diagnostic, and reports MB/s.

Run from the repository root, stdlib only:

    python3 bench/run.py                  # writes BENCH_symbols.json
    python3 bench/run.py --layer census   # writes BENCH_census.json
    python3 bench/run.py --layer tracer   # writes BENCH_tracer.json
    python3 bench/run.py --layer linker   # writes BENCH_linker.json
    python3 bench/run.py --layer repair --repeat 3 --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from cfiheal import repair, symbols  # noqa: E402
from cfiheal.build import (  # noqa: E402
    BuildKind,
    BuildMode,
    BuildOutcome,
    Diagnostic,
    DiagnosticKind,
    parse_diagnostics,
)
from cfiheal.config import ProjectConfig  # noqa: E402
from cfiheal.elf import ElfFile  # noqa: E402
from cfiheal.ircensus import census_by_function  # noqa: E402
from cfiheal.tracing import OutcomeKind, run_traced  # noqa: E402

CXX_FIXTURE = ROOT / "tests" / "fixtures" / "symbolizer" / "sample.cpp"


class _SpawnCounter:
    """Counts the programs symbols.py starts through subprocess.run."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.real = subprocess.run

    def __call__(self, argv, *args, **kwargs):
        self.counts[Path(argv[0]).name] += 1
        return self.real(argv, *args, **kwargs)


def _targets(tmp: Path) -> list[tuple[str, Path]]:
    targets = []
    libstdcxx = subprocess.run(
        ["g++", "-print-file-name=libstdc++.so.6"], capture_output=True, text=True
    ).stdout.strip()
    if libstdcxx and os.path.isabs(libstdcxx) and os.path.exists(libstdcxx):
        real = Path(os.path.realpath(libstdcxx))
        targets.append((real.name, real))
    fixture = tmp / "sample-cxx"
    subprocess.run(
        ["g++", "-g", "-O0", "-fno-omit-frame-pointer", "-o", str(fixture), str(CXX_FIXTURE)],
        check=True,
        capture_output=True,
    )
    targets.append((f"{CXX_FIXTURE.relative_to(ROOT)} (g++ -O0 -g)", fixture))
    project = tmp / "cxx_static"
    spec = gen.cxx_static(project, 1, sys.executable, ROOT / "perfbench" / "cfimodel.py")
    subprocess.run(spec.build_cmd, shell=True, cwd=project, check=True, capture_output=True)
    targets.append(("perfbench cxx_static bin/app (scale 1, seed 1)", project / "bin" / "app"))
    return targets


def _symtab_probe(binary: Path) -> int:
    """Start of the median-address sized function symbol."""
    starts = sorted({s.value for s in ElfFile(binary).function_symbols() if s.size > 0})
    return starts[len(starts) // 2]


def _time(op, repeat: int) -> tuple[list[float], Counter]:
    counter = _SpawnCounter()
    symbols.subprocess.run = counter
    try:
        times = []
        for _ in range(repeat):
            started = time.perf_counter()
            op(symbols.Symbolizer())
            times.append(time.perf_counter() - started)
    finally:
        symbols.subprocess.run = counter.real
    return times, counter.counts


def _summary(times: list[float]) -> dict:
    return {
        "median_s": round(statistics.median(times), 4),
        "min_s": round(min(times), 4),
        "max_s": round(max(times), 4),
    }


def bench_symbols(repeat: int) -> list[dict]:
    results = []
    with tempfile.TemporaryDirectory(prefix="bench-symbols-") as tmp:
        for target, binary in _targets(Path(tmp)):
            probe = _symtab_probe(binary)
            starts = [s.start for s in symbols.Symbolizer()._symtab_spans(binary)]
            ops = {
                "function_boundaries": lambda s: s.function_boundaries(binary),
                "resolve_symtab_hit": lambda s: s.resolve(binary, probe),
                "resolve_span_starts": lambda s: s.resolve_many(binary, starts),
            }
            spans = symbols.Symbolizer().function_boundaries(binary)
            for op, call in ops.items():
                times, spawns = _time(call, repeat)
                results.append(
                    {
                        "target": target,
                        "mb": round(binary.stat().st_size / 1e6, 3),
                        "spans": len(spans),
                        "op": op,
                        **_summary(times),
                        "spawns_per_call": {k: v / repeat for k, v in sorted(spawns.items())},
                    }
                )
    return results


CENSUS_MB = 4


def bench_census(repeat: int) -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="bench-census-") as tmp:
        writer = gen.ProjectWriter(Path(tmp))
        gen._ir_bulk(writer, gen.Names(random.Random("bench-census")), CENSUS_MB)
        texts = [p.read_text() for p in sorted(Path(tmp).rglob("*.ll"))]
    mb = sum(len(t) for t in texts) / 1e6
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        for text in texts:
            census_by_function(text, [])
        times.append(time.perf_counter() - started)
    summary = _summary(times)
    return [
        {
            "target": f"gen._ir_bulk IR, {len(texts)} modules",
            "mb": round(mb, 3),
            "op": "census_by_function",
            **summary,
            "mb_per_s": round(mb / summary["median_s"], 2),
        }
    ]


REPAIR_SYMBOLS, REPAIR_FILES = 1000, 2000


def _repair_tree(root: Path) -> list[str]:
    """The generated tree; returns the undefined symbols, each defined in one file."""
    names = gen.Names(random.Random("bench-repair"))
    targets = [names("api_", 10) for _ in range(REPAIR_SYMBOLS)]
    rng = random.Random("bench-repair-calls")
    for i in range(REPAIR_FILES):
        defines = [targets[i]] if i < REPAIR_SYMBOLS else []
        calls = rng.sample(targets, 2)
        path = root / f"pkg{i % 20:02d}" / f"src_{i:04d}.c"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(gen._vendored_c(names, calls, defines, 6))
    return targets


def bench_repair(repeat: int) -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="bench-repair-") as tmp:
        pristine = Path(tmp) / "pristine"
        targets = _repair_tree(pristine)
        mode = BuildMode(BuildKind.CFI, ("cfi-icall",), Path(tmp) / "ignorelist.txt")
        failed = BuildOutcome(
            False,
            mode,
            tuple(Diagnostic(DiagnosticKind.UNDEFINED_REFERENCE, t, None, "") for t in targets),
            (),
            None,
            0.0,
        )
        built = BuildOutcome(True, mode, (), (), None, 0.0)
        real_build = repair.run_build
        times, patches = [], 0
        counter = _SpawnCounter()
        symbols.subprocess.run = counter
        try:
            for r in range(repeat):
                project = Path(tmp) / f"project{r}"
                shutil.copytree(pristine, project)
                cfg = ProjectConfig(
                    project_root=project,
                    build_cmd="true",
                    test_cmd="true",
                    executables=("app",),
                    cfi_variants=("cfi-icall",),
                    report_dir=Path(tmp) / f"report{r}",
                )
                outcomes = iter([failed, built])
                repair.run_build = lambda cfg, mode, iteration: next(outcomes)
                started = time.perf_counter()
                _, ledger = repair.repair_until_buildable(cfg, mode)
                times.append(time.perf_counter() - started)
                patches = len(ledger.patches)
                shutil.rmtree(project)
        finally:
            repair.run_build = real_build
            symbols.subprocess.run = counter.real
    return [
        {
            "target": f"{REPAIR_SYMBOLS} undefined symbols over {REPAIR_FILES} generated .c files",
            "op": "repair_until_buildable (one pass)",
            "patches": patches,
            **_summary(times),
            "spawns_per_call": {k: v / repeat for k, v in sorted(counter.counts.items())},
        },
        bench_cross_dso_scan(repeat),
    ]


def bench_cross_dso_scan(repeat: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-scan-") as tmp:
        project = Path(tmp) / "wide_tree"
        spec = gen.wide_tree(project, 1, sys.executable, ROOT / "perfbench" / "cfimodel.py")
        marker = Path(tmp) / "started"
        marker.write_text("")
        since = marker.stat().st_mtime_ns
        subprocess.run(spec.build_cmd, shell=True, cwd=project, check=True, capture_output=True)
        files = sum(len(names) for _, _, names in os.walk(project))
        times = []
        for _ in range(repeat):
            started = time.perf_counter()
            found = repair.cross_dso_bindings(project, since)
            times.append(time.perf_counter() - started)
    return {
        "target": f"perfbench wide_tree after its baseline build (scale 1, seed 1), {files} files",
        "op": "cross_dso_scan",
        "symbols": len(found),
        **_summary(times),
    }


TRACER_CALLS = 200
TRACER_COMMANDS = {
    "/bin/true": ["/bin/true"],
    "2-exec shell test": "/bin/true a 7 >/dev/null && /bin/true b 7 >/dev/null",
}


def _traced(cmd) -> None:
    outcome = run_traced(cmd, 10)
    if outcome.kind is not OutcomeKind.EXITED or outcome.exit_status != 0:
        raise RuntimeError(f"{cmd!r}: {outcome}")


def _untraced(cmd) -> None:
    null = subprocess.DEVNULL
    subprocess.run(
        cmd, shell=isinstance(cmd, str), check=True, stdin=null, stdout=null, stderr=null
    )


def bench_tracer(repeat: int) -> list[dict]:
    results = []
    real_start = threading.Thread.start
    for target, cmd in TRACER_COMMANDS.items():
        for op, call in (("run_traced", _traced), ("subprocess.run", _untraced)):
            started = 0

            def counting_start(thread):
                nonlocal started
                started += 1
                real_start(thread)

            call(cmd)  # warm-up
            walls, cpus = [], []
            threading.Thread.start = counting_start
            try:
                for _ in range(repeat):
                    before = resource.getrusage(resource.RUSAGE_SELF)
                    t0 = time.perf_counter()
                    for _ in range(TRACER_CALLS):
                        call(cmd)
                    walls.append((time.perf_counter() - t0) / TRACER_CALLS)
                    after = resource.getrusage(resource.RUSAGE_SELF)
                    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
                    cpus.append(cpu / TRACER_CALLS)
            finally:
                threading.Thread.start = real_start
            results.append(
                {
                    "target": target,
                    "op": op,
                    "calls_per_repeat": TRACER_CALLS,
                    "median_ms": round(statistics.median(walls) * 1e3, 3),
                    "min_ms": round(min(walls) * 1e3, 3),
                    "max_ms": round(max(walls) * 1e3, 3),
                    "cpu_ms_per_call": round(statistics.median(cpus) * 1e3, 3),
                    "threads_per_call": started / (repeat * TRACER_CALLS),
                }
            )
    return results


LINKER_MB = 4
# One failing link each: GNU ld 12 and lld 14 spellings, as in tests/test_build.py.
LINKER_REPORTS = (
    "/usr/bin/ld: obj/{u}.o: in function `{u}_main':\n"
    "src/{u}.c:(.text+0x15): undefined reference to `{sym}'\n"
    "collect2: error: ld returned 1 exit status\n",
    "/usr/bin/ld: bin/{u}: hidden symbol `{sym}' in obj/{u}.o is referenced by DSO\n"
    "/usr/bin/ld: final link failed: bad value\n",
    "ld.lld: error: undefined symbol: {sym}\n"
    ">>> referenced by {u}.c\n"
    ">>>               obj/{u}.o:({u}_main)\n"
    "clang: error: linker command failed with exit code 1 (use -v to see invocation)\n",
    "ld.lld: error: undefined hidden symbol: {sym}\n"
    ">>> referenced by {u}.c\n"
    ">>>               obj/{u}.o:({u}_main)\n",
)


def _linker_log() -> tuple[str, int]:
    """The synthetic log and the number of diagnostics naming a planted symbol."""
    names = gen.Names(random.Random("bench-linker"))
    parts: list[str] = []
    size = units = planted = 0
    while size < LINKER_MB * 1e6:
        u = names("unit_", 8)
        part = (
            f"clang -fsanitize=cfi-icall -fvisibility=hidden -flto -g -O2 -Iinclude "
            f"-c src/{u}.c -o obj/{u}.o\n"
        )
        if units % 3 == 0:  # every third unit fails to link
            part += LINKER_REPORTS[planted % len(LINKER_REPORTS)].format(u=u, sym=f"{u}_api")
            planted += 1
        units += 1
        parts.append(part)
        size += len(part)
    return "".join(parts), planted


def bench_linker(repeat: int) -> list[dict]:
    log, planted = _linker_log()
    found = [d for d in parse_diagnostics(log) if d.symbol and d.symbol.endswith("_api")]
    if len(found) != planted:
        raise RuntimeError(f"parse_diagnostics found {len(found)} of {planted} planted symbols")
    mb = len(log) / 1e6
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        parse_diagnostics(log)
        times.append(time.perf_counter() - started)
    summary = _summary(times)
    return [
        {
            "target": f"synthetic GNU ld and lld log, {planted} failing references",
            "mb": round(mb, 3),
            "op": "parse_diagnostics",
            **summary,
            "mb_per_s": round(mb / summary["median_s"], 2),
        }
    ]


LAYERS = {
    "symbols": bench_symbols,
    "census": bench_census,
    "repair": bench_repair,
    "tracer": bench_tracer,
    "linker": bench_linker,
}


def _host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "system": f"{platform.system()} {platform.machine()}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--layer", choices=sorted(LAYERS), default="symbols")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per operation")
    parser.add_argument("--out", type=Path, help="default: BENCH_<layer>.json at the repository root")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    report = {
        "label": args.layer,
        "host": _host(),
        "repeat": args.repeat,
        "results": LAYERS[args.layer](args.repeat),
    }
    out = args.out or ROOT / f"BENCH_{args.layer}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for r in report["results"]:
        keys = ("mb_per_s", "patches", "symbols", "spawns_per_call", "cpu_ms_per_call", "threads_per_call")
        extra = {k: r[k] for k in keys if k in r}
        median = f"{r['median_s']:.4f} s" if "median_s" in r else f"{r['median_ms']:.3f} ms"
        print(f"{r['target']}: {r['op']} median {median} {extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
