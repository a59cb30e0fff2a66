"""Layer microbenchmarks that need no clang; writes BENCH_<layer>.json.

``--layer symbols`` (the default) times the symbolizer. For each target
binary it times, on a fresh ``Symbolizer`` each repeat:

- ``resolve_symtab_hit``: one ``resolve`` at the start of a symbol-table
  function, the cost of one trap address;
- ``resolve_span_starts``: one ``resolve_many`` over every symbol-table span
  start, the shape of the account phase's file lookup.

Targets are ``libstdc++.so.6`` (found through ``g++ -print-file-name``), the
C++ symbolizer fixture of the test suite, built with
``g++ -g -O0 -fno-omit-frame-pointer``, and the ``bin/app`` of perfbench's
cxx_static workload at scale 1, seed 1, built by its own ``make``.

It also times ``symbolize_trap_in_main``: the pipeline's ``_symbolize_trap``
on the trap of a ``gcc -O0 -g -fno-omit-frame-pointer`` binary whose
``main`` runs ``__builtin_trap()``, caught once by ``run_traced``. The call
gets ``Symbolizer(project)``, rooted at the binary's directory as ``heal``
roots it, so the caller frame in the C library is left unresolved.
``symbolize_trap_in_main_all_frames`` is the same call on a ``Symbolizer()``
without a project root, which resolves that frame too.

``function_boundaries`` on a large debug-built binary times the view a
trap's first frame builds: the ``gcc -O0 -g`` trap-in-main binary with a
16 MiB non-alloc section added by ``objcopy --add-section``. Besides its
times it reports ``view_mb``, the tracemalloc size of what the
``Symbolizer`` holds afterwards, and ``peak_mb``, the peak of the call.

``definitions_by_file`` times the table of function definitions by file
that a ``src:`` rung reads, one ``llvm-dwarfdump --debug-info`` streamed
per binary view, on the cxx_static ``bin/app`` and on the ``bin/tool_b`` of
perfbench's suite_fanout workload at scale 1, seed 1, built by its own
``make``. Each result also counts the subprocesses the operation started,
by program.

``--layer census`` times ``census_by_function`` over textual IR shaped like
the bulk IR of perfbench's workloads (``perfbench/gen.py:_ir_bulk``), one
call per module: on each module's text, read beforehand, and on each file
streamed through ``read_ir_lines``. ``_walk`` times the walk alone, over
each module's lines split beforehand, so parsing shows apart from decoding.
A row on C++-shaped IR (``gen._cxx_namespace``, mangled names and the
virtual-call idiom, about 1 MB) streams each file too, so a fast path that
only suits the bulk shape shows up, and so does a row on IR shaped like
clang's for plain C (about 1 MB): direct calls ``%r = call i32 @f(...)``
between loads, stores and adds, and no indirect site. The last row times
the check that stays on heal's critical path once the census has run in
the background: ``_Census.current`` lists the same IR files again and reads
each one's bytes and CRC-32 (``pipeline._fingerprint``), all in one call.
Each row reports MB/s and the largest tracemalloc peak of one call, in MB;
the text or lines of the first and third rows are allocated before their
calls, so their peaks leave them out.

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
(``RUSAGE_SELF``, all its threads) and the threads started per call. The
two-exec test also runs 200 times as one ``run_traced_many`` batch, at jobs 1
and at the number of CPUs this process may run on; those rows report wall
time and CPU per test. The last row runs one suite_fanout-sized batch the way
a heal does: ``harness.run_cases`` on 130 two-exec tests, each with its own
arguments, the project root as working directory. The traced two-exec rows
also report the wait statuses the monitor consumed per test, counted by
wrapping ``os.waitpid`` during the untimed warm-up, and the monitor's CPU per
status, the CPU per test divided by that count.

``--layer linker`` times ``parse_diagnostics`` over a synthetic build log of
about 4 MB: compiler command lines, each followed every few units by a GNU ld
report (``in function``, ``undefined reference``, ``hidden symbol ... is
referenced by DSO``) or an lld report (``undefined symbol`` or ``undefined
hidden symbol`` with its ``>>> referenced by`` lines), one unique symbol
each. A second row times ``run_build`` of one step that prints that log,
written to a file, and fails: the build's own log is written as the step
prints it and its diagnostics parsed back from it. Each row checks that every
report parses to its diagnostic, and reports MB/s and the tracemalloc peak
of one call, in MB; the first row's log text is allocated before its calls.

``--layer build`` times ``run_build`` (clean, then build) in baseline and
CFI modes on perfbench's suite_fanout and cxx_static projects at scale 1,
seed 1, first at one CPU (this process's ``os.sched_setaffinity``, which the
build inherits and ``run_build`` sizes make's jobserver by) and then at
every CPU this process may use, alternating the two each repeat. The CFI
builds use an empty ignorelist, on a tree whose visibility one untimed
``repair_until_buildable`` patched first, so every timed build stands. Each
row reports wall time and the CPU its child processes used
(``RUSAGE_CHILDREN``), both medians; ``makeflags`` is the ``MAKEFLAGS`` the
environment already set, which ``run_build`` passes through instead.

Run from the repository root, stdlib only:

    python3 bench/run.py                  # writes BENCH_symbols.json
    python3 bench/run.py --layer census   # writes BENCH_census.json
    python3 bench/run.py --layer tracer   # writes BENCH_tracer.json
    python3 bench/run.py --layer linker   # writes BENCH_linker.json
    python3 bench/run.py --layer build    # writes BENCH_build.json
    python3 bench/run.py --layer repair --repeat 3 --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from cfiheal import ircensus, repair, symbols  # noqa: E402
from cfiheal.build import (  # noqa: E402
    BuildKind,
    BuildMode,
    BuildOutcome,
    Diagnostic,
    DiagnosticKind,
    parse_diagnostics,
    run_build,
)
from cfiheal.config import ProjectConfig  # noqa: E402
from cfiheal.elf import ElfFile  # noqa: E402
from cfiheal.harness import TestCase, run_cases  # noqa: E402
from cfiheal.ircensus import census_by_function, read_ir_lines  # noqa: E402
from cfiheal.pipeline import _collect_ir_files, _symbolize_trap, _take_census  # noqa: E402
from cfiheal.tracing import OutcomeKind, TrapEvent, run_traced, run_traced_many  # noqa: E402

CXX_FIXTURE = ROOT / "tests" / "fixtures" / "symbolizer" / "sample.cpp"
TRAP_IN_MAIN = "int main(void) { __builtin_trap(); }\n"


class _SpawnCounter:
    """Counts the programs symbols.py starts, all through subprocess.Popen."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.real = subprocess.Popen

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


def _suite_fanout_tool_b(tmp: Path) -> Path:
    project = tmp / "suite_fanout"
    spec = gen.suite_fanout(project, 1, sys.executable, ROOT / "perfbench" / "cfimodel.py")
    subprocess.run(spec.build_cmd, shell=True, cwd=project, check=True, capture_output=True)
    return project / "bin" / "tool_b"


def _symtab_probe(binary: Path) -> int:
    """Start of the median-address sized function symbol."""
    starts = sorted({s.value for s in ElfFile(binary).function_symbols() if s.size > 0})
    return starts[len(starts) // 2]


def _time(op, repeat: int, root: Path | None = None) -> tuple[list[float], Counter]:
    """Times of op on a fresh Symbolizer(root) per repeat, and the programs it started."""
    counter = _SpawnCounter()
    symbols.subprocess.Popen = counter
    try:
        times = []
        for _ in range(repeat):
            started = time.perf_counter()
            op(symbols.Symbolizer(root))
            times.append(time.perf_counter() - started)
    finally:
        symbols.subprocess.Popen = counter.real
    return times, counter.counts


def _summary(times: list[float]) -> dict:
    return {
        "median_s": round(statistics.median(times), 4),
        "min_s": round(min(times), 4),
        "max_s": round(max(times), 4),
    }


def _trap_in_main(tmp: Path) -> tuple[Path, Path, TrapEvent]:
    """(project directory, binary, trap) of a gcc binary whose main traps."""
    project = tmp / "trap-in-main"
    project.mkdir()
    (project / "main.c").write_text(TRAP_IN_MAIN)
    subprocess.run(
        ["gcc", "-O0", "-g", "-fno-omit-frame-pointer", "-o", "app", "main.c"],
        cwd=project,
        check=True,
        capture_output=True,
    )
    outcome = run_traced(shlex.quote(str(project / "app")), 30)
    if outcome.trap is None:
        raise RuntimeError(f"the trap-in-main binary did not trap: {outcome}")
    return project, project / "app", outcome.trap


def _symbols_row(
    target: str, binary: Path, op: str, call, repeat: int, root: Path | None = None, **extra
) -> dict:
    times, spawns = _time(call, repeat, root)
    return {
        "target": target,
        "mb": round(binary.stat().st_size / 1e6, 3),
        **extra,
        "op": op,
        **_summary(times),
        "spawns_per_call": {k: v / repeat for k, v in sorted(spawns.items())},
    }


def bench_symbols(repeat: int) -> list[dict]:
    results = []
    with tempfile.TemporaryDirectory(prefix="bench-symbols-") as tmp:
        targets = _targets(Path(tmp))
        for target, binary in targets:
            probe = _symtab_probe(binary)
            starts = [s.start for s in symbols.Symbolizer().function_boundaries(binary)]
            ops = {
                "resolve_symtab_hit": lambda s: s.resolve(binary, probe),
                "resolve_span_starts": lambda s: s.resolve_many(binary, starts),
            }
            spans = len(starts)
            for op, call in ops.items():
                results.append(_symbols_row(target, binary, op, call, repeat, spans=spans))
        project, binary, trap = _trap_in_main(Path(tmp))
        target = "gcc -O0 -g binary trapping in main"
        for op, root in (("symbolize_trap_in_main", project),
                         ("symbolize_trap_in_main_all_frames", None)):
            call = lambda s: _symbolize_trap(s, trap)  # noqa: E731
            results.append(_symbols_row(target, binary, op, call, repeat, root=root))
        results.append(_padded_view_row(Path(tmp), binary, repeat))
        dwarf_targets = [(target, binary) for target, binary in targets if "cxx_static" in target]
        dwarf_targets.append(
            ("perfbench suite_fanout bin/tool_b (scale 1, seed 1)", _suite_fanout_tool_b(Path(tmp)))
        )
        for target, binary in dwarf_targets:
            files = len(symbols.Symbolizer().definitions_by_file(binary) or {})
            call = lambda s: s.definitions_by_file(binary)  # noqa: E731
            results.append(
                _symbols_row(target, binary, "definitions_by_file", call, repeat, files=files)
            )
    return results


PADDING_MIB = 16


def _padded_view_row(tmp: Path, binary: Path, repeat: int) -> dict:
    """function_boundaries on binary padded by PADDING_MIB MiB, with the MB its view holds."""
    padding, padded = tmp / "padding.bin", tmp / "padded-app"
    padding.write_bytes(bytes(PADDING_MIB << 20))
    subprocess.run(
        ["objcopy", f"--add-section=.padding={padding}", str(binary), str(padded)],
        check=True,
        capture_output=True,
    )
    padding.unlink()
    symbolizer = symbols.Symbolizer()
    tracemalloc.start()
    try:
        spans = len(symbolizer.function_boundaries(padded))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    target = f"gcc -O0 -g binary trapping in main, padded by {PADDING_MIB} MiB"
    call = lambda s: s.function_boundaries(padded)  # noqa: E731
    return _symbols_row(target, padded, "function_boundaries", call, repeat, spans=spans,
                        view_mb=round(held / 1e6, 3), peak_mb=round(peak / 1e6, 3))


CENSUS_MB = 4


def _throughput_row(target: str, mb: float, op: str, calls: list, repeat: int) -> dict:
    """Times the calls together, then takes the tracemalloc peak of each alone."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        for call in calls:
            call()
        times.append(time.perf_counter() - started)
    peak = 0
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    summary = _summary(times)
    return {
        "target": target,
        "mb": round(mb, 3),
        "op": op,
        **summary,
        "mb_per_s": round(mb / summary["median_s"], 2),
        "peak_mb": round(peak / 1e6, 2),
    }


CENSUS_CXX_MB = 1


def _cxx_ir(root: Path) -> list[Path]:
    """Files of C++-shaped IR, about CENSUS_CXX_MB MB, one module of 40 namespaces each."""
    names = gen.Names(random.Random("bench-census-cxx"))
    roles = ("icall", "vcall", "renamed", None)
    paths: list[Path] = []
    size = 0
    while size < CENSUS_CXX_MB * 1e6:
        ir = gen.IrModule()
        for k in range(40):
            gen._cxx_namespace(names("n", 5), names, 10, roles[k % len(roles)], ir)
        path = root / f"cxx{len(paths):03d}.ll"
        path.write_text(ir.text())
        size += path.stat().st_size
        paths.append(path)
    return paths


CENSUS_DIRECT_MB = 1


def _direct_call_ir(root: Path) -> list[Path]:
    """Files of IR shaped like clang's for plain C, about CENSUS_DIRECT_MB MB, with no site."""
    names = gen.Names(random.Random("bench-census-direct"))
    callees = [names("fn_", 8) for _ in range(50)]
    paths: list[Path] = []
    size = 0
    while size < CENSUS_DIRECT_MB * 1e6:
        out = [f"declare i32 @{c}(i32 noundef)\n" for c in callees]
        for _ in range(100):
            out.append(f"define dso_local i32 @{names('f_', 8)}(i32 noundef %x) #0 {{\nentry:\n")
            out.append("  %p = alloca i32, align 4\n  store i32 %x, ptr %p, align 4\n")
            for k in range(20):
                out.append(
                    f"  %v{k} = load i32, ptr %p, align 4\n"
                    f"  %call{k} = call i32 @{callees[(k * 7) % len(callees)]}(i32 noundef %v{k})\n"
                    f"  %add{k} = add nsw i32 %call{k}, {k}\n"
                    f"  store i32 %add{k}, ptr %p, align 4\n"
                )
            out.append("  %r = load i32, ptr %p, align 4\n  ret i32 %r\n}\n\n")
        path = root / f"direct{len(paths):03d}.ll"
        path.write_text("".join(out))
        size += path.stat().st_size
        paths.append(path)
    return paths


def bench_census(repeat: int) -> list[dict]:
    with (
        tempfile.TemporaryDirectory(prefix="bench-census-") as tmp,
        tempfile.TemporaryDirectory(prefix="bench-census-cxx-") as cxx_tmp,
    ):
        writer = gen.ProjectWriter(Path(tmp))
        gen._ir_bulk(writer, gen.Names(random.Random("bench-census")), CENSUS_MB)
        paths = sorted(Path(tmp).rglob("*.ll"))
        texts = [p.read_text() for p in paths]
        lines = [t.splitlines() for t in texts]
        mb = sum(len(t) for t in texts) / 1e6
        target = f"gen._ir_bulk IR, {len(texts)} modules"
        in_memory = [lambda t=t: census_by_function(t, []) for t in texts]
        streamed = [lambda p=p: census_by_function(read_ir_lines(p), []) for p in paths]
        walked = [lambda ls=ls: ircensus._walk(ls, []) for ls in lines]
        cxx_paths = _cxx_ir(Path(cxx_tmp))
        cxx_mb = sum(len(p.read_text()) for p in cxx_paths) / 1e6
        cxx_streamed = [lambda p=p: census_by_function(read_ir_lines(p), []) for p in cxx_paths]
        direct_paths = _direct_call_ir(Path(cxx_tmp))
        direct_mb = sum(len(p.read_text()) for p in direct_paths) / 1e6
        direct_streamed = [
            lambda p=p: census_by_function(read_ir_lines(p), []) for p in direct_paths
        ]
        cfg = ProjectConfig(
            project_root=Path(tmp),
            build_cmd="true",
            test_cmd="true",
            executables=("app",),
            cfi_variants=("cfi-icall",),
            report_dir=Path(tmp) / "reports",
        )
        taken = _take_census(_collect_ir_files(cfg))
        assert taken.current(cfg)
        return [
            _throughput_row(target, mb, "census_by_function", in_memory, repeat),
            _throughput_row(target, mb, "census_by_function(read_ir_lines)", streamed, repeat),
            _throughput_row(target, mb, "_walk (lines split beforehand)", walked, repeat),
            _throughput_row(f"gen._cxx_namespace IR, {len(cxx_paths)} modules", cxx_mb,
                            "census_by_function(read_ir_lines)", cxx_streamed, repeat),
            _throughput_row(f"direct-call C IR, {len(direct_paths)} modules", direct_mb,
                            "census_by_function(read_ir_lines)", direct_streamed, repeat),
            _throughput_row(target, mb, "_Census.current (list + CRC-32)",
                            [lambda: taken.current(cfg)], repeat),
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
        symbols.subprocess.Popen = counter
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
            symbols.subprocess.Popen = counter.real
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
    "/bin/true": "/bin/true",
    "2-exec shell test": "/bin/true a 7 >/dev/null && /bin/true b 7 >/dev/null",
}
# One suite_fanout batch: its test count.
SUITE_TESTS = 130


def _traced(cmd) -> None:
    outcome = run_traced(cmd, 10)
    if outcome.kind is not OutcomeKind.EXITED or outcome.exit_status != 0:
        raise RuntimeError(f"{cmd!r}: {outcome}")


def _untraced(cmd) -> None:
    null = subprocess.DEVNULL
    subprocess.run(cmd, shell=True, check=True, stdin=null, stdout=null, stderr=null)


def _one_by_one(call):
    """TRACER_CALLS calls of `call`, one after the other."""

    def run(cmd) -> None:
        for _ in range(TRACER_CALLS):
            call(cmd)

    return run


def _batched(jobs: int):
    """TRACER_CALLS runs of the command as one run_traced_many batch of `jobs`."""

    def run(cmd) -> None:
        for outcome in run_traced_many([cmd] * TRACER_CALLS, 10, jobs=jobs):
            if outcome.kind is not OutcomeKind.EXITED or outcome.exit_status != 0:
                raise RuntimeError(f"{cmd!r}: {outcome}")

    return run


def _suite(project: Path):
    """SUITE_TESTS two-exec tests, each with its own arguments, through harness.run_cases."""
    cfg = ProjectConfig(
        project_root=project,
        build_cmd="true",
        test_cmd="true",
        executables=(),
        cfi_variants=(),
        report_dir=project / "report",
    )
    cases = [
        TestCase(f"t{i}", f"/bin/true a {i} >/dev/null && /bin/true b {i} >/dev/null")
        for i in range(SUITE_TESTS)
    ]

    def run(cmd) -> None:
        for result in run_cases(cfg, cases):
            if not result.passed:
                raise RuntimeError(f"{result.test_id}: {result.outcome}")

    return run


def _count_statuses(run, cmd) -> int:
    """Run once, counting the wait statuses consumed through os.waitpid."""
    real_waitpid = os.waitpid
    statuses = 0

    def counting(pid, options):
        nonlocal statuses
        wpid, status = real_waitpid(pid, options)
        statuses += wpid != 0
        return wpid, status

    os.waitpid = counting
    try:
        run(cmd)
    finally:
        os.waitpid = real_waitpid
    return statuses


def bench_tracer(repeat: int) -> list[dict]:
    results = []
    real_start = threading.Thread.start
    usable_cpus = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="bench-tracer-") as project:
        for target, cmd in TRACER_COMMANDS.items():
            two_exec = target == "2-exec shell test"
            # (op, run, calls per repeat, traced)
            ops = [
                ("run_traced", _one_by_one(_traced), TRACER_CALLS, True),
                ("subprocess.run", _one_by_one(_untraced), TRACER_CALLS, False),
            ]
            if two_exec:
                for jobs in sorted({1, usable_cpus}):
                    ops.append((f"run_traced_many jobs={jobs}", _batched(jobs), TRACER_CALLS, True))
                ops.append(
                    (f"run_cases {SUITE_TESTS} tests jobs={usable_cpus}",
                     _suite(Path(project)), SUITE_TESTS, True)
                )
            for op, run, calls, traced in ops:
                started = 0

                def counting_start(thread):
                    nonlocal started
                    started += 1
                    real_start(thread)

                statuses = _count_statuses(run, cmd) / calls  # doubles as the warm-up
                walls, cpus = [], []
                threading.Thread.start = counting_start
                try:
                    for _ in range(repeat):
                        before = resource.getrusage(resource.RUSAGE_SELF)
                        t0 = time.perf_counter()
                        run(cmd)
                        walls.append((time.perf_counter() - t0) / calls)
                        after = resource.getrusage(resource.RUSAGE_SELF)
                        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
                        cpus.append(cpu / calls)
                finally:
                    threading.Thread.start = real_start
                row = {
                    "target": target,
                    "op": op,
                    "calls_per_repeat": calls,
                    "median_ms": round(statistics.median(walls) * 1e3, 3),
                    "min_ms": round(min(walls) * 1e3, 3),
                    "max_ms": round(max(walls) * 1e3, 3),
                    "cpu_ms_per_call": round(statistics.median(cpus) * 1e3, 3),
                    "threads_per_call": started / (repeat * calls),
                }
                if two_exec and traced:
                    row["wait_statuses_per_call"] = round(statuses, 2)
                    row["cpu_us_per_status"] = round(statistics.median(cpus) * 1e6 / statuses, 1)
                results.append(row)
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
    mb = len(log) / 1e6
    target = f"synthetic GNU ld and lld log, {planted} failing references"
    with tempfile.TemporaryDirectory(prefix="bench-linker-") as tmp:
        (Path(tmp) / "build.log").write_text(log)
        cfg = ProjectConfig(
            project_root=Path(tmp),
            build_cmd="cat build.log; exit 1",
            test_cmd="true",
            executables=("app",),
            cfi_variants=("cfi-icall",),
            report_dir=Path(tmp) / "reports",
        )
        ops = {
            "parse_diagnostics": lambda: parse_diagnostics(log),
            "run_build (a step printing the log, then failing)":
                lambda: list(run_build(cfg, BuildMode.baseline()).diagnostics),
        }
        rows = []
        for op, call in ops.items():
            found = [d for d in call() if d.symbol and d.symbol.endswith("_api")]
            if len(found) != planted:
                raise RuntimeError(f"{op} found {len(found)} of {planted} planted symbols")
            rows.append(_throughput_row(target, mb, op, [call], repeat))
    return rows


BUILD_WORKLOADS = ("suite_fanout", "cxx_static")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def bench_build(repeat: int) -> list[dict]:
    usable = os.sched_getaffinity(0)
    cpu_sets = [{min(usable)}] + ([usable] if len(usable) > 1 else [])
    results = []
    with tempfile.TemporaryDirectory(prefix="bench-build-") as tmp:
        for workload in BUILD_WORKLOADS:
            project = Path(tmp) / workload
            wrapper = ROOT / "perfbench" / "cfimodel.py"
            spec = gen.GENERATORS[workload](project, 1, sys.executable, wrapper)
            cfg = ProjectConfig(
                project_root=project,
                build_cmd=spec.build_cmd,
                test_cmd=spec.test_cmd,
                executables=tuple(spec.executables),
                cfi_variants=tuple(spec.cfi_variants),
                report_dir=Path(tmp) / f"{workload}-report",
                clean_cmd=spec.clean_cmd,
            )
            ignorelist = cfg.report_dir / "cfi.ignorelist"
            ignorelist.parent.mkdir(parents=True)
            ignorelist.write_text("")
            modes = {
                "baseline": BuildMode.baseline(),
                "cfi": BuildMode.cfi(cfg.cfi_variants, ignorelist),
            }
            if not repair.repair_until_buildable(cfg, modes["cfi"])[0].succeeded:
                raise RuntimeError(f"{workload}: the CFI build does not stand after repair")
            for label, mode in modes.items():
                walls: dict[int, list[float]] = {len(cpus): [] for cpus in cpu_sets}
                child: dict[int, list[float]] = {len(cpus): [] for cpus in cpu_sets}
                for _ in range(repeat):
                    for cpus in cpu_sets:
                        os.sched_setaffinity(0, cpus)
                        try:
                            cpu_before, started = _children_cpu(), time.perf_counter()
                            outcome = run_build(cfg, mode)
                            walls[len(cpus)].append(time.perf_counter() - started)
                            child[len(cpus)].append(_children_cpu() - cpu_before)
                        finally:
                            os.sched_setaffinity(0, usable)
                        if not outcome.succeeded:
                            raise RuntimeError(f"{label} build failed: {outcome.log_path}")
                for cpus in cpu_sets:
                    results.append(
                        {
                            "target": f"perfbench {workload} (scale 1, seed 1)",
                            "op": f"run_build {label}",
                            "cpus": len(cpus),
                            "makeflags": os.environ.get("MAKEFLAGS"),
                            **_summary(walls[len(cpus)]),
                            "child_cpu_s": round(statistics.median(child[len(cpus)]), 4),
                        }
                    )
    return results


LAYERS = {
    "build": bench_build,
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
        keys = ("mb_per_s", "peak_mb", "view_mb", "patches", "symbols", "files", "spawns_per_call",
                "cpu_ms_per_call", "threads_per_call", "wait_statuses_per_call",
                "cpu_us_per_status", "cpus", "child_cpu_s")
        extra = {k: r[k] for k in keys if k in r}
        median = f"{r['median_s']:.4f} s" if "median_s" in r else f"{r['median_ms']:.3f} ms"
        print(f"{r['target']}: {r['op']} median {median} {extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
