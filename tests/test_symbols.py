"""Address-to-symbol resolution against addr2line and nm oracles."""

import re
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest

from cfiheal import pipeline, symbols
from cfiheal.elf import ElfFile
from cfiheal.escalation import EscalationEngine, Fault, ViolationStatus
from cfiheal.ignorelist import LadderLevel, parse
from cfiheal.ircensus import IrSiteCensus
from cfiheal.symbols import (
    Confidence,
    FunctionSpan,
    LineTable,
    ResolutionError,
    SymbolInfo,
    Symbolizer,
    _demangle_batch,
)
from cfiheal.tracing import MemoryRegion, TrapEvent, TrapSignal, region_for, run_traced

from conftest import HAVE_GCC, SAMPLE_CXX, make_config, needs_linux, needs_toolchain
from test_elf import nm_functions


def addr2line(binary: Path, addr: int) -> tuple[str, str, int]:
    """Oracle: (function, file basename, line) according to addr2line."""
    out = subprocess.run(
        ["addr2line", "-f", "-e", str(binary), hex(addr)],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    func = out[0].strip()
    location = out[1].split(" ")[0]
    file, _, line = location.rpartition(":")
    return func, Path(file).name, int(line)


def addr2line_location(binary: Path, addr: int) -> tuple[str, int] | None:
    """Oracle: (file basename, line) according to addr2line, None where it knows none."""
    out = subprocess.run(
        ["addr2line", "-e", str(binary), hex(addr)], check=True, capture_output=True, text=True
    ).stdout
    file, _, line = out.split(" (discriminator")[0].strip().rpartition(":")
    if file == "??" or not line.isdigit():
        return None
    return Path(file).name, int(line)


@pytest.mark.parametrize(
    "answer, location",
    [
        ("/src/a.c:12", ("/src/a.c", 12)),
        ("/src/a.c:12 (discriminator 3)", ("/src/a.c", 12)),
        ("/src/a:b.c:7\n", ("/src/a:b.c", 7)),
        ("/src/a.c:?", ("/src/a.c", 0)),
        ("??:0", None),
        ("??:?", None),
    ],
)
def test_parse_addr2line_answer(answer, location):
    assert symbols._parse_location(answer) == location


def test_demangle_passthrough_for_c_names():
    names = ["scols_line_refer_data", "engine_step.1"]
    assert _demangle_batch(names) == (names, None)


@pytest.mark.skipif(shutil.which("c++filt") is None, reason="requires c++filt")
def test_demangle_cxx_name_matches_cxxfilt():
    mangled = "_ZN6Widget6resizeEii"
    oracle = subprocess.run(
        ["c++filt", mangled], check=True, capture_output=True, text=True
    ).stdout.strip()
    assert _demangle_batch([mangled]) == ([oracle], None)
    assert oracle == "Widget::resize(int, int)"


def test_function_span_contains():
    span = FunctionSpan("f", 0x100, 0x120)
    assert span.contains(0x100) and span.contains(0x11F)
    assert not span.contains(0x120)


def _check_boundaries_match_nm(binary: Path) -> None:
    spans = {s.name: s for s in Symbolizer().function_boundaries(binary)}
    oracle = nm_functions(binary)
    for name in ("main", "alpha", "beta", "gamma_fn"):
        assert spans[name].start == oracle[name]
        assert spans[name].end > spans[name].start


def _check_sorted_and_disjoint(binary: Path) -> None:
    spans = Symbolizer().function_boundaries(binary)
    assert spans
    for a, b in zip(spans, spans[1:]):
        assert a.start <= b.start
        assert a.end <= b.start or a.start == b.start


def _check_resolve_matches_addr2line(binary: Path) -> None:
    symbolizer = Symbolizer()
    oracle_syms = nm_functions(binary)
    spans = {s.name: s for s in symbolizer.function_boundaries(binary)}

    for name in ("main", "alpha", "beta", "gamma_fn"):
        span = spans[name]
        probes = {span.start, span.start + (len(range(span.start, span.end)) // 2)}
        for addr in probes:
            func, file, line = addr2line(binary, addr)
            info = symbolizer.resolve(binary, addr)
            assert info.function == func == name
            assert info.confidence is Confidence.DEBUGINFO
            assert Path(info.source_file).name == file == "sample.c"
            assert info.line == line
    assert oracle_syms["main"] == spans["main"].start


def _check_symtab_fallback(compiler: str, src: Path, binary: Path) -> None:
    subprocess.run(
        [compiler, "-O0", "-fno-omit-frame-pointer", "-o", str(binary), str(src)],
        check=True,
        capture_output=True,
    )
    symbolizer = Symbolizer()
    addr = nm_functions(binary)["alpha"]
    info = symbolizer.resolve(binary, addr)
    assert info.function == "alpha"
    assert info.confidence is Confidence.SYMBOL_TABLE
    assert info.source_file is None


@needs_toolchain
def test_boundaries_match_nm(sample_binaries):
    _check_boundaries_match_nm(sample_binaries["dwarf4"])


@needs_toolchain
def test_boundaries_sorted_and_disjoint(sample_binaries):
    _check_sorted_and_disjoint(sample_binaries["dwarf4"])


@needs_toolchain
def test_resolve_matches_addr2line(sample_binaries):
    _check_resolve_matches_addr2line(sample_binaries["dwarf4"])


@needs_toolchain
def test_resolve_without_debuginfo_falls_back_to_symtab(tmp_path, sample_binaries):
    _check_symtab_fallback("clang", sample_binaries["source"], tmp_path / "nodebug")


def _check_stripped_misses(binary: Path, probes) -> None:
    symbolizer = Symbolizer()
    assert symbolizer.function_boundaries(binary) == []
    for probe in probes:
        with pytest.raises(ResolutionError):
            symbolizer.resolve(binary, probe)


@needs_toolchain
def test_resolve_stripped_misses(sample_binaries):
    binary = sample_binaries["stripped"]
    _check_stripped_misses(binary, [ElfFile(binary).e_entry])


@needs_toolchain
def test_resolve_miss_raises(sample_binaries):
    symbolizer = Symbolizer()
    with pytest.raises(ResolutionError):
        symbolizer.resolve(sample_binaries["dwarf4"], 0x2)


@needs_toolchain
def test_runtime_address_to_static_through_region(sample_binaries):
    binary = sample_binaries["dwarf4"]
    elf = ElfFile(binary)
    static = nm_functions(binary)["alpha"]
    file_off = elf.vaddr_to_file_offset(static)
    assert file_off is not None
    seg = next(
        s for s in elf.load_segments if s.offset <= file_off < s.offset + s.filesz
    )
    base = 0x7F0000000000
    region = MemoryRegion(
        start=base,
        end=base + seg.filesz,
        perms="r-xp",
        offset=seg.offset,
        path=str(binary),
    )
    runtime = base + (file_off - seg.offset)
    (resolved,) = Symbolizer().resolve_runtime_many([runtime], (region,))
    assert resolved[:2] == (binary, static)


@needs_toolchain
def test_resolve_runtime_end_to_end(sample_binaries):
    binary = sample_binaries["dwarf4"]
    elf = ElfFile(binary)
    static = nm_functions(binary)["beta"]
    file_off = elf.vaddr_to_file_offset(static)
    seg = next(
        s for s in elf.load_segments if s.offset <= file_off < s.offset + s.filesz
    )
    base = 0x560000000000
    regions = (
        MemoryRegion(
            start=base,
            end=base + seg.filesz,
            perms="r-xp",
            offset=seg.offset,
            path=str(binary),
        ),
        MemoryRegion(start=0x7FFF0000, end=0x80000000, perms="rw-p", offset=0, path="[stack]"),
    )
    runtime = base + (file_off - seg.offset)
    (resolved,) = Symbolizer().resolve_runtime_many([runtime], regions)
    assert resolved is not None
    resolved_binary, resolved_static, info = resolved
    assert resolved_binary == binary
    assert resolved_static == static
    assert info.function == "beta"


@needs_toolchain
def test_resolve_runtime_unmapped_returns_none(sample_binaries):
    regions = (
        MemoryRegion(start=0x1000, end=0x2000, perms="rw-p", offset=0, path=None),
    )
    assert Symbolizer().resolve_runtime_many([0x1800], regions) == [None]


# gcc twins of the symbolizer tests above, plus C++ naming and view-build cost.


def test_gcc_boundaries_match_nm(gcc_binaries):
    _check_boundaries_match_nm(gcc_binaries["c"])


def test_gcc_boundaries_sorted_and_disjoint(gcc_binaries):
    _check_sorted_and_disjoint(gcc_binaries["c"])
    _check_sorted_and_disjoint(gcc_binaries["cxx"])


def test_gcc_resolve_matches_addr2line(gcc_binaries):
    _check_resolve_matches_addr2line(gcc_binaries["c"])


def test_gcc_resolve_without_debuginfo_falls_back_to_symtab(tmp_path, gcc_binaries):
    _check_symtab_fallback("gcc", gcc_binaries["source"], tmp_path / "nodebug")


def _gcc_sample_starts(gcc_binaries) -> dict[str, int]:
    functions = nm_functions(gcc_binaries["c"])
    return {name: functions[name] for name in ("main", "alpha", "beta", "gamma_fn")}


# The stripped probes are the sample's own functions, placed by nm on the
# unstripped build.
def test_gcc_resolve_stripped_misses(gcc_binaries):
    starts = _gcc_sample_starts(gcc_binaries).values()
    _check_stripped_misses(gcc_binaries["stripped"], [a + d for a in starts for d in (0, 4)])


def test_gcc_resolve_stripped_entry_point(gcc_binaries, monkeypatch):
    # Mapped at a load base, the entry point keeps its binary and static address.
    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    binary = gcc_binaries["stripped"]
    elf = ElfFile(binary)
    offset = elf.vaddr_to_file_offset(elf.e_entry)
    seg = next(s for s in elf.load_segments if s.offset <= offset < s.offset + s.filesz)
    base = 0x560000000000
    region = MemoryRegion(base, base + seg.filesz, "r-xp", seg.offset, str(binary))
    resolved = Symbolizer().resolve_runtime_many([base + offset - seg.offset], (region,))
    assert resolved == [(binary, elf.e_entry, None)]
    assert run.programs == []


def test_gcc_resolve_miss_raises(gcc_binaries):
    with pytest.raises(ResolutionError):
        Symbolizer().resolve(gcc_binaries["c"], 0x2)


def _symtab_functions(binary: Path) -> dict[int, str]:
    """Mangled name of each sized function symbol, by address (first seen wins)."""
    out: dict[int, str] = {}
    for sym in ElfFile(binary).function_symbols():
        if sym.size > 0:
            out.setdefault(sym.value, sym.name)
    return out


def _report_functions(symbolizer: Symbolizer, binary: Path, addrs) -> list[str]:
    """The report's function column for one violation trapping at each address."""
    engine = EscalationEngine()
    trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, 0, 0, (), {}, binary, ())
    for addr in addrs:
        fault = Fault(binary, addr, symbolizer.resolve(binary, addr), None, None)
        engine.observe(trap, fault, hex(addr))
    assert len(engine.violations) == len(addrs)
    return [row["function"] for row in pipeline._violation_rows(engine)[0]]


@pytest.mark.skipif(shutil.which("c++filt") is None, reason="requires c++filt")
def test_gcc_cxx_report_column_matches_per_name_cxxfilt(gcc_binaries):
    binary = gcc_binaries["cxx"]
    symbolizer = Symbolizer()
    functions = _symtab_functions(binary)
    assert sum(name.startswith("_Z") for name in functions.values()) >= 6
    for addr, mangled in functions.items():
        assert symbolizer.resolve(binary, addr).function == mangled
    column = _report_functions(symbolizer, binary, list(functions))
    for mangled, shown in zip(functions.values(), column):
        oracle = subprocess.run(
            ["c++filt", mangled], check=True, capture_output=True, text=True
        ).stdout.strip()
        assert shown == oracle
    assert {"geo::detail::scale(int)", "twice(int)", "geo::Square::area(int) const"} <= set(column)


def test_gcc_cxx_resolve_matches_addr2line(gcc_binaries):
    binary = gcc_binaries["cxx"]
    symbolizer = Symbolizer()
    checked = 0
    for span in symbolizer.function_boundaries(binary):
        if not span.name.startswith("_Z") or re.search(r"D[012]Ev$", span.name):
            continue  # C names are covered above; destructor aliases share a start
        out = subprocess.run(
            ["addr2line", "-f", "-e", str(binary), hex(span.start)],
            check=True, capture_output=True, text=True,
        ).stdout.splitlines()
        info = symbolizer.resolve(binary, span.start)
        assert info.function == out[0].strip() == span.name
        assert info.confidence is Confidence.DEBUGINFO
        location = out[1].split(" ")[0]
        assert Path(info.source_file).name == "sample.cpp"
        assert info.line == int(location.rpartition(":")[2])
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("build", ["c", "cxx", "cxx-O1"])
def test_gcc_span_starts_match_addr2line(gcc_binaries, tmp_path, build):
    # gcc emits one line sequence per COMDAT section and the linker places
    # them back to back, so one sequence often ends where the next starts.
    binary = gcc_binaries.get(build)
    if binary is None:
        binary = tmp_path / "sample-cxx-O1"
        subprocess.run(["g++", "-g", "-O1", "-fno-omit-frame-pointer", "-o", str(binary),
                        str(SAMPLE_CXX)], check=True, capture_output=True)
    symbolizer = Symbolizer()
    checked = 0
    for span in symbolizer.function_boundaries(binary):
        oracle = addr2line_location(binary, span.start)
        if oracle is None:
            continue
        info = symbolizer.resolve(binary, span.start)
        assert info.confidence is Confidence.DEBUGINFO, span.name
        assert (Path(info.source_file).name, info.line) == oracle, span.name
        checked += 1
    assert checked >= 4
    assert symbolizer.warnings == []


# A stand-in for a stdin filter (c++filt, addr2line) that fails one way, or None for a missing one.
FAILING_TOOLS = [
    pytest.param(None, "failed, {left}: [Errno 2] No such file or directory: '{tool}'",
                 id="missing tool"),
    pytest.param('while read -r line; do echo "$line"; done; exit 3',
                 "exited 3 with 2 lines for 2 {noun}; {left}", id="non-zero exit"),
    pytest.param("while read -r line; do :; done; echo one",
                 "exited 0 with 1 lines for 2 {noun}; {left}", id="wrong line count"),
]


def _only_tool_on_path(tmp_path, monkeypatch, name, body):
    """Make PATH a directory holding only `name`, a shell script running `body`, if any."""
    tools = tmp_path / "tools"
    tools.mkdir()
    if body is not None:
        (tools / name).write_text(f"#!/bin/sh\n{body}\n")
        (tools / name).chmod(0o755)
    monkeypatch.setenv("PATH", str(tools))


@pytest.mark.parametrize(("body", "failure"), FAILING_TOOLS)
def test_demangle_batch_that_fails_leaves_names_mangled(tmp_path, monkeypatch, body, failure):
    _only_tool_on_path(tmp_path, monkeypatch, "c++filt", body)
    names = ["_ZN3app4stepEi", "main", "_ZN3app5visitEi"]
    why = failure.format(tool="c++filt", noun="names", left="names left mangled")
    assert _demangle_batch(names) == (names, f"c++filt {why}")


@pytest.mark.parametrize(("body", "failure"), FAILING_TOOLS)
def test_line_table_that_fails_leaves_lines_unknown(tmp_path, monkeypatch, body, failure):
    _only_tool_on_path(tmp_path, monkeypatch, "addr2line", body)
    table = LineTable(tmp_path / "app")
    why = failure.format(tool="addr2line", noun="addresses", left="lines left unknown")
    assert table.lookup([0x20, 0x10, 0x20]) == ([None] * 3, f"addr2line {why}")
    # A failed binary is not asked again.
    assert table.lookup([0x30]) == ([None], None)


def test_demangle_batch_agrees_with_per_name_cxxfilt():
    if shutil.which("c++filt") is None:
        pytest.skip("requires c++filt")
    names = [
        "main", "_ZN3geo7measureERKNS_5ShapeEi", "_Z3foov.cold", "_Z3foov@GLIBC_2.2.5",
        "_ZN3foo3barEv@@V1", "_Z3foo v", "_Zgarbage", "_Z", "engine_step.1", "_ZL5twicei",
    ]
    per_name = [_demangle_batch([name])[0][0] for name in names]
    assert _demangle_batch(names) == (per_name, None)
    for name, got in zip(names, per_name):
        oracle = subprocess.run(["c++filt", name], capture_output=True, text=True)
        assert got == (oracle.stdout.strip() if name.startswith("_Z") else name)
    assert per_name[2] == "foo() [clone .cold]"
    assert per_name[3:6] == names[3:6]  # not one c++filt word: passed through


class _RecordingRun:
    """Wraps subprocess.run, counting the programs started; one program can be made to fail."""

    def __init__(self, failure=None, program="c++filt"):
        self.programs: list[str] = []
        self.failure = failure
        self.program = program
        self.real = subprocess.run

    def __call__(self, argv, *args, **kwargs):
        self.programs.append(argv[0])
        if argv[0] == self.program and self.failure is not None:
            if isinstance(self.failure, BaseException):
                raise self.failure
            return subprocess.CompletedProcess(argv, *self.failure)
        return self.real(argv, *args, **kwargs)


def test_view_build_starts_no_cxxfilt(gcc_binaries, monkeypatch):
    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    symbolizer = Symbolizer()
    spans = symbolizer.function_boundaries(gcc_binaries["cxx"])
    for span in spans:
        symbolizer.resolve(gcc_binaries["cxx"], span.start)
    assert any(span.name.startswith("_Z") for span in spans)
    assert set(run.programs) == {"addr2line"}


def test_report_column_starts_one_cxxfilt_and_none_for_c(gcc_binaries, monkeypatch):
    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    symbolizer = Symbolizer()
    c_functions = _symtab_functions(gcc_binaries["c"])
    column = _report_functions(symbolizer, gcc_binaries["c"], list(c_functions))
    assert column == list(c_functions.values())
    assert "c++filt" not in run.programs
    cxx_functions = _symtab_functions(gcc_binaries["cxx"])
    _report_functions(symbolizer, gcc_binaries["cxx"], list(cxx_functions))
    assert run.programs.count("c++filt") == 1


def test_symtab_hits_never_disassemble(gcc_binaries, monkeypatch):
    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    binary = gcc_binaries["cxx"]
    symbolizer = Symbolizer()
    for addr, name in _symtab_functions(binary).items():
        assert symbolizer.resolve(binary, addr).function == name
    assert set(run.programs) == {"addr2line"}


def test_symtab_miss_starts_no_subprocess(gcc_binaries, monkeypatch):
    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    symbolizer = Symbolizer()
    for binary in (gcc_binaries["c"], gcc_binaries["stripped"]):
        for _ in range(2):
            with pytest.raises(ResolutionError):
                symbolizer.resolve(binary, 0x2)
        symbolizer.function_boundaries(binary)
    assert run.programs == []


@pytest.mark.parametrize(
    "failure",
    [
        FileNotFoundError("c++filt"),
        subprocess.TimeoutExpired("c++filt", 60),
        (1, b"", b"c++filt: bad\n"),
        (0, b"one line only\n", b""),
    ],
    ids=["missing", "timeout", "nonzero", "short"],
)
def test_failed_batch_leaves_names_mangled(gcc_binaries, monkeypatch, failure):
    run = _RecordingRun(failure)
    monkeypatch.setattr(symbols.subprocess, "run", run)
    binary = gcc_binaries["cxx"]
    symbolizer = Symbolizer()
    functions = _symtab_functions(binary)
    column = _report_functions(symbolizer, binary, list(functions))
    assert column == list(functions.values())
    assert run.programs.count("c++filt") == 1 and "objdump" not in run.programs


@pytest.mark.parametrize(
    "failure",
    [
        FileNotFoundError("addr2line"),
        subprocess.TimeoutExpired("addr2line", 60),
        (1, b"", b"addr2line: bad\n"),
        (0, b"sample.c:3\n", b""),
    ],
    ids=["missing", "timeout", "nonzero", "short"],
)
def test_failed_addr2line_leaves_lines_unknown(gcc_binaries, monkeypatch, failure):
    run = _RecordingRun(failure, program="addr2line")
    monkeypatch.setattr(symbols.subprocess, "run", run)
    binary = gcc_binaries["c"]
    symbolizer = Symbolizer()
    starts = sorted(_symtab_functions(binary))
    infos = symbolizer.resolve_many(binary, starts)
    infos += [symbolizer.resolve(binary, addr) for addr in starts]
    for info in infos:
        assert info.confidence is Confidence.SYMBOL_TABLE
        assert (info.source_file, info.line) == (None, None)
    assert run.programs.count("addr2line") == 1
    assert len(symbolizer.warnings) == 1
    assert "addr2line" in symbolizer.warnings[0] and str(binary) in symbolizer.warnings[0]


def test_addr2line_once_per_batch_and_cached(gcc_binaries, monkeypatch):
    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    binary = gcc_binaries["cxx"]
    symbolizer = Symbolizer()
    starts = sorted(_symtab_functions(binary))
    batch = symbolizer.resolve_many(binary, starts)
    assert run.programs.count("addr2line") == 1
    assert [symbolizer.resolve(binary, addr) for addr in starts] == batch
    assert run.programs.count("addr2line") == 1
    inner = starts[1] + 1
    assert symbolizer.resolve(binary, inner) == symbolizer.resolve(binary, inner)
    assert run.programs.count("addr2line") == 2
    assert symbolizer.warnings == []


@pytest.mark.parametrize("unmapped", [False, True], ids=["three-hits", "one-miss"])
def test_trap_frames_start_one_addr2line(gcc_binaries, monkeypatch, unmapped):
    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    binary = gcc_binaries["c"]
    elf = ElfFile(binary)
    functions = nm_functions(binary)
    statics = [functions[name] + 1 for name in ("alpha", "beta", "gamma_fn")]
    offsets = [elf.vaddr_to_file_offset(static) for static in statics]
    seg = next(s for s in elf.load_segments if s.offset <= offsets[0] < s.offset + s.filesz)
    base = 0x560000000000
    region = MemoryRegion(base, base + seg.filesz, "r-xp", seg.offset, str(binary))
    runtime = [base + off - seg.offset for off in offsets]
    returns = [runtime[1] + 1, 0x10 if unmapped else runtime[2] + 1]
    trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, runtime[0], runtime[0], tuple(returns),
                     {}, binary, (region,))
    symbolizer = Symbolizer()
    found, static, callee, caller, callers_caller = pipeline._symbolize_trap(symbolizer, trap)
    assert (found, static) == (binary, statics[0])
    assert (callee.function, caller.function) == ("alpha", "beta")
    assert callee.confidence is caller.confidence is Confidence.DEBUGINFO
    if unmapped:
        assert callers_caller is None
    else:
        assert callers_caller.function == "gamma_fn"
        assert callers_caller.confidence is Confidence.DEBUGINFO
    assert run.programs.count("addr2line") == 1
    assert symbolizer.warnings == []


ELSEWHERE = 0x7FFF0000  # where the trap's caller returns to, outside the sample's code


def _trap_with_caller_in(gcc_binaries, mapping):
    """A trap in the gcc sample's alpha whose caller returns into `mapping`, or into no mapping."""
    binary = gcc_binaries["c"]
    elf = ElfFile(binary)
    static = nm_functions(binary)["alpha"] + 1
    offset = elf.vaddr_to_file_offset(static)
    seg = next(s for s in elf.load_segments if s.offset <= offset < s.offset + s.filesz)
    base = 0x560000000000
    code = MemoryRegion(base, base + seg.filesz, "r-xp", seg.offset, str(binary))
    regions = (code,) if mapping is None else (code, mapping)
    runtime = base + offset - seg.offset
    trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, runtime, runtime, (ELSEWHERE + 0x11,), {},
                     binary, regions)
    return trap, binary, static


def _elsewhere(perms, path):
    return MemoryRegion(ELSEWHERE, ELSEWHERE + 0x2000, perms, 0, path)


@pytest.mark.parametrize(
    "mapping, caller",
    [
        (lambda binary: _elsewhere("r-xp", "[vdso]"),
         SymbolInfo("[vdso]", None, None, Confidence.OUTSIDE_PROJECT)),
        (lambda binary: _elsewhere("r-xp", None), None),
        (lambda binary: _elsewhere("r--p", str(binary)), None),
        (lambda binary: None, None),
    ],
    ids=["vdso", "anonymous", "project-without-x", "unmapped"],
)
def test_a_trap_frame_in_no_project_code_resolves_to_nothing(gcc_binaries, mapping, caller):
    trap, binary, static = _trap_with_caller_in(gcc_binaries, mapping(gcc_binaries["c"]))
    symbolizer = Symbolizer(binary.parent)
    fault = pipeline._symbolize_trap(symbolizer, trap)
    assert (fault.binary, fault.static_pc, fault.callee.function) == (binary, static, "alpha")
    assert (fault.caller, fault.callers_caller) == (caller, None)
    assert list(symbolizer._cache) == [str(binary)]


def test_without_a_project_root_no_frame_is_outside_the_project(gcc_binaries):
    trap, binary, static = _trap_with_caller_in(gcc_binaries, _elsewhere("r-xp", "[vdso]"))
    fault = pipeline._symbolize_trap(Symbolizer(), trap)
    assert (fault.binary, fault.static_pc, fault.callee.function) == (binary, static, "alpha")
    assert (fault.caller, fault.callers_caller) == (None, None)


@needs_linux
@pytest.mark.skipif(not HAVE_GCC, reason="requires gcc")
def test_a_trap_in_main_resolves_only_the_project_binary(tmp_path, monkeypatch):
    project = tmp_path / "project"
    project.mkdir()
    (project / "main.c").write_text("int main(void) { __builtin_trap(); }\n")
    subprocess.run(["gcc", "-O0", "-g", "-fno-omit-frame-pointer", "-o", "app", "main.c"],
                   cwd=project, check=True, capture_output=True)
    trap = run_traced(shlex.quote(str(project / "app")), 30).trap
    assert trap.return_addresses, "main's frame links to its caller in the C library"
    library = region_for(trap.memory_map, trap.return_addresses[0]).path
    assert not Path(library).resolve().is_relative_to(project.resolve())

    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    symbolizer = Symbolizer(project)
    fault = pipeline._symbolize_trap(symbolizer, trap)
    binary, _, callee, caller, _ = fault
    assert binary == project / "app"
    assert (callee.function, callee.source_file) == ("main", "main.c")
    assert caller == SymbolInfo(Path(library).name, None, None, Confidence.OUTSIDE_PROJECT)
    assert run.programs == ["addr2line"]
    assert list(symbolizer._cache) == [str(binary)]

    engine = EscalationEngine()
    violation, _ = engine.observe(trap, fault, "t")
    lines = []
    while engine.next_scope(violation) is not None:
        lines.append(violation.attempted[-1][1].line)
        engine.record_outcome(violation, trap_recurred=True)
    assert lines == ["fun:main", "src:main.c"]
    outside = [level for level, reason in violation.skipped_levels
               if reason == "outside the project"]
    assert outside == [LadderLevel.CALLER_FUNCTION, LadderLevel.CALLER_SOURCE]

    # Without a project root every frame is resolved, the library's too: by
    # its symbol table, or, where no span covers it, to no symbol at all.
    ret = trap.return_addresses[0] - 1
    region = region_for(trap.memory_map, ret)
    static = ElfFile(Path(library)).file_offset_to_vaddr(region.offset + ret - region.start)
    symbolizer = Symbolizer()
    _, _, callee, caller, _ = pipeline._symbolize_trap(symbolizer, trap)
    assert callee.function == "main"
    assert caller is None or caller.confidence is Confidence.SYMBOL_TABLE
    assert symbolizer.resolve_runtime_many([ret], trap.memory_map) == [(Path(library), static, caller)]
    assert "objdump" not in run.programs


def test_a_frame_in_a_file_outside_the_root_skips_its_src_rung(outside_source_app):
    project, app = outside_source_app
    functions = nm_functions(app)
    helper, main = Symbolizer(project).resolve_many(app, [functions["helper"], functions["main"]])
    assert main.source_file == "src/a.c"
    # Outside the root, the file keeps the absolute spelling addr2line printed.
    assert Path(helper.source_file).is_absolute() and helper.source_file.endswith("/src/a.c")
    engine = EscalationEngine()
    trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, 0, 0, (), {}, app, ())
    violation, _ = engine.observe(trap, Fault(app, functions["helper"], helper, main, None), "t")
    lines = []
    while engine.next_scope(violation) is not None:
        lines.append(violation.attempted[-1][1].line)
        engine.record_outcome(violation, trap_recurred=True)
    assert lines == ["fun:helper", "fun:main", "src:src/a.c"]
    assert (LadderLevel.CALLEE_SOURCE, "outside the project") in violation.skipped_levels


STRIPPED_TRAP = """\
__attribute__((noinline)) void fault(void) { __builtin_trap(); }
__attribute__((noinline)) void relay(void) { fault(); }
int main(void) { relay(); return 0; }
"""


@needs_linux
@pytest.mark.skipif(not HAVE_GCC, reason="requires gcc")
def test_a_trap_in_a_stripped_pie_keys_by_its_static_address(tmp_path, monkeypatch):
    if Path("/proc/sys/kernel/randomize_va_space").read_text().strip() == "0":
        pytest.skip("needs address space layout randomization")
    project = tmp_path / "project"
    project.mkdir()
    (project / "main.c").write_text(STRIPPED_TRAP)
    subprocess.run(["gcc", "-O0", "-fno-omit-frame-pointer", "-fPIE", "-pie", "-o", "app",
                    "main.c"], cwd=project, check=True, capture_output=True)
    fault_span = nm_functions(project / "app")["fault"]
    subprocess.run(["strip", "app"], cwd=project, check=True, capture_output=True)
    traps = [run_traced(shlex.quote(str(project / "app")), 30).trap for _ in range(2)]
    assert traps[0].fault_pc != traps[1].fault_pc, "each run loads the PIE at its own base"

    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    popen = _CountingPopen()
    monkeypatch.setattr(symbols.subprocess, "Popen", popen)
    symbolizer = Symbolizer(project)
    faults = [pipeline._symbolize_trap(symbolizer, trap) for trap in traps]
    assert run.programs == popen.programs == []
    for binary, static, *frames in faults:
        assert binary == project / "app"
        assert fault_span <= static < fault_span + 16  # the ud2 in fault's body
        assert frames == [None, None, None]
    assert faults[0][:2] == faults[1][:2]

    engine = EscalationEngine()
    for trap, fault, test_id in zip(traps, faults, ("t1", "t2")):
        engine.observe(trap, fault, test_id)
    (violation,) = engine.all_violations()
    assert violation.fault.key == (str(project / "app"), faults[0][1])
    assert violation.test_ids == ("t1", "t2")
    assert engine.next_scope(violation) is None
    assert violation.status is ViolationStatus.UNRESOLVABLE
    assert violation.skipped_levels == [
        (level, "identity unavailable") for level in list(LadderLevel)[:5]
    ]


@pytest.mark.parametrize("build", ["stripped", "no -g"])
def test_no_debug_line_starts_no_addr2line(gcc_binaries, monkeypatch, tmp_path, build):
    binary = gcc_binaries.get(build)
    if binary is None:
        binary = tmp_path / "nodebug"
        subprocess.run(["gcc", "-O0", "-o", str(binary), str(gcc_binaries["source"])],
                       check=True, capture_output=True)
    assert not ElfFile(binary).has_section(".debug_line")
    run = _RecordingRun()
    monkeypatch.setattr(symbols.subprocess, "run", run)
    symbolizer = Symbolizer()
    spans = symbolizer.function_boundaries(binary)
    for info in symbolizer.resolve_many(binary, [s.start for s in spans]):
        assert info.line is None
    assert "addr2line" not in run.programs


def test_rebuilt_binary_replaces_its_view(gcc_binaries, tmp_path):
    binary = tmp_path / "app"
    shutil.copy2(gcc_binaries["c"], binary)
    symbolizer = Symbolizer()
    alpha = nm_functions(binary)["alpha"]
    assert symbolizer.resolve(binary, alpha).function == "alpha"
    shutil.copy2(gcc_binaries["cxx"], binary)  # a different size: a new key
    measure = nm_functions(binary)["_ZN3geo7measureERKNS_5ShapeEi"]
    assert symbolizer.resolve(binary, measure).function == "_ZN3geo7measureERKNS_5ShapeEi"
    symbolizer.resolve(gcc_binaries["c"], alpha)
    assert len(symbolizer._cache) == 2
    assert symbolizer._view(binary).elf.path == binary


needs_dwarfdump = pytest.mark.skipif(
    not HAVE_GCC or shutil.which("llvm-dwarfdump") is None, reason="requires gcc and llvm-dwarfdump"
)

INLINE_HEADER = "static inline int bump(int x) { return x + 1; }\n"
INLINED_CHECK = """#include "bump.h"
typedef int (*int_fn)(int);
static inline __attribute__((always_inline)) int dispatch(int_fn f, int x) { return f(x); }
static int twice(int x) { return 2 * x; }
int_fn volatile slot = twice;
int api(int x) { return dispatch(slot, x) + bump(x); }
"""
INLINED_MAIN = "int api(int);\nint main(int argc, char **argv) { (void)argv; return api(argc); }\n"


@pytest.fixture
def inlined_check(tmp_path) -> Path:
    """A gcc -O2 -g binary whose indirect call sits in an always_inline helper."""
    (tmp_path / "bump.h").write_text(INLINE_HEADER)
    (tmp_path / "api.c").write_text(INLINED_CHECK)
    (tmp_path / "main.c").write_text(INLINED_MAIN)
    subprocess.run(["gcc", "-O2", "-g", "-o", "app", "api.c", "main.c"],
                   cwd=tmp_path, check=True, capture_output=True)
    return tmp_path / "app"


@needs_dwarfdump
def test_definitions_by_file_count_inlined_and_header_functions(inlined_check):
    root = inlined_check.parent.resolve()
    assert "dispatch" not in nm_functions(inlined_check)  # inlined away
    symbolizer = Symbolizer(root)
    table = symbolizer.definitions_by_file(inlined_check)
    # The unit's own functions, the helper only ever inlined, and the header's inline.
    assert table == {
        "api.c": {"api", "dispatch", "twice", "bump"},
        "main.c": {"main"},
    }

    def holds_no_check(line, check_free):
        """heal()'s predicate, for a trap in the binary and a census defining `check_free`."""
        cfg = make_config(root, root / "reports")
        per_function = {name: IrSiteCensus() for name in check_free}
        code = MemoryRegion(0x1000, 0x2000, "r-xp", 0, str(inlined_check))
        trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, 0x1000, 0x1000, (), {}, inlined_check,
                         (code,))
        engine = EscalationEngine()
        violation, _ = engine.observe(trap, Fault(inlined_check, 0x1000, None, None, None), "t")
        (entry,) = parse(line)
        return pipeline._no_check_in_scope(cfg, per_function, symbolizer)(violation, entry)

    # The helper holds the indirect call; the census of the other names does not
    # make the file check-free, and the header, which no unit compiles, never is.
    assert not holds_no_check("src:api.c", {"api", "twice", "bump"})
    assert holds_no_check("src:api.c", {"api", "twice", "bump", "dispatch"})
    assert not holds_no_check("src:bump.h", {"bump"})


@needs_dwarfdump
def test_cxx_definitions_are_named_by_linkage_name(gcc_binaries):
    table = Symbolizer().definitions_by_file(gcc_binaries["cxx"])
    (names,) = table.values()
    assert "_ZN3geo7measureERKNS_5ShapeEi" in names
    assert "main" in names


class _CountingPopen:
    """Wraps subprocess.Popen, counting the programs started."""

    def __init__(self):
        self.programs: list[str] = []
        self.real = subprocess.Popen

    def __call__(self, argv, *args, **kwargs):
        self.programs.append(argv[0])
        return self.real(argv, *args, **kwargs)


@needs_dwarfdump
def test_definitions_come_from_one_dump_per_view(inlined_check, monkeypatch):
    popen = _CountingPopen()
    monkeypatch.setattr(symbols.subprocess, "Popen", popen)
    symbolizer = Symbolizer()
    first = symbolizer.definitions_by_file(inlined_check)
    assert symbolizer.definitions_by_file(inlined_check) is first
    assert popen.programs == ["llvm-dwarfdump"]
    # A rebuilt binary is a new view, dumped again.
    inlined_check.write_bytes(inlined_check.read_bytes() + b"\0")
    assert symbolizer.definitions_by_file(inlined_check) == first
    assert popen.programs == ["llvm-dwarfdump"] * 2


def test_a_binary_outside_the_project_defines_no_project_file(gcc_binaries, tmp_path, monkeypatch):
    popen = _CountingPopen()
    monkeypatch.setattr(symbols.subprocess, "Popen", popen)
    symbolizer = Symbolizer(tmp_path)
    assert symbolizer.definitions_by_file(gcc_binaries["c"]) == {}
    assert popen.programs == [] and symbolizer._cache == {}


def test_a_missing_dwarf_tool_gives_no_definitions(gcc_binaries, monkeypatch):
    monkeypatch.setenv("PATH", "")
    symbolizer = Symbolizer()
    assert symbolizer.definitions_by_file(gcc_binaries["c"]) is None
    assert symbolizer.definitions_by_file(gcc_binaries["c"]) is None
    assert len(symbolizer.warnings) == 1 and "llvm-dwarfdump" in symbolizer.warnings[0]


@needs_dwarfdump
def test_a_failed_dump_gives_no_definitions(gcc_binaries):
    assert symbols.read_definitions(gcc_binaries["source"]) is None  # not an object file
