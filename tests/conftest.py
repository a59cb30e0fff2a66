"""Shared fixtures: compiled sample binaries and fixture-project copies.

Compilation happens once per session; tests that mutate project sources get
their own copy via copy_fixture.
"""

from __future__ import annotations

import errno
import html
import os
import platform
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from cfiheal import tracing
from cfiheal.config import ProjectConfig

FIXTURES = Path(__file__).parent / "fixtures"
SAMPLE_CXX = FIXTURES / "symbolizer" / "sample.cpp"

HAVE_CLANG = shutil.which("clang") is not None
HAVE_LLD = shutil.which("ld.lld") is not None
HAVE_GCC = all(shutil.which(tool) for tool in ("gcc", "g++", "strip"))
IS_LINUX_X86_64 = platform.system() == "Linux" and platform.machine() == "x86_64"

needs_toolchain = pytest.mark.skipif(
    not (HAVE_CLANG and HAVE_LLD), reason="requires clang and ld.lld"
)
needs_linux = pytest.mark.skipif(
    not IS_LINUX_X86_64, reason="requires Linux x86_64 ptrace semantics"
)

# ud2 at a named label; after_call anchors the expected return address.
TRAP_ASM = """\
    .text
    .globl _start
_start:
    call do_trap
    .globl after_call
after_call:
    mov $60, %rax
    xor %edi, %edi
    syscall

    .globl do_trap
    .type do_trap, @function
do_trap:
    push %rbp
    mov %rsp, %rbp
    .globl trap_marker
trap_marker:
    ud2
    pop %rbp
    ret
    .size do_trap, . - do_trap
"""

INT3_ASM = """\
    .text
    .globl _start
_start:
    call do_break
    .globl after_call
after_call:
    mov $60, %rax
    xor %edi, %edi
    syscall

    .globl do_break
    .type do_break, @function
do_break:
    push %rbp
    mov %rsp, %rbp
    .globl break_marker
break_marker:
    int3
    nop
    pop %rbp
    ret
    .size do_break, . - do_break
"""

SAMPLE_C = """\
#include <stdio.h>

int alpha(int x) { return x + 1; }

int beta(int x) { return alpha(x) * 2; }

int gamma_fn(int x) { return beta(x) + alpha(x); }

int main(void) {
    printf("%d\\n", gamma_fn(3));
    return 0;
}
"""


def copy_fixture(name: str, dest: Path) -> Path:
    """Copy a fixture project into dest/<name> and return the new root."""
    root = dest / name
    shutil.copytree(FIXTURES / name, root)
    return root


def make_config(root: Path, report_dir: Path, **overrides) -> ProjectConfig:
    defaults = dict(
        project_root=root,
        build_cmd="make app",
        test_cmd="sh runtests.sh",
        executables=("app",),
        cfi_variants=("cfi-icall",),
        report_dir=report_dir,
        clean_cmd="make clean",
        extra_compile_flags=("-fuse-ld=lld", "-g"),
        test_timeout=30.0,
    )
    defaults.update(overrides)
    return ProjectConfig(**defaults)


class TableSymbolizer:
    """Serves fixed definition tables by binary path, recording each asked.

    As the Symbolizer, it answers an empty table, unrecorded, for a binary
    outside `root`, and None for a project binary it serves no table for.
    """

    def __init__(self, tables, root: Path):
        self.tables = tables
        self.root = Path(root).resolve()
        self.asked: list[str] = []

    def definitions_by_file(self, binary):
        path = Path(binary)
        if not path.is_absolute() or not path.resolve().is_relative_to(self.root):
            return {}
        self.asked.append(str(binary))
        return self.tables.get(str(binary))


def opened_as(path: Path, mode: str) -> tuple[str, str]:
    """(file name, mode letter) of a Path.open, counting the creation of a
    file's temporary replacement, .<name>.<8 hex digits>, as a write of it."""
    temporary = re.fullmatch(r"\.(.+)\.[0-9a-f]{8}", path.name)
    if temporary and mode[0] == "x":
        return temporary[1], "w"
    return path.name, mode[0]


def unshown_fields(report: dict, page: str) -> list[str]:
    """What of a report its page leaves out: every key at every depth and every scalar leaf.

    A top-level key must head its section as an <h2> and a deeper one its row
    as a <th>; a leaf must stand escaped as the whole content of an element.
    """
    missing: list[str] = []

    def walk(value, depth: int) -> None:
        if isinstance(value, dict):
            tag = "h2" if depth == 0 else "th"
            for key, item in value.items():
                if f"<{tag}>{html.escape(key)}</{tag}>" not in page:
                    missing.append(key)
                walk(item, depth + 1)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item, depth + 1)
        elif f">{html.escape(str(value))}<" not in page:
            missing.append(str(value))

    walk(report, 0)
    return missing


def refuse_seize(monkeypatch, exited_first: bool = False) -> list[int]:
    """Make every PTRACE_SEIZE fail with EPERM, as on a host that forbids tracing one's children.

    Returns the pids refused. With `exited_first`, each refusal waits for
    its tracee to exit first, leaving it unreaped.
    """
    real = tracing._ptrace
    refused: list[int] = []

    def refusing(request, pid, addr, data):
        if request != tracing.PTRACE_SEIZE:
            return real(request, pid, addr, data)
        refused.append(pid)
        if exited_first:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        raise tracing.PtraceError(request, pid, errno.EPERM)

    monkeypatch.setattr(tracing, "_ptrace", refusing)
    return refused


def reaped(pid: int) -> bool:
    """Whether `pid`, once a child of this process, was reaped: neither it nor its zombie is left."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def linker_map_symbol(map_path: Path, name: str) -> int:
    """Independent oracle: read a symbol VMA out of an lld -Map file."""
    for line in map_path.read_text().splitlines():
        parts = line.split()
        if len(parts) >= 5 and parts[-1] == name:
            return int(parts[0], 16)
    raise AssertionError(f"{name} not found in {map_path}")


def _build_asm(tmp: Path, stem: str, source: str) -> tuple[Path, Path]:
    src = tmp / f"{stem}.s"
    src.write_text(source)
    binary = tmp / stem
    map_path = tmp / f"{stem}.map"
    subprocess.run(
        [
            "clang", "-nostdlib", "-static", "-no-pie", "-fuse-ld=lld",
            f"-Wl,-Map,{map_path}", "-o", str(binary), str(src),
        ],
        check=True,
        capture_output=True,
    )
    return binary, map_path


@pytest.fixture(scope="session")
def asm_binaries(tmp_path_factory) -> dict[str, tuple[Path, Path]]:
    """ud2 and int3 binaries, each with its linker map. Static, non-PIE."""
    if not (HAVE_CLANG and HAVE_LLD):
        pytest.skip("requires clang and ld.lld")
    tmp = tmp_path_factory.mktemp("asm")
    return {
        "ud2": _build_asm(tmp, "trap", TRAP_ASM),
        "int3": _build_asm(tmp, "int3", INT3_ASM),
    }


@pytest.fixture(scope="session")
def sample_binaries(tmp_path_factory) -> dict[str, Path]:
    """A small C binary with DWARF4, a DWARF5 build, and a stripped copy."""
    if not HAVE_CLANG:
        pytest.skip("requires clang")
    tmp = tmp_path_factory.mktemp("sample")
    src = tmp / "sample.c"
    src.write_text(SAMPLE_C)
    out: dict[str, Path] = {"source": src}
    common = ["-O0", "-fno-omit-frame-pointer"]
    for tag, gflag in (("dwarf4", "-gdwarf-4"), ("dwarf5", "-gdwarf-5")):
        binary = tmp / f"sample-{tag}"
        subprocess.run(
            ["clang", gflag, *common, "-o", str(binary), str(src)],
            check=True,
            capture_output=True,
        )
        out[tag] = binary
    stripped = tmp / "sample-stripped"
    shutil.copy2(out["dwarf4"], stripped)
    subprocess.run(["strip", str(stripped)], check=True, capture_output=True)
    out["stripped"] = stripped
    return out


@pytest.fixture(scope="session")
def gcc_binaries(tmp_path_factory) -> dict[str, Path]:
    """gcc builds: the C sample with DWARF, a stripped copy, and a C++ binary."""
    if not HAVE_GCC:
        pytest.skip("requires gcc, g++ and strip")
    tmp = tmp_path_factory.mktemp("gcc-sample")
    src = tmp / "sample.c"
    src.write_text(SAMPLE_C)
    out = {
        "source": src,
        "c": tmp / "sample-gcc",
        "stripped": tmp / "sample-gcc-stripped",
        "cxx": tmp / "sample-cxx",
    }
    flags = ["-g", "-O0", "-fno-omit-frame-pointer"]
    for compiler, source, binary in (("gcc", src, out["c"]), ("g++", SAMPLE_CXX, out["cxx"])):
        subprocess.run(
            [compiler, *flags, "-o", str(binary), str(source)], check=True, capture_output=True
        )
    shutil.copy2(out["c"], out["stripped"])
    subprocess.run(["strip", str(out["stripped"])], check=True, capture_output=True)
    return out


@pytest.fixture
def outside_source_app(tmp_path) -> tuple[Path, Path]:
    """(project, binary): a gcc -g app linking the project's src/a.c, whose main
    calls helper, with another src/a.c outside the project that defines helper."""
    if not HAVE_GCC:
        pytest.skip("requires gcc")
    project, elsewhere = tmp_path / "project", tmp_path / "elsewhere"
    for root, text in ((project, "int helper(int);\nint main(void) { return helper(1); }\n"),
                       (elsewhere, "int helper(int x) { return x - 1; }\n")):
        (root / "src").mkdir(parents=True)
        (root / "src" / "a.c").write_text(text)
    subprocess.run(
        ["gcc", "-g", "-O0", "-fno-omit-frame-pointer", "-o", "app", "src/a.c",
         "../elsewhere/src/a.c"],
        cwd=project, check=True, capture_output=True,
    )
    return project, project / "app"


@pytest.fixture(scope="session")
def cfi_ir(tmp_path_factory) -> Path:
    """Real instrumented IR for the trap_l0 handler, one fp call + one store."""
    if not HAVE_CLANG:
        pytest.skip("requires clang")
    tmp = tmp_path_factory.mktemp("ir")
    empty = tmp / "empty.ignorelist"
    empty.write_text("")
    out = tmp / "bad.ll"
    subprocess.run(
        [
            "clang", "-flto", "-fvisibility=hidden", "-fsanitize=cfi-icall",
            f"-fsanitize-ignorelist={empty}", "-S", "-emit-llvm",
            "-o", str(out), str(FIXTURES / "trap_l0" / "bad.c"),
        ],
        check=True,
        capture_output=True,
    )
    return out
