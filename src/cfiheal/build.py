"""Build orchestration: flag composition, build execution, linker diagnostics.

parse_diagnostics reads the link failures of both mainstream ELF linkers, GNU
ld (ld.bfd / gold) and LLD, from a build log, by the rule table _RULES.
Undefined-reference lines map to UndefinedReference, hidden-symbol lines to
HiddenSymbolMismatch. Remaining lines containing an error marker fold into
kind Other; everything else is ignored. Each line is read on its own, into
its kind, its symbol in mangled form, and the line itself.
"""

from __future__ import annotations

import fcntl
import os
import re
import subprocess
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Iterable

from .config import ProjectConfig
from .ircensus import read_ir_lines

LOG_CAP_BYTES = 64 * 1024 * 1024
TRUNCATION_MARKER = "\n[build log truncated at 64 MiB]\n"


class OrchestrationError(RuntimeError):
    """A build could not be attempted (missing ignorelist or project root, lock held)."""


class BuildKind(Enum):
    BASELINE = "baseline"
    CFI = "cfi"


@dataclass(frozen=True)
class BuildMode:
    """Either an uninstrumented reference build or a CFI build."""

    kind: BuildKind
    variants: tuple[str, ...] = ()
    ignorelist_path: Path | None = None

    def __post_init__(self) -> None:
        if self.kind is BuildKind.BASELINE:
            if self.variants or self.ignorelist_path is not None:
                raise ValueError("baseline mode carries no CFI variants or ignorelist")
        else:
            if not self.variants:
                raise ValueError("cfi mode requires at least one variant")
            if self.ignorelist_path is None:
                raise ValueError("cfi mode requires an ignorelist path")

    @staticmethod
    def baseline() -> "BuildMode":
        return BuildMode(BuildKind.BASELINE)

    @staticmethod
    def cfi(variants: tuple[str, ...], ignorelist_path: Path) -> "BuildMode":
        return BuildMode(BuildKind.CFI, tuple(variants), ignorelist_path)


class DiagnosticKind(Enum):
    UNDEFINED_REFERENCE = "UndefinedReference"
    HIDDEN_SYMBOL_MISMATCH = "HiddenSymbolMismatch"
    OTHER = "Other"


@dataclass(frozen=True)
class Diagnostic:
    kind: DiagnosticKind
    symbol: str | None
    raw_line: str


@dataclass(frozen=True)
class BuildOutcome:
    succeeded: bool
    mode: BuildMode
    diagnostics: tuple[Diagnostic, ...]
    produced_executables: tuple[Path, ...]
    log_path: Path | None
    wall_time: float


def compose_flags(mode: BuildMode, extra_compile_flags: tuple[str, ...] = ()) -> list[str]:
    """Exact flag list for a mode; baseline gets only the extra flags.

    The CFI set keeps frame pointers so that trap-time stack unwinding can
    walk saved frame pointers without call-frame metadata.
    """
    if mode.kind is BuildKind.BASELINE:
        return list(extra_compile_flags)
    return [
        "-flto",
        "-fvisibility=hidden",
        "-fsanitize=" + ",".join(mode.variants),
        f"-fsanitize-ignorelist={mode.ignorelist_path}",
        "-fno-omit-frame-pointer",
    ] + list(extra_compile_flags)


_HIDDEN, _UNDEF = DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, DiagnosticKind.UNDEFINED_REFERENCE
# (form, kind), tried in order: the first form a line matches gives its
# diagnostic. Each form follows a line of it as captured from real runs;
# <ld> is the linker's or the compiler driver's name, often as a path.
_RULES = tuple((re.compile(form), kind) for form, kind in (
    # ld.lld: error: undefined hidden symbol: <sym>
    (r"ld\.lld: error: undefined (?:hidden|protected) symbol: \s*(?P<sym>.+)$", _HIDDEN),
    # ld.lld: error: undefined symbol: <sym>
    (r"ld\.lld: error: undefined symbol: \s*(?P<sym>.+)$", _UNDEF),
    # ld.lld: error: <lib.so>: undefined reference to <sym> [--no-allow-shlib-undefined]
    (r"ld\.lld: error: .+?: undefined reference to (?P<sym>\S+?)"
     r"(?: \[--no-allow-shlib-undefined\])?$", _UNDEF),
    # <ld>: <exe>: hidden symbol `<sym>' in <obj> is referenced by DSO
    (r"hidden symbol [`'](?P<sym>[^']+)'(?: in \S+)? is referenced by DSO", _HIDDEN),
    # <obj>:(.text+0x3): relocation ... against undefined hidden symbol `<sym>'
    (r"relocation .* against (?:undefined )?(?:protected |hidden )"
     r"symbol [`'](?P<sym>[^']+)'", _HIDDEN),
    # <ld>: <exe>: hidden symbol `<sym>' isn't defined
    # (a hidden-marked reference never found a definition)
    (r"hidden symbol [`'](?P<sym>[^']+)' isn't defined", _HIDDEN),
    # <file>:(.text+0x12): undefined reference to `<sym>'
    # <ld>: <lib.so>: undefined reference to `<sym>'
    (r"undefined reference to [`'](?P<sym>[^']+)'", _UNDEF),
))
_OTHER_ERROR = re.compile(r"(?:^|\s)(?:error:|Error[: ]|fatal error:)|\*\*\*")


def parse_diagnostics(raw_log: str) -> list[Diagnostic]:
    """Pure mapping of a raw build log onto structured diagnostics.

    No deduplication happens here; a caller wanting distinct symbols must
    collapse them itself. Order follows the log.
    """
    return _parse_lines(raw_log.splitlines())


def _parse_lines(lines: Iterable[str]) -> list[Diagnostic]:
    """The diagnostics of a log given as its lines, which are read once, in order."""
    diagnostics: list[Diagnostic] = []
    for line in map(str.rstrip, lines):
        for pattern, kind in _RULES:
            if m := pattern.search(line):
                diagnostics.append(Diagnostic(kind, m.group("sym"), line))
                break
        else:
            if _OTHER_ERROR.search(line):
                diagnostics.append(Diagnostic(DiagnosticKind.OTHER, None, line))
    return diagnostics


class ProjectLock:
    """Advisory per-project flock, taken once by each entry point.

    heal(), the build command and revert_patches() hold it for their whole
    run, so that at most one pipeline builds or patches a project at a time.
    flock conflicts across open files, so a nested acquisition fails in the
    same process as it does in another.
    """

    def __init__(self, report_dir: Path):
        self.lock_path = report_dir / ".cfiheal.lock"
        self._fd: int | None = None

    def __enter__(self) -> "ProjectLock":
        self.lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(fd)
            raise OrchestrationError(
                f"project is locked by another pipeline: {self.lock_path.resolve()}"
            ) from exc
        self._fd = fd
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self._fd)  # closing the descriptor releases the flock


def _run_step(
    cmd: str, cwd: Path, env: dict[str, str], log: BinaryIO, used: int
) -> tuple[int, int]:
    """Run one shell step, writing its capped output to log as it comes; returns (rc, used)."""
    proc = subprocess.Popen(
        cmd,
        shell=True,
        cwd=str(cwd),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    assert proc.stdout is not None
    truncated = used > LOG_CAP_BYTES
    while chunk := proc.stdout.read(65536):
        used += len(chunk)
        if not truncated:
            if used <= LOG_CAP_BYTES:
                log.write(chunk)
            else:
                keep = len(chunk) - (used - LOG_CAP_BYTES)
                if keep > 0:
                    log.write(chunk[:keep])
                log.write(TRUNCATION_MARKER.encode())
                truncated = True
    proc.stdout.close()
    return proc.wait(), used


def run_build(cfg: ProjectConfig, mode: BuildMode, *, iteration: int = 1) -> BuildOutcome:
    """Full rebuild in the given mode: clean, configure, build.

    Flags reach the project through conventional environment variables
    (CC/CXX pinned to clang/clang++, CFLAGS/CXXFLAGS/LDFLAGS carrying the
    composed flag string) and through a literal {FLAGS} placeholder in
    build_cmd when present. Unless MAKEFLAGS is already set, even to "",
    every step gets MAKEFLAGS="-j<N> -k -Otarget", N being the CPUs this
    process may run on, as run_cases sizes the test batch: -k makes the set
    of failed links depend on the build graph rather than on timing, and
    -Otarget keeps each recipe's linker lines together. The interleaved
    stdout+stderr log is written verbatim to
    <report_dir>/build-<mode>-<iteration>.log as the steps print it, capped
    at 64 MiB with an explicit truncation marker; a failed build's
    diagnostics are parsed from that file a line at a time, so the log is
    never held in memory. Success additionally requires every configured
    executable to exist under the project root. The caller holds the
    ProjectLock.
    """
    if mode.kind is BuildKind.CFI:
        if not mode.ignorelist_path.exists():
            raise OrchestrationError(
                f"ignorelist file does not exist: {mode.ignorelist_path} "
                "(write the ignorelist to that path before building)"
            )
    if not cfg.project_root.is_dir():
        raise OrchestrationError(f"project root missing: {cfg.project_root}")

    flags = compose_flags(mode, cfg.extra_compile_flags)
    flag_str = " ".join(flags)
    env = dict(os.environ)
    env.update(
        {
            "CC": "clang",
            "CXX": "clang++",
            "CFLAGS": flag_str,
            "CXXFLAGS": flag_str,
            "LDFLAGS": flag_str,
        }
    )
    env.setdefault("MAKEFLAGS", f"-j{len(os.sched_getaffinity(0))} -k -Otarget")
    build_cmd = cfg.build_cmd.replace("{FLAGS}", flag_str)

    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    log_path = cfg.report_dir / f"build-{mode.kind.value}-{iteration}.log"

    used = 0
    started = time.monotonic()
    rc = 0
    with log_path.open("wb") as log:
        for step in (cfg.clean_cmd, cfg.configure_cmd, build_cmd):
            if not step:
                continue
            header = f"$ {step}\n".encode()
            log.write(header)
            rc, used = _run_step(step, cfg.project_root, env, log, used + len(header))
            if rc != 0:
                break
    wall_time = time.monotonic() - started

    diagnostics = _parse_lines(read_ir_lines(log_path)) if rc != 0 else []
    produced: list[Path] = []
    missing: list[str] = []
    if rc == 0:
        root = cfg.project_root.resolve()
        for rel in cfg.executables:
            path = (cfg.project_root / rel).resolve()
            if not str(path).startswith(str(root) + os.sep) and path != root:
                raise OrchestrationError(f"executable escapes project root: {rel}")
            if path.is_file():
                produced.append(path)
            else:
                missing.append(rel)
        if missing:
            diagnostics = [
                Diagnostic(DiagnosticKind.OTHER, None, f"missing executable after build: {rel}")
                for rel in missing
            ]

    return BuildOutcome(
        succeeded=(rc == 0 and not missing),
        mode=mode,
        diagnostics=tuple(diagnostics),
        produced_executables=tuple(produced),
        log_path=log_path,
        wall_time=wall_time,
    )
