"""Build orchestration: flag composition, build execution, linker diagnostics.

Diagnostic grammars recognized by parse_diagnostics (both mainstream ELF
linkers, messages captured verbatim from real runs):

GNU ld (ld.bfd / gold):
    <obj>: in function `<fn>':
    <file>:(.text+0x12): undefined reference to `<sym>'
    <lib.so>: undefined reference to `<sym>'
    <obj>:(.text+0x3): relocation ... against undefined hidden symbol `<sym>'
    hidden symbol `<sym>' in <obj> is referenced by DSO
Under -flto <file> is `<artificial>', and the `in function' <obj> stands in.

LLD:
    ld.lld: error: undefined symbol: <sym>
    >>> referenced by <file>
    >>>               <obj>:(<section>)
    ld.lld: error: undefined hidden symbol: <sym>

Undefined-reference lines map to UndefinedReference, hidden-symbol lines to
HiddenSymbolMismatch. Remaining lines containing an error marker fold into
kind Other; everything else is ignored. Symbol names stay in mangled form.
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

from .config import ProjectConfig

LOG_CAP_BYTES = 64 * 1024 * 1024
TRUNCATION_MARKER = "\n[build log truncated at 64 MiB]\n"


class OrchestrationError(RuntimeError):
    """A build could not be attempted (bad mode, missing ignorelist, lock held)."""


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
    source_object: str | None
    raw_line: str


@dataclass(frozen=True)
class BuildOutcome:
    succeeded: bool
    mode: BuildMode
    diagnostics: tuple[Diagnostic, ...]
    produced_executables: tuple[Path, ...]
    log_path: Path | None
    wall_time: float
    raw_log: str = ""


def compose_flags(mode: BuildMode, extra_compile_flags: tuple[str, ...] = ()) -> list[str]:
    """Exact flag list for a mode; baseline gets only the extra flags.

    The CFI set keeps frame pointers so that trap-time stack unwinding can
    walk saved frame pointers without call-frame metadata.
    """
    if mode.kind is BuildKind.BASELINE:
        return list(extra_compile_flags)
    if mode.ignorelist_path is None:
        raise OrchestrationError("cfi mode without an ignorelist path")
    return [
        "-flto",
        "-fvisibility=hidden",
        "-fsanitize=" + ",".join(mode.variants),
        f"-fsanitize-ignorelist={mode.ignorelist_path}",
        "-fno-omit-frame-pointer",
    ] + list(extra_compile_flags)


# GNU ld grammars. The `in function' prefix line carries the referencing object.
_GNU_IN_FUNCTION = re.compile(r" in function [`'](?P<fn>[^']+)'")
_GNU_UNDEF = re.compile(r"undefined reference to [`'](?P<sym>[^']+)'")
_GNU_HIDDEN_RELOC = re.compile(
    r"relocation .* against (?:undefined )?(?:protected |hidden )symbol [`'](?P<sym>[^']+)'"
)
_GNU_HIDDEN_DSO = re.compile(
    r"hidden symbol [`'](?P<sym>[^']+)'(?: in (?P<obj>\S+))? is referenced by DSO"
)
# Linker/driver self-identification tokens, and GNU ld's LTO `<artificial>'.
_TOOL_NAME = re.compile(r"(^|/)(ld(\.bfd|\.gold|\.lld)?|collect2|clang(\+\+)?(-\d+)?|gcc|cc|<artificial>)$")
# `isn't defined' fires when a hidden-marked reference never finds a definition.
_GNU_HIDDEN_UNDEF = re.compile(r"hidden symbol [`'](?P<sym>[^']+)' isn't defined")
# LLD grammars. Continuation lines attribute the reference.
_LLD_UNDEF = re.compile(r"ld\.lld: error: undefined symbol: (?P<sym>.+)$")
_LLD_HIDDEN = re.compile(r"ld\.lld: error: undefined (?:hidden|protected) symbol: (?P<sym>.+)$")
_LLD_SHLIB = re.compile(
    r"ld\.lld: error: (?P<obj>.+?): undefined reference to (?P<sym>\S+?)"
    r"(?: \[--no-allow-shlib-undefined\])?$"
)
_LLD_REFBY = re.compile(r"^>>> referenced by (?P<ref>.+)$")
_LLD_REFOBJ = re.compile(r"^>>>\s+(?P<ref>\S+?):?\(")
_OTHER_ERROR = re.compile(r"(?:^|\s)(?:error:|Error[: ]|fatal error:)|\*\*\*")


def _gnu_source_object(line: str, match_start: int) -> str | None:
    """Referencing object/file from the colon-separated prefix of a GNU ld line."""
    components = [c.strip() for c in line[:match_start].split(":") if c.strip()]
    candidates = [
        c for c in components if not c.startswith("(") and not _TOOL_NAME.search(c)
    ]
    return candidates[-1] if candidates else None


def parse_diagnostics(raw_log: str) -> list[Diagnostic]:
    """Pure mapping of a raw build log onto structured diagnostics.

    No deduplication happens here; a caller wanting distinct symbols must
    collapse them itself. Order follows the log.
    """
    diagnostics: list[Diagnostic] = []
    pending_obj: str | None = None
    awaiting_ref: int | None = None

    for raw_line in raw_log.splitlines():
        line = raw_line.rstrip()
        if not line:
            continue

        m = _LLD_HIDDEN.search(line)
        if m:
            diagnostics.append(
                Diagnostic(DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, m.group("sym").strip(), None, line)
            )
            awaiting_ref = len(diagnostics) - 1
            continue
        m = _LLD_UNDEF.search(line)
        if m:
            diagnostics.append(
                Diagnostic(DiagnosticKind.UNDEFINED_REFERENCE, m.group("sym").strip(), None, line)
            )
            awaiting_ref = len(diagnostics) - 1
            continue
        m = _LLD_SHLIB.search(line)
        if m:
            diagnostics.append(
                Diagnostic(
                    DiagnosticKind.UNDEFINED_REFERENCE, m.group("sym"), m.group("obj"), line
                )
            )
            awaiting_ref = None
            continue
        if awaiting_ref is not None:
            m = _LLD_REFBY.match(line) or _LLD_REFOBJ.match(line)
            if m:
                hit = diagnostics[awaiting_ref]
                if hit.source_object is None:
                    diagnostics[awaiting_ref] = Diagnostic(
                        hit.kind, hit.symbol, m.group("ref").strip(), hit.raw_line
                    )
                continue
            awaiting_ref = None

        m = _GNU_HIDDEN_DSO.search(line)
        if m:
            diagnostics.append(
                Diagnostic(
                    DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, m.group("sym"), m.group("obj"), line
                )
            )
            continue
        m = _GNU_HIDDEN_RELOC.search(line)
        if m:
            source = _gnu_source_object(line, m.start()) or pending_obj
            diagnostics.append(
                Diagnostic(DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, m.group("sym"), source, line)
            )
            continue
        m = _GNU_HIDDEN_UNDEF.search(line)
        if m:
            diagnostics.append(
                Diagnostic(DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, m.group("sym"), None, line)
            )
            continue
        m = _GNU_UNDEF.search(line)
        if m:
            source = _gnu_source_object(line, m.start()) or pending_obj
            diagnostics.append(
                Diagnostic(DiagnosticKind.UNDEFINED_REFERENCE, m.group("sym"), source, line)
            )
            continue
        m = _GNU_IN_FUNCTION.search(line)
        if m:
            pending_obj = _gnu_source_object(line, m.start())
            continue

        if _OTHER_ERROR.search(line):
            diagnostics.append(Diagnostic(DiagnosticKind.OTHER, None, None, line))

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


def _run_step(cmd: str, cwd: Path, env: dict[str, str], sink: list[bytes], used: int) -> tuple[int, int]:
    """Run one shell step, appending capped output to sink; returns (rc, used)."""
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
    while True:
        chunk = proc.stdout.read(65536)
        if not chunk:
            break
        used += len(chunk)
        if not truncated:
            if used <= LOG_CAP_BYTES:
                sink.append(chunk)
            else:
                keep = len(chunk) - (used - LOG_CAP_BYTES)
                if keep > 0:
                    sink.append(chunk[:keep])
                sink.append(TRUNCATION_MARKER.encode())
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
    stdout+stderr log is preserved verbatim at
    <report_dir>/build-<mode>-<iteration>.log, capped at 64 MiB with an
    explicit truncation marker. Success additionally requires every
    configured executable to exist under the project root. The caller holds
    the ProjectLock.
    """
    if mode.kind is BuildKind.CFI:
        assert mode.ignorelist_path is not None
        if not mode.ignorelist_path.exists():
            raise OrchestrationError(
                f"ignorelist file does not exist: {mode.ignorelist_path} "
                "(write the store before building)"
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

    sink: list[bytes] = []
    used = 0
    started = time.monotonic()
    rc = 0
    for step in (cfg.clean_cmd, cfg.configure_cmd, build_cmd):
        if not step:
            continue
        sink.append(f"$ {step}\n".encode())
        used += len(sink[-1])
        rc, used = _run_step(step, cfg.project_root, env, sink, used)
        if rc != 0:
            break
    wall_time = time.monotonic() - started

    raw_log = b"".join(sink).decode("utf-8", errors="replace")
    log_path.write_bytes(b"".join(sink))

    diagnostics = parse_diagnostics(raw_log) if rc != 0 else []
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
                Diagnostic(DiagnosticKind.OTHER, None, None, f"missing executable after build: {rel}")
                for rel in missing
            ]

    return BuildOutcome(
        succeeded=(rc == 0 and not missing),
        mode=mode,
        diagnostics=tuple(diagnostics),
        produced_executables=tuple(produced),
        log_path=log_path,
        wall_time=wall_time,
        raw_log=raw_log,
    )
