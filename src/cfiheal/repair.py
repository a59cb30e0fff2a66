"""Automatic repair of visibility-induced link failures.

Under -fvisibility=hidden, symbols that used to be exported silently stop
resolving across shared-object boundaries. Each such binding fails either a
link or a load, and the uninstrumented baseline build already holds them
all: cross_dso_bindings reads the .dynsym of every ELF executable and shared
object that build wrote under the project root (files whose mtime is not
older than the build's start) and takes each symbol one of them imports and
another exports. The first instrumented build patches these planned symbols
in one pass before it runs. A planned symbol with no definition in the tree,
or whose definition already carries a visibility attribute, is dropped
silently; it is reported as skipped only if a later build's diagnostics name
it. The plan can also keep a binding the linker would never report: a project
library that overrides a system library's symbol keeps its baseline binding.

What the plan misses (code reached through dlopen, symbols pulled in from
static archives) the diagnostic loop repairs: it reads undefined /
hidden-symbol diagnostics off a failed build and patches those symbols
through the same pass. A pass locates each symbol's definition in the
project tree (one read of each source per pass) and prepends an explicit
__attribute__((visibility("default"))) to the definition's declarator.
Every textual insertion is journaled (iteration, file, line, symbol) so the
whole set of patches can be reverted exactly.

Definitions are recognized, not declarations: the symbol name followed by a
balanced parameter list whose closing parenthesis leads (possibly through
whitespace and further attributes) to an opening brace. Prototypes end in a
semicolon and are never patched.
"""

from __future__ import annotations

import os
import re
import stat
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .build import (
    BuildMode,
    BuildOutcome,
    Diagnostic,
    DiagnosticKind,
    ProjectLock,
    run_build,
)
from .config import ProjectConfig
from .elf import ET_DYN, ET_EXEC, STB_GLOBAL, STB_WEAK, ElfError, ElfFile
from .symbols import _demangle_batch, demangle

ATTRIBUTE_TEXT = '__attribute__((visibility("default"))) '
JOURNAL_NAME = "repair-journal.tsv"

_SOURCE_SUFFIXES = (".c", ".cc", ".cpp", ".cxx", ".C")


class RepairError(RuntimeError):
    """Repair could not proceed (unreadable tree, malformed journal)."""


@dataclass(frozen=True)
class DefinitionSite:
    """Location of a function definition; offsets are 0-based into the text."""

    file: Path
    line: int
    column: int
    name_offset: int
    alternates: tuple[str, ...] = ()


@dataclass(frozen=True)
class VisibilityPatch:
    symbol: str
    demangled: str
    file: str
    line: int
    column: int
    applied_text: str
    iteration: int


@dataclass
class RepairLedger:
    """Everything the repair loop did, for reporting and for the journal."""

    patches: list[VisibilityPatch] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    ambiguities: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    iterations_build_phase: int = 0
    iterations_test_phase: int = 0
    build_attempts: int = 0

    @property
    def patched_symbols(self) -> set[str]:
        return {p.symbol for p in self.patches} | {p.demangled for p in self.patches}


def base_identifier(demangled: str) -> str:
    """The unqualified function identifier to search source text for."""
    head = demangled.split("(", 1)[0].strip()
    return head.rsplit("::", 1)[-1].strip() or demangled


def extract_unresolved_symbols(diagnostics: tuple[Diagnostic, ...] | list[Diagnostic]) -> list[str]:
    """Ordered unique symbols from undefined-reference and hidden-symbol diagnostics."""
    symbols: list[str] = []
    for diag in diagnostics:
        if diag.kind is DiagnosticKind.OTHER or diag.symbol is None:
            continue
        if diag.symbol not in symbols:
            symbols.append(diag.symbol)
    return symbols


_ATTR_SKIP = re.compile(r"\s*__attribute__\s*\(\(", re.S)


def _skip_attributes(text: str, pos: int) -> int:
    """Advance past whitespace and __attribute__((...)) blocks."""
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        m = _ATTR_SKIP.match(text, pos)
        if not m:
            return pos
        depth = 0
        i = m.end() - 2
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    pos = i + 1
                    break
            i += 1
        else:
            return pos


def _call_pattern(name: str) -> re.Pattern:
    """`name` as a whole word followed by an opening parenthesis."""
    return re.compile(rf"\b{re.escape(name)}\s*\(")


def _definition_offsets(text: str, call: re.Pattern) -> list[int]:
    """Byte offsets where `call` (a _call_pattern) begins a function definition."""
    offsets: list[int] = []
    for m in call.finditer(text):
        line_start = text.rfind("\n", 0, m.start()) + 1
        if text[line_start : m.end()].lstrip().startswith("#"):
            continue
        i = _closing_paren(text, m.end() - 1)
        if i >= len(text):
            continue
        after = _skip_attributes(text, i + 1)
        if after < len(text) and text[after] == "{":
            offsets.append(m.start())
    return offsets


def _closing_paren(text: str, open_at: int) -> int:
    """Offset of the parenthesis that closes text[open_at], or len(text)."""
    close = text.find(")", open_at + 1)
    if close >= 0 and text.find("(", open_at + 1, close) < 0:
        return close  # a flat parameter list
    depth = 0
    i = open_at
    while i < len(text):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    return i


def _iter_sources(root: Path) -> list[Path]:
    files = [
        p
        for p in root.rglob("*")
        if p.is_file() and p.suffix in _SOURCE_SUFFIXES and not p.is_symlink()
    ]
    return sorted(files, key=lambda p: str(p.relative_to(root)))


# Whole words of ASCII letters, digits and underscores.
_WORD = re.compile(r"\w+", re.ASCII)


class _PassSources:
    """Where one repair pass's symbols are defined, from one read of each source.

    One walk of the tree and one read per file test every symbol's identifier
    at once; a mangled symbol is demangled by the pass's one c++filt. A file
    the pass patches is read again before the next lookup, so its offsets
    stay exact. Hits are kept per identifier and file, and no text is kept.
    """

    def __init__(self, root: Path, symbols: Sequence[str]) -> None:
        self.root = root
        self.demangled = dict(zip(symbols, _demangle_batch(list(symbols))[0]))
        names = {base_identifier(d) for d in self.demangled.values()}
        self.calls = {name: _call_pattern(name) for name in names}
        # An ASCII name can be defined only in a text that has its leading
        # word as a whole word; any other name is looked for as a substring.
        self.by_word: dict[str, list[str]] = {}
        self.unworded: list[str] = []
        for name in names:
            word = _WORD.match(name) if name.isascii() else None
            if word:
                self.by_word.setdefault(word.group(), []).append(name)
            else:
                self.unworded.append(name)
        # identifier -> {file index: [(offset, line, column), ...]}, and back
        self.hits: dict[str, dict[int, list[tuple[int, int, int]]]] = {n: {} for n in names}
        self.found_in: dict[int, list[str]] = {}
        self.files = _iter_sources(root)
        self.position = {path: i for i, path in enumerate(self.files)}
        self.stale: set[int] = set()
        for index in range(len(self.files)):
            self._scan(index)

    def _scan(self, index: int) -> None:
        """Read one file and record the definitions in it, in place of earlier ones."""
        for name in self.found_in.pop(index, ()):
            del self.hits[name][index]
        try:
            text = self.files[index].read_text(errors="replace")
        except OSError:
            return
        words = set(_WORD.findall(text))
        names = [n for w in words & self.by_word.keys() for n in self.by_word[w]]
        names += [n for n in self.unworded if n in text]
        for name in names:
            offsets = _definition_offsets(text, self.calls[name])
            if offsets:
                self.hits[name][index] = [
                    (o, text.count("\n", 0, o) + 1, o - (text.rfind("\n", 0, o) + 1) + 1)
                    for o in offsets
                ]
                self.found_in.setdefault(index, []).append(name)

    def patched(self, path: Path) -> None:
        """Note that the pass changed path; it is read again before the next lookup."""
        if path in self.position:
            self.stale.add(self.position[path])

    def definitions(self, symbol: str) -> list[tuple[Path, int, int, int]]:
        """(file, offset, line, column) of each definition of symbol, in path order."""
        for index in self.stale:
            self._scan(index)
        self.stale.clear()
        found = self.hits[base_identifier(self.demangled[symbol])]
        return [(self.files[i], *hit) for i in sorted(found) for hit in found[i]]


def locate_definition(
    symbol: str, root: Path, index: _PassSources | None = None
) -> DefinitionSite | None:
    """First definition of symbol under root, in deterministic path order.

    Further candidates are reported through DefinitionSite.alternates so the
    caller can record the ambiguity. A repair pass passes the index it built
    for root and its symbols; without one, the tree is read for symbol alone.
    """
    if index is None:
        index = _PassSources(root, [symbol])
    hits = index.definitions(symbol)
    if not hits:
        return None
    path, offset, line, column = hits[0]
    alternates = tuple(f"{p.relative_to(root)}:{ln}" for p, _, ln, _ in hits[1:])
    return DefinitionSite(path, line, column, offset, alternates)


def _already_default(text: str, name_offset: int) -> bool:
    """True if the declarator already carries a visibility attribute."""
    start = max(
        text.rfind(";", 0, name_offset),
        text.rfind("}", 0, name_offset),
        text.rfind("{", 0, name_offset),
    )
    prefix = text[start + 1 : name_offset]
    return "visibility" in prefix


def _insert_attribute(site: DefinitionSite) -> str:
    """Insert the attribute before the definition's name; returns the text inserted.

    Placing the attribute between type and declarator keeps the insertion
    point independent of where the declaration starts, and is valid GNU C and
    C++. A declarator that already mentions visibility is left untouched and
    "" is returned.
    """
    text = site.file.read_text(errors="replace")
    if _already_default(text, site.name_offset):
        return ""
    site.file.write_text(text[: site.name_offset] + ATTRIBUTE_TEXT + text[site.name_offset :])
    return ATTRIBUTE_TEXT


def remove_visibility_default(file: Path, symbol: str) -> bool:
    """Remove one journaled insertion before symbol's definition; True if removed."""
    text = file.read_text(errors="replace")
    start_at = len(ATTRIBUTE_TEXT)
    for offset in _definition_offsets(text, _call_pattern(base_identifier(demangle(symbol)))):
        if offset >= start_at and text.startswith(ATTRIBUTE_TEXT, offset - start_at):
            file.write_text(text[: offset - start_at] + text[offset:])
            return True
    return False


def _journal_path(cfg: ProjectConfig) -> Path:
    return cfg.report_dir / JOURNAL_NAME


def journal_patch(cfg: ProjectConfig, patch: VisibilityPatch) -> None:
    path = _journal_path(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(f"{patch.iteration}\t{patch.file}\t{patch.line}\t{patch.symbol}\n")


def revert_patches(cfg: ProjectConfig) -> int:
    """Undo every journaled insertion; returns the number of removals."""
    path = _journal_path(cfg)
    if not path.exists():
        return 0
    removed = 0
    with ProjectLock(cfg.report_dir):
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            if not raw.strip():
                continue
            parts = raw.split("\t")
            if len(parts) != 4:
                raise RepairError(f"journal line {lineno} is malformed: {raw!r}")
            _, file_str, _, symbol = parts
            file = Path(file_str)
            if not file.is_absolute():
                file = cfg.project_root / file
            if file.is_file() and remove_visibility_default(file, symbol):
                removed += 1
        path.unlink()
    return removed


def _fresh_elf_files(root: Path, since_ns: int) -> Iterable[Path]:
    """Regular ELF executables and shared objects under root, modified at or after since_ns."""
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = Path(dirpath, name)
            try:
                st = path.lstat()
                if not stat.S_ISREG(st.st_mode) or st.st_mtime_ns < since_ns:
                    continue
                with path.open("rb") as fh:
                    head = fh.read(18)
            except OSError:
                continue
            if head[:4] == b"\x7fELF" and int.from_bytes(head[16:18], "little") in (ET_EXEC, ET_DYN):
                yield path


def cross_dso_bindings(root: Path, since_ns: int) -> list[str]:
    """Symbols that one fresh ELF file under root imports and another exports, sorted.

    An import is an undefined global or weak .dynsym entry; an export is a
    defined one of default visibility. Only files modified at or after
    since_ns (st_mtime_ns) are read: the outputs of a build that started
    then. Under -fvisibility=hidden each of these bindings fails a link or a
    load, so they are the symbols the instrumented build needs exported.
    """
    importers: dict[str, set[int]] = {}
    exporters: dict[str, set[int]] = {}
    for index, path in enumerate(_fresh_elf_files(root, since_ns)):
        try:
            dynamic = ElfFile(path).dynamic_symbols()
        except (ElfError, OSError):
            continue
        for sym in dynamic:
            if not sym.name or sym.bind not in (STB_GLOBAL, STB_WEAK):
                continue
            if sym.shndx == 0:
                importers.setdefault(sym.name, set()).add(index)
            elif sym.visibility == "default":
                exporters.setdefault(sym.name, set()).add(index)
    return sorted(
        name
        for name, users in importers.items()
        if any(exporters.get(name, set()) - {user} for user in users)
    )


def _patch_pass(
    cfg: ProjectConfig,
    ledger: RepairLedger,
    symbols: Iterable[str],
    iteration: int,
    skipped: list[tuple[str, str]],
) -> int:
    """Patch the definitions of the symbols not yet patched; returns the number patched.

    A symbol without a definition under the project root, or whose
    definition already carries a visibility attribute, goes to skipped with
    the reason. Each patch is journaled; an ambiguous patched site is
    recorded in the ledger.
    """
    patched = ledger.patched_symbols
    symbols = [s for s in symbols if s not in patched]
    if not symbols:
        return 0
    index = _PassSources(cfg.project_root, symbols)
    new_patches = 0
    for symbol in symbols:
        if symbol in patched:
            continue
        site = locate_definition(symbol, cfg.project_root, index)
        if site is None:
            skipped.append((symbol, "definition not found under project root"))
            continue
        applied = _insert_attribute(site)
        if not applied:
            skipped.append((symbol, "definition already carries a visibility attribute"))
            continue
        if site.alternates:
            ledger.ambiguities.append((symbol, site.alternates))
        index.patched(site.file)
        file = site.file
        if file.is_relative_to(cfg.project_root):
            file = file.relative_to(cfg.project_root)
        patch = VisibilityPatch(
            symbol, index.demangled[symbol], str(file), site.line, site.column, applied, iteration
        )
        ledger.patches.append(patch)
        patched.update((patch.symbol, patch.demangled))
        journal_patch(cfg, patch)
        new_patches += 1
    return new_patches


def repair_until_buildable(
    cfg: ProjectConfig,
    mode: BuildMode,
    ledger: RepairLedger | None = None,
    *,
    phase: str = "build",
    planned: Iterable[str] = (),
) -> tuple[BuildOutcome, RepairLedger]:
    """Patch the planned symbols, then alternate run_build and symbol patching until the build stands.

    The planned symbols are patched in one pass before the first build;
    those the pass cannot patch are dropped without a note. Terminates when
    the build succeeds, when an attempt yields zero new patches (no
    progress), or when the iteration budget is exhausted. Only passes that
    applied at least one patch count as repair iterations, numbered on from
    the ledger's build attempts. Each build's log is named by its ordinal
    among the ledger's build attempts. The caller holds the ProjectLock.
    """
    if ledger is None:
        ledger = RepairLedger()
    iteration = ledger.build_attempts + 1
    outcome: BuildOutcome | None = None
    symbols, skipped = planned, []  # what the plan cannot patch goes unnoted
    attempts = 0
    while True:
        if _patch_pass(cfg, ledger, symbols, iteration, skipped):
            if phase == "build":
                ledger.iterations_build_phase += 1
            else:
                ledger.iterations_test_phase += 1
            iteration += 1
        elif outcome is not None:
            return outcome, ledger  # no progress
        attempts += 1
        ledger.build_attempts += 1
        outcome = run_build(cfg, mode, iteration=ledger.build_attempts)
        if outcome.succeeded or attempts > cfg.max_repair_iterations:
            return outcome, ledger
        symbols, skipped = extract_unresolved_symbols(outcome.diagnostics), ledger.skipped
