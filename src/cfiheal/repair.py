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
__attribute__((visibility("default"))) to the definition's declarator,
writing each patched file once, through a new file renamed over it. Every
insertion is journaled (iteration, file, line, symbol) so the whole set of
patches can be reverted exactly.

Definitions are recognized, not declarations: the symbol name followed by a
balanced parameter list whose closing parenthesis leads (possibly through
whitespace and further attributes) to an opening brace. Prototypes end in a
semicolon and are never patched.
"""

from __future__ import annotations

import os
import re
import shutil
import stat
from collections.abc import Iterable
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
from .symbols import _demangle_batch

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


_ATTR_SKIP = re.compile(r"\s*__attribute__\s*\(\(")
_SPACE = re.compile(r"\s*")
_PAREN = re.compile(r"[()]")


def _skip_attributes(text: str, pos: int) -> int:
    """Advance past whitespace and __attribute__((...)) blocks."""
    while m := _ATTR_SKIP.match(text, pos):
        if (close := _closing_paren(text, m.end() - 2)) == len(text):
            break
        pos = close + 1
    return _SPACE.match(text, pos).end()


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
    for m in _PAREN.finditer(text, open_at):
        depth += 1 if m.group() == "(" else -1
        if depth == 0:
            return m.start()
    return len(text)


def _read_source(path: Path) -> str:
    """path's bytes as text, line endings kept; bytes that are no UTF-8 become surrogates."""
    return path.read_bytes().decode("utf-8", "surrogateescape")


def _iter_sources(root: Path) -> list[Path]:
    files = [p for p in root.rglob("*") if p.suffix in _SOURCE_SUFFIXES and not p.is_symlink()]
    return sorted((p for p in files if p.is_file()), key=lambda p: str(p.relative_to(root)))


# Whole words of ASCII letters, digits and underscores.
_WORD = re.compile(r"\w+", re.ASCII)


def _scan_definitions(
    root: Path, names: Iterable[str]
) -> tuple[dict[str, list[tuple[Path, int]]], dict[Path, str]]:
    """Where each name is defined under root, from one walk and one read of each source.

    Returns each name's definitions as (file, offset), in path order, and the
    text of each file that holds one. An ASCII name can be defined only in a
    text that has its leading word as a whole word; any other name is looked
    for as a substring.
    """
    calls = {name: _call_pattern(name) for name in names}
    by_word: dict[str, list[str]] = {}
    unworded: list[str] = []
    for name in calls:
        word = _WORD.match(name) if name.isascii() else None
        if word:
            by_word.setdefault(word.group(), []).append(name)
        else:
            unworded.append(name)
    hits: dict[str, list[tuple[Path, int]]] = {name: [] for name in calls}
    texts: dict[Path, str] = {}
    for path in _iter_sources(root):
        try:
            text = _read_source(path)
        except OSError:
            continue
        names_here = [n for w in set(_WORD.findall(text)) & by_word.keys() for n in by_word[w]]
        names_here += [n for n in unworded if n in text]
        for name in names_here:
            for offset in _definition_offsets(text, calls[name]):
                hits[name].append((path, offset))
                texts[path] = text
    return hits, texts


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of offset in text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _site(root: Path, hits: list[tuple[Path, int]], texts: dict[Path, str]) -> DefinitionSite:
    """The first of hits as a DefinitionSite; the others become its alternates."""
    path, offset = hits[0]
    alternates = tuple(f"{p.relative_to(root)}:{_line_column(texts[p], o)[0]}" for p, o in hits[1:])
    return DefinitionSite(path, *_line_column(texts[path], offset), offset, alternates)


def _already_default(text: str, name_offset: int, planned: Iterable[int] = ()) -> bool:
    """True if the declarator already carries a visibility attribute.

    planned holds the offsets in text before which the attribute is to be
    inserted; one inside the declarator counts as carried.
    """
    start = max(
        text.rfind(";", 0, name_offset),
        text.rfind("}", 0, name_offset),
        text.rfind("{", 0, name_offset),
    )
    prefix = text[start + 1 : name_offset]
    return "visibility" in prefix or any(start < p <= name_offset for p in planned)


def _with_attributes(text: str, offsets: Iterable[int]) -> str:
    """text with the attribute inserted before each of offsets (definition names).

    Between type and declarator, the insertion point does not depend on where
    the declaration starts, and the attribute is valid GNU C and C++.
    """
    bounds = [0, *sorted(offsets), len(text)]
    return ATTRIBUTE_TEXT.join(text[a:b] for a, b in zip(bounds, bounds[1:]))


def _without_attribute(text: str, name: str) -> str | None:
    """text less the inserted attribute before the first definition of name that has one."""
    start_at = len(ATTRIBUTE_TEXT)
    for offset in _definition_offsets(text, _call_pattern(name)):
        if offset >= start_at and text.startswith(ATTRIBUTE_TEXT, offset - start_at):
            return text[: offset - start_at] + text[offset:]
    return None


def replace_file(path: Path, text: str) -> None:
    """Replace path by a file of text, with path's mode, written beside it under a new name."""
    temporary = path.with_name(f".{path.name}.{os.urandom(4).hex()}")
    stream = temporary.open("xb")  # never an existing file, which the except would remove
    try:
        with stream:
            stream.write(text.encode("utf-8", "surrogateescape"))  # as _read_source decodes
        if path.exists():
            shutil.copymode(path, temporary)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def journal_patches(cfg: ProjectConfig, patches: Iterable[VisibilityPatch]) -> None:
    """Append one journal row per patch, in one write."""
    path = cfg.report_dir / JOURNAL_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write("".join(f"{p.iteration}\t{p.file}\t{p.line}\t{p.symbol}\n" for p in patches))


def revert_patches(cfg: ProjectConfig) -> int:
    """Undo the journaled insertions; returns the number of removals.

    Each file is read and written once. Rows whose insertion cannot be found
    stay in the journal, which is removed once it is empty.
    """
    path = cfg.report_dir / JOURNAL_NAME
    if not path.exists():
        return 0
    with ProjectLock(cfg.report_dir):
        rows: dict[Path, list[tuple[int, str, str]]] = {}
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            if not raw.strip():
                continue
            parts = raw.split("\t")
            if len(parts) != 4:
                raise RepairError(f"journal line {lineno} is malformed: {raw!r}")
            file = cfg.project_root / parts[1]  # an absolute row path stays as it is
            rows.setdefault(file, []).append((lineno, raw, parts[3]))
        symbols = sorted({symbol for file_rows in rows.values() for *_, symbol in file_rows})
        names = {s: base_identifier(d) for s, d in zip(symbols, _demangle_batch(symbols)[0])}
        removed, left = 0, []
        for file, file_rows in rows.items():
            text = original = _read_source(file) if file.is_file() else None
            for lineno, raw, symbol in file_rows:
                stripped = None if text is None else _without_attribute(text, names[symbol])
                if stripped is None:
                    left.append((lineno, raw))
                else:
                    text, removed = stripped, removed + 1
            if text != original:
                replace_file(file, text)
        if left:
            replace_file(path, "".join(raw + "\n" for _, raw in sorted(left)))
        else:
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

    One scan of the tree finds every symbol's definitions. The symbols are
    decided in order against it, as if each earlier patch were already in
    place; then each patched file is written once and the journal appended
    once. A symbol without a definition under the project root, or whose
    definition already carries a visibility attribute, goes to skipped with
    the reason. An ambiguous patched site is recorded in the ledger.
    """
    patched = ledger.patched_symbols
    symbols = [s for s in symbols if s not in patched]
    if not symbols:
        return 0
    root = cfg.project_root
    demangled = dict(zip(symbols, _demangle_batch(symbols)[0]))
    hits, texts = _scan_definitions(root, {base_identifier(d) for d in demangled.values()})
    planned: dict[Path, list[int]] = {}  # file -> offsets to insert before, in its text
    new_patches: list[VisibilityPatch] = []
    for symbol in symbols:
        if symbol in patched:
            continue
        found = hits[base_identifier(demangled[symbol])]
        if not found:
            skipped.append((symbol, "definition not found under project root"))
            continue
        site = _site(root, found, texts)
        earlier = planned.get(site.file, [])
        if _already_default(texts[site.file], site.name_offset, earlier):
            skipped.append((symbol, "definition already carries a visibility attribute"))
            continue
        if site.alternates:
            ledger.ambiguities.append((symbol, site.alternates))
        # Earlier insertions on the site's line shift its column.
        offset = site.name_offset
        shift = len(ATTRIBUTE_TEXT) * sum(offset - site.column < p < offset for p in earlier)
        planned.setdefault(site.file, []).append(offset)
        patch = VisibilityPatch(
            symbol, demangled[symbol], str(site.file.relative_to(root)), site.line,
            site.column + shift, iteration,
        )
        new_patches.append(patch)
        patched.update((patch.symbol, patch.demangled))
    if new_patches:
        journal_patches(cfg, new_patches)
    for path, offsets in planned.items():
        replace_file(path, _with_attributes(texts[path], offsets))
    ledger.patches.extend(new_patches)
    return len(new_patches)


def repair_until_buildable(
    cfg: ProjectConfig,
    mode: BuildMode,
    ledger: RepairLedger | None = None,
    *,
    planned: Iterable[str] = (),
) -> tuple[BuildOutcome, RepairLedger]:
    """Patch the planned symbols, then alternate run_build and symbol patching until the build stands.

    The planned symbols are patched in one pass before the first build;
    those the pass cannot patch are dropped without a note. A failed
    build's symbols are patched in sorted order, as the plan's are, so the
    patches do not depend on the order in which parallel links failed.
    Terminates when the build succeeds, when an attempt yields zero new
    patches (no progress), or when the iteration budget is exhausted. Only
    passes that applied at least one patch count as repair iterations,
    numbered on from the ledger's build attempts. They count toward the
    build phase when the ledger has no build attempt yet, else toward the
    test phase. Each build's log is named by its ordinal among the ledger's
    build attempts. The caller holds the ProjectLock.
    """
    if ledger is None:
        ledger = RepairLedger()
    build_phase = ledger.build_attempts == 0
    iteration = ledger.build_attempts + 1
    outcome: BuildOutcome | None = None
    symbols, skipped = planned, []  # what the plan cannot patch goes unnoted
    attempts = 0
    while True:
        if _patch_pass(cfg, ledger, symbols, iteration, skipped):
            if build_phase:
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
        symbols, skipped = sorted(extract_unresolved_symbols(outcome.diagnostics)), ledger.skipped
