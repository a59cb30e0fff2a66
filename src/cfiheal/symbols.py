"""Address symbolization: static addresses to functions, files and lines.

Resolution layers, best first:
  1. symbol-table function spans plus file and line from binutils addr2line
     (confidence Debuginfo),
  2. symbol-table spans without line info (confidence SymbolTable).

An address no symbol-table span covers, as anywhere in a stripped binary,
gets no symbol info: resolve raises ResolutionError, and resolve_runtime_many
still gives the binary and the static address, which key a trap there the
same way under any load address. No name is made up for such an address,
because no ignorelist entry the compiler honours could name it.

Given the project root, the Symbolizer alone decides what is the project's:
a file under the resolved root, spelled relative to it as src: entries name
it. A frame in a binary outside the project is not resolved at all:
resolve_runtime_many labels it with the binary's file name (confidence
OutsideProject) and builds no view of it, because no entry the project's
build honours can name it.

Runtime addresses from a trap are translated to static addresses through the
faulting mapping's file offset and the binary's PT_LOAD headers, which stays
correct when segment file offsets and virtual addresses disagree.

A binary's view is its symbol-table spans, named as the symbol table spells
them (mangled for C++, the spelling ignorelist ``fun:`` entries match), so
building it starts no subprocess. File and line of hits come from one
addr2line per batch of addresses not asked before.

The functions each source file defines, which a src: rung asks about, come
from one streamed llvm-dwarfdump of the binary, kept with its view.
"""

from __future__ import annotations

import bisect
import codecs
import functools
import os
import re
import subprocess
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .elf import ElfError, ElfFile, ElfSymbol
from .tracing import MemoryRegion, region_for


class Confidence(Enum):
    DEBUGINFO = "Debuginfo"
    SYMBOL_TABLE = "SymbolTable"
    OUTSIDE_PROJECT = "OutsideProject"


class ResolutionError(LookupError):
    """The address falls outside every known function span."""


@dataclass(frozen=True)
class SymbolInfo:
    function: str
    source_file: str | None
    line: int | None
    confidence: Confidence

    def __post_init__(self) -> None:
        if self.confidence is Confidence.DEBUGINFO and self.source_file is None:
            raise ValueError("Debuginfo confidence requires a source file")


@dataclass(frozen=True)
class FunctionSpan:
    name: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty function span: {self.name} at 0x{self.start:x}")

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


# Names c++filt reads from stdin as one symbol. Given any other name as an
# argument it prints the name unchanged, so batching only these keeps the
# per-name result.
_CXXFILT_WORD = re.compile(r"_Z[\w.$]*", re.ASCII)


def _filter(
    argv: list[str], items: Sequence[str], noun: str, fallback: str
) -> tuple[list[str], str | None]:
    """The output lines of `argv` reading `items` one a line on stdin, one line per item.

    If the tool is missing, times out, fails or answers with the wrong number
    of lines, the lines are empty and the second item says why, naming the
    items by `noun` and what is left of them by `fallback`.
    """
    payload = "".join(item + "\n" for item in items).encode()
    try:
        proc = subprocess.run(argv, input=payload, capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return [], f"{argv[0]} failed, {fallback}: {exc}"
    lines = proc.stdout.decode(errors="replace").split("\n")
    if lines[-1] == "":
        lines.pop()
    if proc.returncode != 0 or len(lines) != len(items):
        return [], (
            f"{argv[0]} exited {proc.returncode} with {len(lines)} lines for "
            f"{len(items)} {noun}; {fallback}"
        )
    return lines, None


def _demangle_batch(names: Sequence[str]) -> tuple[list[str], str | None]:
    """Demangled spellings of `names` from one c++filt reading them over stdin.

    Names other than a whole c++filt symbol (whitespace, ``@`` version
    suffixes) pass through unchanged. If c++filt is missing, times out, fails
    or answers with the wrong number of lines, every name stays as given and
    the second item says why.
    """
    out = list(names)
    todo = [i for i, name in enumerate(names) if _CXXFILT_WORD.fullmatch(name)]
    if not todo:
        return out, None
    lines, failure = _filter(["c++filt"], [names[i] for i in todo], "names", "names left mangled")
    if failure is not None:
        return out, failure
    for i, line in zip(todo, lines):
        out[i] = line.strip() or names[i]
    return out, None


# addr2line's " (discriminator N)" after a line number.
_DISCRIMINATOR = re.compile(r" \(discriminator \d+\)$")

_Location = tuple[str, int] | None


def _parse_location(text: str) -> _Location:
    """(file, line) from one addr2line answer; None for ``??:0`` and ``??:?``.

    addr2line prints ``?`` for line 0, which keeps the file.
    """
    file, _, line = _DISCRIMINATOR.sub("", text.strip()).rpartition(":")
    if not file or file == "??":
        return None
    return file, int(line) if line.isdigit() else 0


class LineTable:
    """File and line of a binary's addresses, from binutils addr2line.

    One addr2line call answers every address of a batch not asked before, and
    each answer is cached. A binary without .debug_line starts no addr2line.
    If addr2line is missing, times out, fails or answers with the wrong number
    of lines, the binary's lines stay unknown and no further call is made.
    """

    def __init__(self, binary: Path | None):
        # None: nothing to ask, because the binary has no line information
        # or a call for it failed.
        self.binary = binary
        self._known: dict[int, _Location] = {}

    @staticmethod
    def from_elf(elf: ElfFile) -> "LineTable":
        return LineTable(elf.path if elf.has_section(".debug_line") else None)

    def lookup(self, addresses: Sequence[int]) -> tuple[list[_Location], str | None]:
        """(file, line) or None per address; the second item says why a call failed."""
        todo = sorted({a for a in addresses if a not in self._known})
        failure = self._ask(todo) if todo and self.binary is not None else None
        return [self._known.get(a) for a in addresses], failure

    def _ask(self, todo: list[int]) -> str | None:
        """Cache addr2line's answers for `todo`; on a failure stop asking and say why."""
        lines, failure = _filter(
            ["addr2line", "-e", str(self.binary)], [f"{a:#x}" for a in todo],
            "addresses", "lines left unknown",
        )
        if failure is None:
            self._known.update(zip(todo, map(_parse_location, lines)))
        else:
            self.binary = None
        return failure


# Unit file -> names of the functions defined for it; None stands for a
# definition with no readable name or declaration file.
DefinitionTable = dict[str, frozenset[str | None]]

# A DIE header of llvm-dwarfdump's --debug-info listing, "0x0000002e:   DW_TAG_subprogram",
# and the DIE offset a reference attribute names, '(0x000002a7 "helper")'.
_DWARF_DIE = re.compile(r"0x([0-9a-f]+):\s+(\w+)")
_DWARF_REF = re.compile(r"0x([0-9a-f]+)")
_DWARF_KEPT = frozenset({
    "DW_AT_name", "DW_AT_linkage_name", "DW_AT_MIPS_linkage_name", "DW_AT_decl_file",
    "DW_AT_comp_dir", "DW_AT_specification", "DW_AT_abstract_origin", "DW_AT_declaration",
    "DW_AT_low_pc", "DW_AT_ranges", "DW_AT_inline",
})
_DWARF_UNITS = frozenset({"DW_TAG_compile_unit", "DW_TAG_partial_unit"})
_DWARF_NAMES = ("DW_AT_linkage_name", "DW_AT_MIPS_linkage_name", "DW_AT_name")


def _dwarf_string(value: str | None) -> str | None:
    """The text of a quoted, escaped attribute value; None for a missing or unquoted one."""
    if value is None or len(value) < 2 or value[0] != '"' or value[-1] != '"':
        return None
    text = value[1:-1]
    if "\\" in text:
        text = codecs.escape_decode(text.encode())[0].decode(errors="replace")
    return text


def _dwarf_dies(binary: Path) -> list[tuple[str, int, dict[str, str]]] | None:
    """(tag, offset, kept attributes) of each unit and subprogram DIE; None if the dump fails.

    The dump is parsed as it streams; only these DIEs and attributes are
    kept, so the dump itself is never held in memory.
    """
    dies: list[tuple[str, int, dict[str, str]]] = []
    attrs: dict[str, str] | None = None
    try:
        with subprocess.Popen(
            ["llvm-dwarfdump", "--debug-info", str(binary)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, errors="replace",
        ) as proc:
            for raw in proc.stdout:
                if raw.startswith("0x"):
                    die = _DWARF_DIE.match(raw)
                    attrs = None
                    if die is not None and (
                        die.group(2) == "DW_TAG_subprogram" or die.group(2) in _DWARF_UNITS
                    ):
                        attrs = {}
                        dies.append((die.group(2), int(die.group(1), 16), attrs))
                elif attrs is not None:
                    key, found, value = raw.strip().partition("\t(")
                    if found and key in _DWARF_KEPT:
                        attrs[key] = value[:-1] if value.endswith(")") else value
    except OSError:
        return None
    return dies if proc.returncode == 0 else None


def read_definitions(binary: Path) -> DefinitionTable | None:
    """Function definitions by file from one ``llvm-dwarfdump --debug-info``; None if it fails.

    Each unit's primary file (its name under its compilation directory, as
    a real path) maps to the definitions in that unit plus every definition
    elsewhere whose declaration file it is. A definition is a subprogram
    with code or an abstract instance, so functions that were only ever
    inlined count. Names (linkage name first) and files are followed
    through DW_AT_abstract_origin and DW_AT_specification. A file no unit
    has as its primary file, such as a header, is not a key.
    """
    dies = _dwarf_dies(binary)
    if dies is None:
        return None
    by_offset = {offset: attrs for tag, offset, attrs in dies}

    def first(attrs: dict[str, str], keys: Sequence[str]) -> str | None:
        """The first of `keys` found on the DIE or the DIEs it refers to."""
        links = [attrs]
        while len(links) < 8:  # a longer chain is a malformed reference cycle
            ref = _DWARF_REF.match(
                links[-1].get("DW_AT_abstract_origin") or links[-1].get("DW_AT_specification") or ""
            )
            held = by_offset.get(int(ref.group(1), 16)) if ref else None
            if held is None:
                break
            links.append(held)
        return next((_dwarf_string(a[k]) for k in keys for a in links if k in a), None)

    real = functools.lru_cache(maxsize=None)(os.path.realpath)
    in_unit: dict[str, set[str | None]] = {}
    declared_in: dict[str, set[str | None]] = {}
    unit: set[str | None] | None = None
    comp_dir = ""
    for tag, _, attrs in dies:
        if tag in _DWARF_UNITS:
            comp_dir = _dwarf_string(attrs.get("DW_AT_comp_dir")) or ""
            name = _dwarf_string(attrs.get("DW_AT_name"))
            unit = in_unit.setdefault(real(os.path.join(comp_dir, name)), set()) if name else None
            continue
        if "DW_AT_declaration" in attrs or not attrs.keys() & {
            "DW_AT_low_pc", "DW_AT_ranges", "DW_AT_inline"
        }:
            continue
        name = first(attrs, _DWARF_NAMES)
        file = first(attrs, ("DW_AT_decl_file",))
        if file is not None:
            file = real(os.path.join(comp_dir, file))
            declared_in.setdefault(file, set()).add(name)
        if unit is not None:
            unit.add(name if file is not None else None)
    return {file: frozenset(names | declared_in.get(file, ())) for file, names in in_unit.items()}


class ObjdumpBackend:
    """A name kept for the benchmark's layer tracer; cfiheal disassembles nothing."""


class _SpanIndex:
    """Sorted spans with a bisect lookup by address."""

    def __init__(self, spans: list[FunctionSpan]):
        self.spans = spans
        self.starts = [s.start for s in spans]

    def at(self, address: int) -> FunctionSpan | None:
        i = bisect.bisect_right(self.starts, address) - 1
        return self.spans[i] if i >= 0 and self.spans[i].contains(address) else None


@dataclass
class _BinaryView:
    elf: ElfFile
    lines: LineTable
    spans: _SpanIndex
    # read_definitions of the binary, spelled by _spell, once `dumped`; None if the dump failed.
    definitions: DefinitionTable | None = None
    dumped: bool = False


class Symbolizer:
    """Per-binary caches of symbol-table spans and lines; results are deterministic."""

    def __init__(self, project_root: Path | None = None) -> None:
        self.warnings: list[str] = []
        self._root = Path(project_root).resolve() if project_root is not None else None
        # One view per path, with the (mtime_ns, size) it was built from.
        self._cache: dict[str, tuple[tuple[int, int], _BinaryView | None]] = {}
        self._spelled: dict[str, str] = {}  # path string -> its _spell

    def _spell(self, file: str) -> str:
        """An absolute `file` under the resolved root, relative to it; any other as given."""
        if self._root is not None and os.path.isabs(file) and file not in self._spelled:
            real = Path(file).resolve()
            inside = real.is_relative_to(self._root)
            self._spelled[file] = str(real.relative_to(self._root)) if inside else file
        return self._spelled.get(file, file)

    def _in_project(self, path: str) -> bool:
        """Whether a mapping's path names a file under the root; any path does without one."""
        return self._root is None or (os.path.isabs(path) and not os.path.isabs(self._spell(path)))

    def _view(self, binary: Path) -> _BinaryView | None:
        binary = Path(binary)
        try:
            stat = binary.stat()
        except OSError as exc:
            self.warnings.append(f"unreadable binary {binary}: {exc}")
            return None
        stamp = (stat.st_mtime_ns, stat.st_size)
        held = self._cache.get(str(binary))
        if held is not None and held[0] == stamp:
            return held[1]
        # A rebuilt binary replaces the stale view of its path.
        view = None
        try:
            elf = ElfFile(binary)
            spans = self._build_spans(elf, binary)
        except (ElfError, OSError) as exc:
            self.warnings.append(f"unparseable binary {binary}: {exc}")
        else:
            view = _BinaryView(elf, LineTable.from_elf(elf), _SpanIndex(spans))
        self._cache[str(binary)] = (stamp, view)
        return view

    def _build_spans(self, elf: ElfFile, binary: Path) -> list[FunctionSpan]:
        """Sorted, disjoint symbol-table spans, named as the symbol table spells them.

        `binary` is unused here; perfbench's layer trace reads it to size the view.
        """
        by_start: dict[int, ElfSymbol] = {}
        for sym in elf.function_symbols():
            if sym.size <= 0:
                continue
            held = by_start.get(sym.value)
            if held is None or (held.bind == 0 and sym.bind != 0):
                by_start[sym.value] = sym
        ordered = sorted(by_start.values(), key=lambda s: s.value)
        spans: list[FunctionSpan] = []
        for i, sym in enumerate(ordered):
            end = sym.value + sym.size
            if i + 1 < len(ordered):
                end = min(end, ordered[i + 1].value)
            spans.append(FunctionSpan(sym.name, sym.value, end))
        return spans

    def definitions_by_file(self, binary: Path) -> DefinitionTable | None:
        """read_definitions of the binary, spelled as source_file is, from one dump per view.

        None if the dump fails; empty, with no view, for a binary outside the project.
        """
        if not self._in_project(str(binary)):
            return {}
        view = self._view(binary)
        if view is None:
            return None
        if not view.dumped:
            table = read_definitions(view.elf.path)
            view.dumped = True
            if table is None:
                self.warnings.append(f"{binary}: llvm-dwarfdump failed, no src: rung skipped")
            else:
                view.definitions = {self._spell(file): names for file, names in table.items()}
        return view.definitions

    def function_boundaries(self, binary: Path) -> list[FunctionSpan]:
        """Sorted, disjoint symbol-table spans; empty (with a warning) if unparseable."""
        view = self._view(binary)
        return list(view.spans.spans) if view else []

    def resolve(self, binary: Path, address: int) -> SymbolInfo:
        """Symbol info for a static address; raises ResolutionError on a miss."""
        return self.resolve_many(binary, [address])[0]

    def resolve_many(self, binary: Path, addresses: Sequence[int]) -> list[SymbolInfo]:
        """Symbol info per static address, with one addr2line for the batch.

        Raises ResolutionError if any address misses.
        """
        view = self._view(binary)
        if view is None:
            raise ResolutionError(f"cannot parse binary {binary}")
        spans = []
        for address in addresses:
            span = view.spans.at(address)
            if span is None:
                raise ResolutionError(f"address 0x{address:x} is outside all function spans")
            spans.append(span)
        found, failure = view.lines.lookup(addresses)
        if failure:
            self.warnings.append(f"{binary}: {failure}")
        return [
            SymbolInfo(span.name, self._spell(hit[0]), hit[1], Confidence.DEBUGINFO)
            if hit is not None
            else SymbolInfo(span.name, None, None, Confidence.SYMBOL_TABLE)
            for span, hit in zip(spans, found)
        ]

    def resolve_runtime_many(
        self, runtime_addrs: Sequence[int], regions: Sequence[MemoryRegion]
    ) -> list[tuple[Path, int, SymbolInfo | None] | None]:
        """(binary, static address, symbol info) per runtime address, through its mapping.

        An address mapped from outside the project (``[vdso]`` too) keeps its
        runtime address, labelled with the binary's file name at confidence
        OutsideProject, and that binary gets no view. One resolve_many asks
        for each other binary's addresses. An address that no span of its
        binary covers gives the binary and the static address with no symbol
        info; an address that cannot be attributed gives None.
        """
        results: list[tuple[Path, int, SymbolInfo | None] | None] = [None] * len(runtime_addrs)
        found: dict[Path, list[tuple[int, int]]] = {}  # binary -> (index, static) hits
        for i, runtime_addr in enumerate(runtime_addrs):
            region = region_for(regions, runtime_addr)
            if region is None or region.path is None:
                continue
            binary = Path(region.path)
            if not self._in_project(region.path):
                info = SymbolInfo(binary.name, None, None, Confidence.OUTSIDE_PROJECT)
                results[i] = (binary, runtime_addr, info)
                continue
            view = self._view(binary) if "x" in region.perms else None
            if view is None:
                continue
            static = view.elf.file_offset_to_vaddr(region.offset + runtime_addr - region.start)
            if static is None:
                continue
            if view.spans.at(static) is None:
                results[i] = (binary, static, None)
            else:
                found.setdefault(binary, []).append((i, static))
        for binary, hits in found.items():
            try:
                infos = self.resolve_many(binary, [static for _, static in hits])
            except ResolutionError:  # rebuilt since its view was read
                continue
            for (i, static), info in zip(hits, infos):
                results[i] = (binary, static, info)
        return results
