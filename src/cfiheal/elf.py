"""Minimal ELF reader: symbol tables, program headers and section lookup.

Scope is deliberately narrow: 64-bit little-endian ELF (x86_64). That is what
address symbolization needs; file and line come from binutils addr2line
(``symbols.LineTable``), so no DWARF is parsed here.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

ET_EXEC = 2
ET_DYN = 3
PT_LOAD = 1

STB_GLOBAL, STB_WEAK = 1, 2
STT_FUNC = 2

_VIS_NAMES = {0: "default", 1: "internal", 2: "hidden", 3: "protected"}


class ElfError(ValueError):
    """The file is not a supported ELF object, or a table it names lies outside it."""


@dataclass(frozen=True)
class ElfSymbol:
    name: str
    value: int
    size: int
    info: int
    other: int
    shndx: int

    @property
    def is_func(self) -> bool:
        return (self.info & 0xF) == STT_FUNC

    @property
    def bind(self) -> int:
        return self.info >> 4

    @property
    def visibility(self) -> str:
        return _VIS_NAMES.get(self.other & 0x3, "default")


@dataclass(frozen=True)
class LoadSegment:
    offset: int
    vaddr: int
    filesz: int
    memsz: int
    flags: int


class ElfFile:
    """Parsed view of one ELF binary that holds only its headers.

    The constructor reads the ELF header, the program and section headers and
    .shstrtab. A symbol table and its strings, or a section's bytes, are read
    from the file when asked for and not kept, so a view never holds the
    whole binary.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        with self.path.open("rb") as fh:
            fd = fh.fileno()
            self._size = os.fstat(fd).st_size
            head = os.pread(fd, 64, 0)
            if len(head) < 64 or head[:4] != b"\x7fELF":
                raise ElfError(f"not an ELF file: {path}")
            if head[4] != 2 or head[5] != 1:
                raise ElfError(f"only 64-bit little-endian ELF is supported: {path}")
            (
                self.e_type,
                _machine,
                _version,
                self.e_entry,
                e_phoff,
                e_shoff,
                _flags,
                _ehsize,
                e_phentsize,
                e_phnum,
                e_shentsize,
                e_shnum,
                e_shstrndx,
            ) = struct.unpack_from("<HHIQQQIHHHHHH", head, 16)
            tables = []
            for table, offset, count, stride, size in (
                ("program header", e_phoff, e_phnum, e_phentsize, 56),
                ("section header", e_shoff, e_shnum, e_shentsize, 64),
            ):
                length = (count - 1) * stride + size if count else 0
                if count and offset + length > self._size:
                    raise ElfError(f"{table} table lies outside the file: {path}")
                tables.append(self._read(fd, offset, length))
            program_headers, section_headers = tables

            self.load_segments: list[LoadSegment] = []
            for i in range(e_phnum):
                p_type, p_flags, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, _align = (
                    struct.unpack_from("<IIQQQQQQ", program_headers, i * e_phentsize)
                )
                if p_type == PT_LOAD:
                    self.load_segments.append(
                        LoadSegment(p_offset, p_vaddr, p_filesz, p_memsz, p_flags)
                    )

            self._sections: dict[str, tuple[int, int, int, int, int]] = {}
            headers = []
            for i in range(e_shnum):
                sh_name, sh_type, _flags2, sh_addr, sh_offset, sh_size, sh_link, _info, _align2, _entsz = (
                    struct.unpack_from("<IIQQQQIIQQ", section_headers, i * e_shentsize)
                )
                headers.append((sh_name, sh_type, sh_addr, sh_offset, sh_size, sh_link))
            if headers and e_shstrndx < len(headers):
                _, _, _, str_off, str_size, _ = headers[e_shstrndx]
                shstr = self._read(fd, str_off, str_size)
                for sh_name, sh_type, sh_addr, sh_offset, sh_size, sh_link in headers:
                    name = _cstr(shstr, sh_name)
                    self._sections[name] = (sh_type, sh_addr, sh_offset, sh_size, sh_link)
        self._headers = headers

    def _read(self, fd: int, offset: int, size: int) -> bytes:
        """The file's bytes [offset, offset + size), cut where the file ends."""
        size = min(size, self._size - offset)
        return os.pread(fd, size, offset) if size > 0 else b""

    def section(self, name: str) -> bytes | None:
        """The section's bytes, read from the file now; None if there is no such section."""
        entry = self._sections.get(name)
        if entry is None:
            return None
        _, _, offset, size, _ = entry
        with self.path.open("rb") as fh:
            return self._read(fh.fileno(), offset, size)

    def has_section(self, name: str) -> bool:
        return name in self._sections

    def _read_symbol_table(self, sect: str) -> list[ElfSymbol]:
        entry = self._sections.get(sect)
        if entry is None:
            return []
        _, _, offset, size, link = entry
        if link >= len(self._headers):
            return []
        if offset + size > self._size:
            raise ElfError(f"{sect} lies outside the file: {self.path}")
        _, _, _, str_off, str_size, _ = self._headers[link]
        with self.path.open("rb") as fh:
            table = self._read(fh.fileno(), offset, size - size % 24)
            strtab = self._read(fh.fileno(), str_off, str_size)
        return [
            ElfSymbol(_cstr(strtab, st_name), st_value, st_size, st_info, st_other, st_shndx)
            for st_name, st_info, st_other, st_shndx, st_value, st_size in struct.iter_unpack(
                "<IBBHQQ", table
            )
        ]

    def symbols(self) -> list[ElfSymbol]:
        """Symbols from .symtab and .dynsym, deduplicated by (name, value)."""
        out: list[ElfSymbol] = []
        seen: set[tuple[str, int]] = set()
        for sect in (".symtab", ".dynsym"):
            for sym in self._read_symbol_table(sect):
                key = (sym.name, sym.value)
                if key in seen:
                    continue
                seen.add(key)
                out.append(sym)
        return out

    def dynamic_symbols(self) -> list[ElfSymbol]:
        """Symbols visible to the dynamic linker (.dynsym only)."""
        return self._read_symbol_table(".dynsym")

    def function_symbols(self) -> list[ElfSymbol]:
        return [s for s in self.symbols() if s.is_func and s.name]

    def file_offset_to_vaddr(self, offset: int) -> int | None:
        for seg in self.load_segments:
            if seg.offset <= offset < seg.offset + seg.filesz:
                return seg.vaddr + (offset - seg.offset)
        return None

    def vaddr_to_file_offset(self, vaddr: int) -> int | None:
        for seg in self.load_segments:
            if seg.vaddr <= vaddr < seg.vaddr + seg.filesz:
                return seg.offset + (vaddr - seg.vaddr)
        return None


def _cstr(buf: bytes, offset: int) -> str:
    if offset >= len(buf):
        return ""
    end = buf.find(b"\x00", offset)
    if end < 0:
        end = len(buf)
    return buf[offset:end].decode("utf-8", errors="replace")
