"""ELF reader and file/line lookup against binutils oracles."""

import hashlib
import re
import shutil
import struct
import subprocess
import tracemalloc
from pathlib import Path

import pytest

from cfiheal.elf import ET_DYN, ET_EXEC, ElfError, ElfFile, ElfSymbol, LoadSegment, _cstr
from cfiheal.symbols import ResolutionError, Symbolizer

from conftest import HAVE_CLANG, needs_toolchain


def nm_functions(binary: Path) -> dict[str, int]:
    """Oracle: text-symbol addresses according to nm."""
    out = subprocess.run(
        ["nm", "--defined-only", str(binary)], check=True, capture_output=True, text=True
    ).stdout
    table = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in ("T", "t"):
            table[parts[2]] = int(parts[0], 16)
    return table


def decodedline_rows(binary: Path) -> list[tuple[str, int, int]]:
    """Oracle: (file, line, address) rows from objdump --dwarf=decodedline."""
    out = subprocess.run(
        ["objdump", "--dwarf=decodedline", str(binary)],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    rows = []
    for line in out.splitlines():
        m = re.match(r"^(\S+)\s+(\d+)\s+(0x[0-9a-f]+)", line.strip())
        if m:
            rows.append((m.group(1), int(m.group(2)), int(m.group(3), 16)))
    return rows


@needs_toolchain
def test_header_and_sections(sample_binaries):
    elf = ElfFile(sample_binaries["dwarf4"])
    assert elf.e_type in (ET_EXEC, ET_DYN)
    assert elf.has_section(".text")
    assert elf.has_section(".debug_line")
    assert elf.section(".text")
    assert not elf.has_section(".made_up_section")
    assert elf.section(".made_up_section") is None


def test_rejects_non_elf(tmp_path):
    junk = tmp_path / "not_elf"
    junk.write_bytes(b"MZ this is not an ELF file")
    with pytest.raises(ElfError):
        ElfFile(junk)


def test_rejects_truncated(tmp_path):
    stub = tmp_path / "trunc"
    stub.write_bytes(b"\x7fELF\x02\x01\x01\x00")
    with pytest.raises(ElfError):
        ElfFile(stub)


def elf_image(*, shoff: int = 120, phoff: int = 0, phnum: int = 0, dynsym=(96, 24)) -> bytes:
    """A small ET_DYN image: .shstrtab, .dynstr and a .dynsym at (offset, size).

    The section headers start at `shoff`; with the default layout they end the
    file, at byte 376.
    """
    head = bytearray(64)
    head[:7] = b"\x7fELF\x02\x01\x01"
    struct.pack_into("<HHIQQQIHHHHHH", head, 16, ET_DYN, 62, 1, 0, phoff, shoff, 0, 64, 56,
                     phnum, 64, 4, 1)
    shstrtab = b"\0.shstrtab\0.dynsym\0.dynstr\0"
    body = bytes(head) + shstrtab + b"\0" + bytes(4) + bytes(24)
    sections = [
        (0, 0, 0, 0, 0),
        (1, 3, 64, len(shstrtab), 0),  # .shstrtab
        (11, 11, *dynsym, 3),  # .dynsym, its names in .dynstr
        (19, 3, 91, 1, 0),  # .dynstr
    ]
    table = b"".join(
        struct.pack("<IIQQQQIIQQ", name, kind, 0, 0, offset, size, link, 0, 1, 0)
        for name, kind, offset, size, link in sections
    )
    return body + table


@pytest.mark.parametrize(
    "image",
    [
        pytest.param(elf_image(shoff=4096)[:64], id="section headers past a bare header"),
        pytest.param(elf_image(shoff=200), id="section headers past the end"),
        pytest.param(elf_image(phoff=4096, phnum=1), id="program headers"),
    ],
)
def test_rejects_a_header_table_outside_the_file(tmp_path, image):
    path = tmp_path / "libbad.so"
    path.write_bytes(image)
    with pytest.raises(ElfError, match="lies outside the file"):
        ElfFile(path)


def test_rejects_a_symbol_table_outside_the_file(tmp_path):
    path = tmp_path / "libbad.so"
    path.write_bytes(elf_image())
    assert [s.name for s in ElfFile(path).dynamic_symbols()] == [""]
    path.write_bytes(elf_image(dynsym=(360, 48)))
    elf = ElfFile(path)
    for read in (elf.dynamic_symbols, elf.symbols, elf.function_symbols):
        with pytest.raises(ElfError, match=".dynsym lies outside the file"):
            read()
    # The symbolizer gives such a binary no view, and says why.
    symbolizer = Symbolizer()
    assert symbolizer.function_boundaries(path) == []
    assert symbolizer.warnings == [
        f"unparseable binary {path}: .dynsym lies outside the file: {path}"
    ]


@needs_toolchain
def test_function_symbols_match_nm(sample_binaries):
    binary = sample_binaries["dwarf4"]
    elf = ElfFile(binary)
    mine = {s.name: s.value for s in elf.function_symbols() if s.name}
    oracle = nm_functions(binary)
    for name in ("main", "alpha", "beta", "gamma_fn"):
        assert mine[name] == oracle[name]


@needs_toolchain
def test_load_segment_translation_roundtrip(sample_binaries):
    elf = ElfFile(sample_binaries["dwarf4"])
    entry = elf.e_entry
    offset = elf.vaddr_to_file_offset(entry)
    assert offset is not None
    assert elf.file_offset_to_vaddr(offset) == entry


@needs_toolchain
def test_translation_survives_offset_vaddr_skew(sample_binaries):
    # Separate-load-segment layouts map p_offset and p_vaddr differently;
    # translation must go through the segment pair, not assume identity.
    elf = ElfFile(sample_binaries["dwarf4"])
    skewed = [seg for seg in elf.load_segments if seg.offset != seg.vaddr]
    if not skewed:
        pytest.skip("linker produced identity-mapped segments")
    seg = skewed[0]
    probe = seg.vaddr + min(8, max(seg.filesz - 1, 0))
    offset = elf.vaddr_to_file_offset(probe)
    assert offset == seg.offset + (probe - seg.vaddr)


@needs_toolchain
def test_dynamic_symbols_subset(sample_binaries):
    elf = ElfFile(sample_binaries["dwarf4"])
    dyn = {s.name for s in elf.dynamic_symbols()}
    full = {s.name for s in elf.symbols()}
    assert dyn <= full or not dyn


@needs_toolchain
def test_visibility_parsing(tmp_path):
    src = tmp_path / "vis.c"
    src.write_text(
        '__attribute__((visibility("hidden"))) int hush(void) { return 1; }\n'
        '__attribute__((visibility("default"))) int loud(void) { return 2; }\n'
    )
    obj = tmp_path / "vis.o"
    subprocess.run(["clang", "-c", "-o", str(obj), str(src)], check=True)
    elf = ElfFile(obj)
    vis = {s.name: s.visibility for s in elf.symbols() if s.name in ("hush", "loud")}
    assert vis == {"hush": "hidden", "loud": "default"}


def _check_lines_match_decodedline(binary: Path, source: str) -> None:
    symbolizer = Symbolizer()
    oracle = decodedline_rows(binary)
    assert oracle, "objdump produced no decodedline rows"
    by_addr: dict[int, set[int]] = {}
    for fname, line, addr in oracle:
        by_addr.setdefault(addr, set()).add(line)

    checked = 0
    for addr, lines in by_addr.items():
        try:
            info = symbolizer.resolve(binary, addr)
        except ResolutionError:
            continue  # an end_sequence row past the last function
        if info.line is None:
            # objdump also prints end_sequence rows; those carry line 1 noise.
            continue
        assert info.line in lines, f"at {addr:#x}: got {info.line}, oracle {sorted(lines)}"
        assert Path(info.source_file).name == source
        checked += 1
    assert checked >= len(by_addr) * 3 // 4
    assert symbolizer.warnings == []


def _check_no_line_outside_sequences(binary: Path) -> None:
    addresses = [addr for _, _, addr in decodedline_rows(binary)]
    symbolizer = Symbolizer()
    for probe in (max(addresses) + 0x100000, min(addresses) - 1):
        try:
            info = symbolizer.resolve(binary, probe)
        except ResolutionError:
            continue
        assert info.line is None and info.source_file is None


def _check_no_line_when_stripped(binary: Path) -> None:
    # A stripped binary has no function spans, so no address of it gets a line.
    symbolizer = Symbolizer()
    assert symbolizer.function_boundaries(binary) == []
    with pytest.raises(ResolutionError):
        symbolizer.resolve(binary, ElfFile(binary).e_entry)


@pytest.mark.parametrize("tag", ["dwarf4", "dwarf5"])
@needs_toolchain
def test_line_table_matches_objdump(sample_binaries, tag):
    _check_lines_match_decodedline(sample_binaries[tag], "sample.c")


@needs_toolchain
def test_line_lookup_between_functions(sample_binaries):
    _check_no_line_outside_sequences(sample_binaries["dwarf4"])


@needs_toolchain
def test_line_table_absent_when_stripped(sample_binaries):
    _check_no_line_when_stripped(sample_binaries["stripped"])


# gcc twins of the three line checks above.


@pytest.mark.parametrize("build, source", [("c", "sample.c"), ("cxx", "sample.cpp")])
def test_gcc_lines_match_objdump(gcc_binaries, build, source):
    _check_lines_match_decodedline(gcc_binaries[build], source)


def test_gcc_line_lookup_between_functions(gcc_binaries):
    _check_no_line_outside_sequences(gcc_binaries["c"])


def test_gcc_no_line_when_stripped(gcc_binaries):
    _check_no_line_when_stripped(gcc_binaries["stripped"])


# The header-only reader against the whole-file reader it replaced.


class WholeFileElf:
    """The ELF reader that read its whole file first, kept as the reference."""

    def __init__(self, path: Path):
        self.path = Path(path)
        data = self.path.read_bytes()
        if len(data) < 64 or data[:4] != b"\x7fELF":
            raise ElfError(f"not an ELF file: {path}")
        if data[4] != 2 or data[5] != 1:
            raise ElfError(f"only 64-bit little-endian ELF is supported: {path}")
        self._data = data
        (self.e_type, _, _, self.e_entry, e_phoff, e_shoff, _, _, e_phentsize, e_phnum,
         e_shentsize, e_shnum, e_shstrndx) = struct.unpack_from("<HHIQQQIHHHHHH", data, 16)
        for table, offset, count, stride, size in (
            ("program header", e_phoff, e_phnum, e_phentsize, 56),
            ("section header", e_shoff, e_shnum, e_shentsize, 64),
        ):
            if count and offset + (count - 1) * stride + size > len(data):
                raise ElfError(f"{table} table lies outside the file: {path}")
        self.load_segments = []
        for i in range(e_phnum):
            p_type, p_flags, p_offset, p_vaddr, _, p_filesz, p_memsz, _ = struct.unpack_from(
                "<IIQQQQQQ", data, e_phoff + i * e_phentsize
            )
            if p_type == 1:
                self.load_segments.append(
                    LoadSegment(p_offset, p_vaddr, p_filesz, p_memsz, p_flags)
                )
        self._sections = {}
        headers = []
        for i in range(e_shnum):
            sh_name, sh_type, _, sh_addr, sh_offset, sh_size, sh_link, _, _, _ = struct.unpack_from(
                "<IIQQQQIIQQ", data, e_shoff + i * e_shentsize
            )
            headers.append((sh_name, sh_type, sh_addr, sh_offset, sh_size, sh_link))
        if headers and e_shstrndx < len(headers):
            _, _, _, str_off, str_size, _ = headers[e_shstrndx]
            shstr = data[str_off : str_off + str_size]
            for sh_name, sh_type, sh_addr, sh_offset, sh_size, sh_link in headers:
                name = _cstr(shstr, sh_name)
                self._sections[name] = (sh_type, sh_addr, sh_offset, sh_size, sh_link)
        self._headers = headers

    def section(self, name):
        entry = self._sections.get(name)
        return None if entry is None else self._data[entry[2] : entry[2] + entry[3]]

    def has_section(self, name):
        return name in self._sections

    def _read_symbol_table(self, sect):
        entry = self._sections.get(sect)
        if entry is None:
            return []
        _, _, offset, size, link = entry
        if link >= len(self._headers):
            return []
        if offset + size > len(self._data):
            raise ElfError(f"{sect} lies outside the file: {self.path}")
        _, _, _, str_off, str_size, _ = self._headers[link]
        strtab = self._data[str_off : str_off + str_size]
        out = []
        for pos in range(offset, offset + size - 23, 24):
            st_name, st_info, st_other, st_shndx, st_value, st_size = struct.unpack_from(
                "<IBBHQQ", self._data, pos
            )
            out.append(ElfSymbol(_cstr(strtab, st_name), st_value, st_size, st_info, st_other,
                                 st_shndx))
        return out

    def symbols(self):
        out, seen = [], set()
        for sect in (".symtab", ".dynsym"):
            for sym in self._read_symbol_table(sect):
                if (sym.name, sym.value) not in seen:
                    seen.add((sym.name, sym.value))
                    out.append(sym)
        return out

    def dynamic_symbols(self):
        return self._read_symbol_table(".dynsym")


def _answers(reader, path: Path, names) -> object:
    """What a reader answers about path, an ElfError's message standing for each answer it stops.

    Section bytes are compared by digest, so that no answer holds a copy of a large section.
    """

    def ask(question):
        try:
            return question()
        except ElfError as exc:
            return f"ElfError: {exc}"

    elf = ask(lambda: reader(path))
    if isinstance(elf, str):
        return elf
    digest = lambda b: None if b is None else hashlib.sha256(b).hexdigest()  # noqa: E731
    return {
        "e_type": elf.e_type,
        "e_entry": elf.e_entry,
        "load_segments": elf.load_segments,
        "symbols": ask(elf.symbols),
        "dynamic_symbols": ask(elf.dynamic_symbols),
        "sections": {n: (elf.has_section(n), digest(elf.section(n))) for n in names},
    }


def _section_names(path: Path) -> list[str]:
    try:
        return sorted(WholeFileElf(path)._sections) + [".made_up_section"]
    except ElfError:
        return []


PADDING_MB = 16


@pytest.fixture(scope="module")
def padded_binary(gcc_binaries, tmp_path_factory) -> Path:
    """The gcc -g sample with a PADDING_MB MB non-alloc section added by objcopy."""
    if shutil.which("objcopy") is None:
        pytest.skip("requires objcopy")
    tmp = tmp_path_factory.mktemp("padded")
    padding = tmp / "padding.bin"
    padding.write_bytes(bytes(PADDING_MB << 20))
    out = tmp / "sample-gcc-padded"
    subprocess.run(
        ["objcopy", f"--add-section=.padding={padding}", str(gcc_binaries["c"]), str(out)],
        check=True, capture_output=True,
    )
    padding.unlink()
    return out


def test_a_padded_binary_reads_as_the_whole_file_reader_read_it(padded_binary):
    names = _section_names(padded_binary)
    assert ".padding" in names and ".symtab" in names and ".debug_line" in names
    got = _answers(ElfFile, padded_binary, names)
    assert got == _answers(WholeFileElf, padded_binary, names)
    assert any(s.name == "main" for s in got["symbols"])


def test_a_view_of_a_padded_binary_holds_only_its_tables(padded_binary):
    symbolizer = Symbolizer()
    tracemalloc.start()
    try:
        spans = symbolizer.function_boundaries(padded_binary)
        del spans
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000
    assert peak < 2_000_000
    assert "main" in {s.name for s in symbolizer.function_boundaries(padded_binary)}


def _with_section(whole: bytes, index: int, offset: int, size: int) -> bytes:
    """The image with section header `index` moved to (offset, size)."""
    e_shoff = struct.unpack_from("<Q", whole, 40)[0]
    image = bytearray(whole)
    struct.pack_into("<QQ", image, e_shoff + index * 64 + 24, offset, size)
    return bytes(image)


def test_a_cut_or_corrupt_binary_reads_as_the_whole_file_reader_read_it(gcc_binaries, tmp_path):
    whole = gcc_binaries["c"].read_bytes()
    e_phoff, e_shoff = struct.unpack_from("<QQ", whole, 32)
    reference = WholeFileElf(gcc_binaries["c"])
    names = _section_names(gcc_binaries["c"])
    spans = [header[3:5] for header in reference._headers]  # (offset, size) of each section
    index = {name: spans.index(reference._sections[name][2:4])
             for name in (".symtab", ".strtab", ".debug_line", ".shstrtab")}
    symtab = reference._sections[".symtab"]
    images = {
        f"cut at {cut}": whole[:cut]
        for cut in (0, 4, 63, 64, e_phoff + 60, symtab[2] + 30, e_shoff + 100, len(whole) - 1)
    }
    images[".symtab past the end"] = _with_section(whole, index[".symtab"], symtab[2], len(whole))
    images[".strtab past the end"] = _with_section(whole, index[".strtab"], len(whole) - 8, 4096)
    images[".debug_line past the end"] = _with_section(whole, index[".debug_line"], 1 << 40, 64)
    images[".shstrtab past the end"] = _with_section(whole, index[".shstrtab"], 1 << 62, 1 << 62)
    errors = 0
    for label, image in images.items():
        path = tmp_path / "image"
        path.write_bytes(image)
        got = _answers(ElfFile, path, names)
        assert got == _answers(WholeFileElf, path, names), label
        errors += isinstance(got, str) or isinstance(got["symbols"], str)
    assert errors == 9  # every cut, and the symbol table past the end
