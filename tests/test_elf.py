"""ELF reader and file/line lookup against binutils oracles."""

import re
import struct
import subprocess
from pathlib import Path

import pytest

from cfiheal.elf import ET_DYN, ET_EXEC, ElfError, ElfFile
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
