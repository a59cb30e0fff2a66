"""Symbol extraction, definition location, patching, and reverts."""

import os
import subprocess
from pathlib import Path

import pytest

from cfiheal import repair
from cfiheal.build import Diagnostic, DiagnosticKind
from cfiheal.repair import (
    ATTRIBUTE_TEXT,
    JOURNAL_NAME,
    VisibilityPatch,
    base_identifier,
    cross_dso_bindings,
    extract_unresolved_symbols,
    journal_patches,
    revert_patches,
)
from cfiheal.symbols import _demangle_batch

from conftest import HAVE_GCC, make_config, opened_as
from test_elf import elf_image

needs_gcc = pytest.mark.skipif(not HAVE_GCC, reason="requires gcc")


def locate_definition(symbol, root):
    """The first definition site of a C symbol, from one scan as a repair pass makes it."""
    hits, texts = repair._scan_definitions(root, [symbol])
    return repair._site(root, hits[symbol], texts) if hits[symbol] else None


def demangle(symbol):
    return _demangle_batch([symbol])[0][0]


def apply_visibility_default(site, symbol, iteration) -> VisibilityPatch | None:
    """Patch one site the way a repair pass does; None if it already carries the attribute."""
    text = site.file.read_text()
    if repair._already_default(text, site.name_offset):
        return None
    site.file.write_text(repair._with_attributes(text, [site.name_offset]))
    return VisibilityPatch(symbol, demangle(symbol), str(site.file), site.line, site.column, iteration)


def remove_visibility_default(file, symbol) -> bool:
    """Remove the insertion before symbol's definition, as a revert does; True if removed."""
    text = repair._without_attribute(file.read_text(), base_identifier(demangle(symbol)))
    if text is not None:
        file.write_text(text)
    return text is not None


LINE_C = """\
#include "smartcols.h"

static int refer_cb(struct libscols_line *ln);

/* scols_line_refer_data() mentioned in a comment must not count. */
int scols_line_refer_data(struct libscols_line *ln, size_t n,
                          char *data)
{
    if (!ln || n >= ln->ncells)
        return -1;
    return refer_cb(ln);
}

static int refer_cb(struct libscols_line *ln)
{
    return scols_line_refer_data(ln, 0, NULL) == 0;
}
"""

TABLE_C = """\
#include "smartcols.h"

int scols_table_refer(struct libscols_table *tb, char *data)
{
    if (scols_line_refer_data(tb->cur, 0, data)) {
        return -1;
    }
    return 0;
}
"""

HEADER = """\
#ifndef SMARTCOLS_H
#define SMARTCOLS_H
#include <stddef.h>
struct libscols_line { size_t ncells; };
struct libscols_table { struct libscols_line *cur; };
extern int scols_line_refer_data(struct libscols_line *ln, size_t n, char *data);
int scols_table_refer(struct libscols_table *tb, char *data);
#endif
"""


@pytest.fixture()
def smartcols_tree(tmp_path) -> Path:
    """A util-linux-shaped subtree: nested lib dirs, header declarations."""
    root = tmp_path / "proj"
    (root / "libsmartcols" / "src").mkdir(parents=True)
    (root / "include").mkdir()
    (root / "libsmartcols" / "src" / "line.c").write_text(LINE_C)
    (root / "libsmartcols" / "src" / "table.c").write_text(TABLE_C)
    (root / "include" / "smartcols.h").write_text(HEADER)
    return root


def test_base_identifier():
    assert base_identifier("scols_line_refer_data") == "scols_line_refer_data"
    assert base_identifier("ns::Widget::resize(int, int)") == "resize"
    assert base_identifier("free_fn(void*)") == "free_fn"


def test_extract_unresolved_symbols_order_and_dedup():
    diags = [
        Diagnostic(DiagnosticKind.UNDEFINED_REFERENCE, "beta", ""),
        Diagnostic(DiagnosticKind.OTHER, None, "noise"),
        Diagnostic(DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, "alpha", ""),
        Diagnostic(DiagnosticKind.UNDEFINED_REFERENCE, "beta", ""),
    ]
    assert extract_unresolved_symbols(diags) == ["beta", "alpha"]


def test_locate_definition_picks_definition_not_declaration(smartcols_tree):
    site = locate_definition("scols_line_refer_data", smartcols_tree)
    assert site is not None
    assert site.file == smartcols_tree / "libsmartcols" / "src" / "line.c"
    assert site.line == 6
    assert site.column == 5
    assert site.alternates == ()


def test_locate_definition_ignores_call_sites(smartcols_tree):
    # table.c calls the symbol inside an if-condition; only line.c defines it.
    site = locate_definition("scols_table_refer", smartcols_tree)
    assert site is not None
    assert site.file.name == "table.c"
    assert site.line == 3


def test_locate_definition_static_and_multiline(smartcols_tree):
    site = locate_definition("refer_cb", smartcols_tree)
    assert site is not None
    assert site.file.name == "line.c"
    assert site.line == 14


def test_locate_definition_missing_symbol(smartcols_tree):
    assert locate_definition("nonexistent_fn", smartcols_tree) is None


def test_locate_definition_skips_preprocessor(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    (root / "a.c").write_text("#define hot_path(x) ((x) + 1) {\nint cold(void) { return 0; }\n")
    assert locate_definition("hot_path", root) is None


def test_locate_definition_reports_alternates(tmp_path):
    root = tmp_path / "p"
    (root / "sub").mkdir(parents=True)
    (root / "a.c").write_text("int dup_fn(void) { return 1; }\n")
    (root / "sub" / "b.c").write_text("int dup_fn(void) { return 2; }\n")
    site = locate_definition("dup_fn", root)
    assert site is not None
    assert site.file == root / "a.c"
    assert site.alternates == ("sub/b.c:1",)


def test_apply_and_remove_roundtrip(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    source = "static int n;\n\nint grow(int x)\n{\n    return x + n;\n}\n"
    target = root / "g.c"
    target.write_text(source)

    site = locate_definition("grow", root)
    assert apply_visibility_default(site, "grow", iteration=1) is not None
    patched = target.read_text()
    assert patched == source.replace("int grow", f"int {ATTRIBUTE_TEXT}grow")

    assert remove_visibility_default(target, "grow")
    assert target.read_text() == source
    assert not remove_visibility_default(target, "grow")


def test_apply_is_idempotent(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    target = root / "g.c"
    target.write_text("int grow(int x) { return x; }\n")

    assert apply_visibility_default(locate_definition("grow", root), "grow", 1) is not None
    before = target.read_text()
    assert apply_visibility_default(locate_definition("grow", root), "grow", 2) is None
    assert target.read_text() == before


def test_journal_and_revert(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    (root / "a.c").write_text("int first_fn(void) { return 1; }\n")
    (root / "b.c").write_text("long second_fn(long v)\n{\n    return v;\n}\n")
    pristine = {p.name: p.read_text() for p in root.glob("*.c")}

    cfg = make_config(root, tmp_path / "out")
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    for it, name in enumerate(["first_fn", "second_fn"], start=1):
        patch = apply_visibility_default(locate_definition(name, root), name, it)
        journal_patches(cfg, [patch])

    journal = cfg.report_dir / JOURNAL_NAME
    rows = [ln.split("\t") for ln in journal.read_text().splitlines()]
    assert [r[0] for r in rows] == ["1", "2"]
    assert [r[3] for r in rows] == ["first_fn", "second_fn"]
    assert rows[0][1].endswith("a.c") and rows[0][2] == "1"

    assert revert_patches(cfg) == 2
    assert {p.name: p.read_text() for p in root.glob("*.c")} == pristine
    assert not journal.exists()


def test_revert_without_journal_is_noop(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    cfg = make_config(root, tmp_path / "out")
    assert revert_patches(cfg) == 0


def _patched_tree(tmp_path):
    """Three patches in two files, journaled; returns the config and the pristine sources."""
    root = tmp_path / "p"
    root.mkdir()
    (root / "a.c").write_text("int one(void) { return 1; }\nint two(void) { return 2; }\n")
    (root / "b.c").write_text("int three(void) { return 3; }\n")
    pristine = {p.name: p.read_text() for p in root.glob("*.c")}
    cfg = make_config(root, tmp_path / "out")
    patches = [
        apply_visibility_default(locate_definition(name, root), name, 1)
        for name in ("one", "two", "three")
    ]
    journal_patches(cfg, patches)
    return cfg, pristine


def test_revert_keeps_the_rows_it_cannot_apply(tmp_path):
    cfg, pristine = _patched_tree(tmp_path)
    root = cfg.project_root
    a_c = root / "a.c"
    a_c.write_text(a_c.read_text().replace("two(", "renamed_two("))
    journal = cfg.report_dir / JOURNAL_NAME
    two_row = journal.read_text().splitlines()[1]

    assert revert_patches(cfg) == 2
    assert (root / "b.c").read_text() == pristine["b.c"]
    assert a_c.read_text() == pristine["a.c"].replace("int two", f"int {ATTRIBUTE_TEXT}renamed_two")
    assert journal.read_text() == two_row + "\n"

    # Once the definition has its name back, the kept row reverts it.
    a_c.write_text(a_c.read_text().replace("renamed_two(", "two("))
    assert revert_patches(cfg) == 1
    assert {p.name: p.read_text() for p in root.glob("*.c")} == pristine
    assert not journal.exists()


def test_revert_writes_each_file_at_most_once(tmp_path, monkeypatch):
    cfg, pristine = _patched_tree(tmp_path)
    writes: dict[str, int] = {}
    real_open = Path.open

    def counting_open(path, mode="r", *args, **kwargs):
        name, letter = opened_as(path, mode)
        if letter in "wa":
            writes[name] = writes.get(name, 0) + 1
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    assert revert_patches(cfg) == 3
    assert writes == {"a.c": 1, "b.c": 1}
    assert {p.name: p.read_text() for p in cfg.project_root.glob("*.c")} == pristine


def cut_before_rename(monkeypatch, only: Path | None = None) -> list[str]:
    """Make every os.replace, or the one onto `only`, fail once its temporary
    file exists, as a kill there would.

    Returns the temporary files the failed renames left.
    """
    left: list[str] = []
    real_replace = os.replace

    def cut(src, dst):
        if only is not None and Path(dst) != only:
            return real_replace(src, dst)
        assert Path(src).is_file() and Path(src).parent == Path(dst).parent
        left.append(Path(src).name)
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", cut)
    return left


@pytest.mark.parametrize("step", ["patch", "revert"])
def test_a_write_cut_before_its_rename_leaves_every_source_whole(tmp_path, monkeypatch, step):
    if step == "patch":
        root = tmp_path / "p"
        root.mkdir()
        (root / "a.c").write_text("int one(void) { return 1; }\nint two(void) { return 2; }\n")
        (root / "b.c").write_text("int three(void) { return 3; }\n")
        cfg = make_config(root, tmp_path / "out")
    else:
        cfg, _ = _patched_tree(tmp_path)
    before = {p.name: p.read_bytes() for p in cfg.project_root.glob("*.c")}
    left = cut_before_rename(monkeypatch)
    with pytest.raises(OSError, match="killed before the rename"):
        if step == "patch":
            repair._patch_pass(cfg, repair.RepairLedger(), ["one", "two", "three"], 1, [])
        else:
            revert_patches(cfg)
    assert left
    assert {p.name: p.read_bytes() for p in cfg.project_root.iterdir()} == before


def test_a_journal_rewrite_cut_before_its_rename_keeps_every_row(tmp_path, monkeypatch):
    cfg, _ = _patched_tree(tmp_path)
    a_c = cfg.project_root / "a.c"
    a_c.write_text(a_c.read_text().replace("two(", "renamed_two("))  # its row stays
    journal = cfg.report_dir / JOURNAL_NAME
    rows = journal.read_text()
    left = cut_before_rename(monkeypatch, journal)
    with pytest.raises(OSError, match="killed before the rename"):
        revert_patches(cfg)
    assert left and journal.read_text() == rows
    assert sorted(p.name for p in cfg.report_dir.iterdir()) == [".cfiheal.lock", JOURNAL_NAME]


def test_a_patched_source_keeps_its_mode(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    source = root / "a.c"
    source.write_text("int one(void) { return 1; }\n")
    source.chmod(0o640)
    cfg = make_config(root, tmp_path / "out")
    assert repair._patch_pass(cfg, repair.RepairLedger(), ["one"], 1, []) == 1
    assert ATTRIBUTE_TEXT in source.read_text()
    assert source.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in root.iterdir()) == ["a.c"]


def test_a_patch_and_its_revert_keep_every_other_byte(tmp_path):
    # A Latin-1 comment and CRLF line endings, against an LF, UTF-8 twin.
    source = (
        b"/* caf\xe9 */\r\nint one(void)\r\n{\r\n    return 1;\r\n}\r\n"
        b"/* caf\xe9 */ int two(void) { return 2; }\r\n"
    )
    twin = source.replace(b"\r\n", b"\n").replace(b"\xe9", "é".encode())
    rows, sites = [], []
    for name, original in (("latin1", source), ("twin", twin)):
        root = tmp_path / name
        root.mkdir()
        (root / "a.c").write_bytes(original)
        cfg = make_config(root, tmp_path / f"out-{name}")
        ledger = repair.RepairLedger()
        assert repair._patch_pass(cfg, ledger, ["one", "two"], 1, []) == 2
        attribute = ATTRIBUTE_TEXT.encode()
        patched = original.replace(b"int one", b"int " + attribute + b"one")
        assert (root / "a.c").read_bytes() == patched.replace(b"int two", b"int " + attribute + b"two")
        rows.append((cfg.report_dir / JOURNAL_NAME).read_bytes())
        sites.append([(p.line, p.column) for p in ledger.patches])
        assert revert_patches(cfg) == 2
        assert (root / "a.c").read_bytes() == original
    assert rows[0] == rows[1] and sites[0] == sites[1] == [(2, 5), (6, 16)]


def _gcc(cwd: Path, *args: str) -> None:
    subprocess.run(["gcc", *args], cwd=cwd, check=True, capture_output=True)


def _build_started(root: Path) -> int:
    """The mtime of a file written now, as heal() takes it from state.json."""
    marker = root / "started"
    marker.write_text("")
    return marker.stat().st_mtime_ns


def test_bindings_skip_a_file_whose_tables_lie_outside_it(tmp_path):
    (tmp_path / "libheader.so").write_bytes(elf_image(shoff=4096)[:64])
    (tmp_path / "libsymbols.so").write_bytes(elf_image(dynsym=(360, 48)))
    assert cross_dso_bindings(tmp_path, 0) == []


@needs_gcc
def test_bindings_skip_a_prebuilt_library_older_than_the_build(tmp_path):
    (tmp_path / "lib.c").write_text("int old_fn(int x) { return x + 1; }\n")
    (tmp_path / "app.c").write_text("int old_fn(int);\nint main(void) { return old_fn(-1); }\n")
    since = _build_started(tmp_path)
    _gcc(tmp_path, "-shared", "-fPIC", "-o", "libold.so", "lib.c")
    _gcc(tmp_path, "-o", "app", "app.c", "-L.", "-lold")
    assert cross_dso_bindings(tmp_path, since) == ["old_fn"]
    # The same library, prebuilt before the build started.
    past = since - 60 * 10**9
    os.utime(tmp_path / "libold.so", ns=(past, past))
    assert cross_dso_bindings(tmp_path, since) == []


@needs_gcc
def test_bindings_need_an_exporter_other_than_the_importer(tmp_path):
    # A .dynsym that both imports and exports twin_fn: the undefined twix_fn
    # renamed in the string tables, as two symbol versions would give.
    (tmp_path / "s.c").write_text("int twix_fn(int);\nint twin_fn(int x) { return twix_fn(x) + 1; }\n")
    since = _build_started(tmp_path)
    _gcc(tmp_path, "-shared", "-fPIC", "-o", "libself.so", "s.c")
    lib = tmp_path / "libself.so"
    lib.write_bytes(lib.read_bytes().replace(b"twix_fn\0", b"twin_fn\0"))
    kinds = sorted(s.shndx == 0 for s in repair.ElfFile(lib).dynamic_symbols() if s.name == "twin_fn")
    assert kinds == [False, True]
    assert cross_dso_bindings(tmp_path, since) == []
    # A second library that exports it makes it a cross-DSO binding.
    (tmp_path / "t.c").write_text("int twin_fn(int x) { return x; }\n")
    _gcc(tmp_path, "-shared", "-fPIC", "-o", "libtwin.so", "t.c")
    assert cross_dso_bindings(tmp_path, since) == ["twin_fn"]
