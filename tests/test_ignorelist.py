"""Ignorelist entries, rendering normal form, parsing, and the file a CFI build reads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfiheal import pipeline
from cfiheal.build import BuildOutcome
from cfiheal.ignorelist import (
    EntryKind,
    IgnorelistEntry,
    LadderLevel,
    parse,
    render,
)
from cfiheal.repair import RepairLedger

from conftest import make_config


def fun(pattern):
    return IgnorelistEntry(kind=EntryKind.FUN, pattern=pattern)


def src(pattern):
    return IgnorelistEntry(kind=EntryKind.SRC, pattern=pattern)


def test_entry_line():
    assert fun("parse_cb").line == "fun:parse_cb"
    assert src("lib/tree.c").line == "src:lib/tree.c"


def test_levels_short_names():
    assert [lv.short for lv in LadderLevel] == ["L0", "L1", "L2", "L3", "L4", "L5"]


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        fun("")


def test_render_orders_fun_before_src_and_sorts():
    text = render([src("z.c"), fun("zeta"), fun("alpha"), src("a/b.c")])
    assert text == "fun:alpha\nfun:zeta\nsrc:a/b.c\nsrc:z.c\n"


def test_render_empty_is_empty_string():
    assert render([]) == ""


def test_parse_tolerates_comments_and_blanks():
    entries = parse("# header\n\nfun:alpha\n  src:z.c  \n# trailing\n")
    assert [e.line for e in entries] == ["fun:alpha", "src:z.c"]


def test_parse_rejects_junk_lines():
    # cfiheal owns this file; silent tolerance would hide corruption.
    with pytest.raises(ValueError, match="line 1"):
        parse("nonsense\nfun:ok\n")
    with pytest.raises(ValueError, match="unknown entry kind"):
        parse("type:whatever\n")


def test_store_write_mirrors_entries(tmp_path, monkeypatch):
    # No list is stored: each instrumented build writes the rendered entries
    # it is given to <report_dir>/cfi.ignorelist and builds with that file.
    cfg = make_config(tmp_path, tmp_path / "reports")
    cfg.report_dir.mkdir()
    built = []

    def repair(cfg, mode, ledger, *, planned):
        built.append(mode.ignorelist_path.read_text())
        return BuildOutcome(True, mode, (), (), None, 0.0), ledger

    monkeypatch.setattr(pipeline, "repair_until_buildable", repair)
    for entries in ([], [src("cold.c"), fun("hot"), fun("hot")]):
        pipeline._cfi_build(cfg, render(entries), RepairLedger())
    assert built == ["", "fun:hot\nsrc:cold.c\n"]
    assert (cfg.report_dir / "cfi.ignorelist").read_text() == "fun:hot\nsrc:cold.c\n"


_pattern = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="#"),
    min_size=1,
    max_size=24,
).filter(lambda s: not s.isspace())


@st.composite
def entries(draw):
    kind = draw(st.sampled_from([EntryKind.FUN, EntryKind.SRC]))
    return IgnorelistEntry(kind=kind, pattern=draw(_pattern))


@settings(max_examples=120, deadline=None)
@given(st.lists(entries(), max_size=12))
def test_render_parse_render_fixpoint(items):
    """render . parse . render is a fixpoint and ordering is deterministic."""
    once = render(items)
    again = render(parse(once))
    assert again == once
    lines = [ln for ln in once.splitlines()]
    assert lines == sorted(set(lines), key=lambda l: (not l.startswith("fun:"), l))
