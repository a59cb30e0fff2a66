"""One repair pass against the per-symbol lookups it replaced.

``_ref_pass`` is the pass as it was before the per-pass scan: one
definition lookup per symbol, each walking and reading the whole tree,
and one c++filt per mangled name in the lookup and another in the patch, over a failed build's symbols in sorted order, with each patch
read and written on its own and journaled on its own.
``repair_until_buildable`` must leave the same patches, ledger, journal bytes
and tree.
"""

import re
import subprocess
from pathlib import Path

import pytest

from cfiheal import repair, symbols
from cfiheal.build import (
    BuildKind,
    BuildMode,
    BuildOutcome,
    Diagnostic,
    DiagnosticKind,
    parse_diagnostics,
)
from cfiheal.repair import (
    DefinitionSite,
    RepairLedger,
    VisibilityPatch,
    base_identifier,
    extract_unresolved_symbols,
    repair_until_buildable,
)

from conftest import make_config, opened_as

MODE = BuildMode(BuildKind.CFI, ("cfi-icall",), Path("ignorelist.txt"))
ATTR = '__attribute__((visibility("default"))) '

# c++filt's answers for the mangled names below.
DEMANGLED = {"_Z5thetai": "theta(int)", "_ZN2ns4iotaEv": "ns::iota()", "_Z5kappav": "kappa()"}

TREE = {
    # Two unresolved symbols defined in one file, the second on the same line.
    "lib/a.c": "static int n;\nint alpha(void) { return n; } int beta(int x) { return x; }\n"
               "int lambda(void)\n{\n    return alpha() + beta(1);\n}\n",
    # An ambiguous definition: the first in path order wins, also once a
    # patch of another symbol has changed the file.
    "lib/sub/b.c": "int mu(void) { return 0; }\nint gamma_fn(void) { return 1; }\n",
    "vendor/c.c": "int gamma_fn(void) { return 2; }\n",
    # A prototype-only file; the definition is elsewhere.
    "include/proto.c": "int delta(void);\nint use(void) { return delta(); }\n",
    "lib/d.c": "int\ndelta(void)\n{\n    return 4;\n}\n",
    # A #define line that looks like a definition, and no real definition.
    "lib/m.c": "#define epsilon(x) ((x) + 1) {\nint other(void) { return 0; }\n",
    # An already-default definition.
    "lib/v.c": f"int {ATTR}zeta(void) {{ return 0; }}\n",
    # C++ definitions of mangled symbols.
    "lib/t.cc": "int theta(int x) { return x; }\nnamespace ns { int iota() { return 3; } }\n"
                "int kappa() { return theta(2); }\n",
    # A nested parameter list, and a non-ASCII identifier.
    "lib/n.c": "int nested_fn(int (*cb)(int), int x) { return cb(x); }\n"
               "int call_nested(void) { return nested_fn((int (*)(int))0, 1); }\n",
    "lib/u.c": "int größe(void) { return 1; }\nint xgröße(void) { return 2; }\n",
    "README.txt": "int alpha(void) { return 0; }\n",
}
PASSES = [
    # theta's site is _Z5thetai's, which sorts first.
    ["alpha", "beta", "mu", "gamma_fn", "delta", "epsilon", "zeta", "_Z5thetai", "theta",
     "_ZN2ns4iotaEv"],
    ["lambda", "alpha", "_Z5kappav", "missing_fn", "nested_fn", "größe"],
]


class FakeCxxfilt:
    """subprocess.run for c++filt: answers from DEMANGLED and counts the calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, argv, *, input=None, **kwargs):
        assert argv == ["c++filt"]
        self.calls += 1
        names = input.decode().splitlines()
        out = "".join(DEMANGLED.get(name, name) + "\n" for name in names)
        return subprocess.CompletedProcess(argv, 0, out.encode(), b"")


@pytest.fixture()
def cxxfilt(monkeypatch):
    fake = FakeCxxfilt()
    monkeypatch.setattr(symbols.subprocess, "run", fake)
    return fake


def _write_tree(root: Path) -> None:
    for rel, text in TREE.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _failing(names) -> BuildOutcome:
    diags = tuple(Diagnostic(DiagnosticKind.UNDEFINED_REFERENCE, n, None, "") for n in names)
    return BuildOutcome(False, MODE, diags, (), None, 0.0)


# ---------------------------------------------------------------- reference

def _ref_definition_offsets(text, name):
    offsets = []
    for m in re.finditer(rf"\b{re.escape(name)}\s*\(", text):
        line_start = text.rfind("\n", 0, m.start()) + 1
        if text[line_start:].lstrip().startswith("#"):
            continue
        depth = 0
        i = m.end() - 1
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= len(text):
            continue
        after = repair._skip_attributes(text, i + 1)
        if after < len(text) and text[after] == "{":
            offsets.append(m.start())
    return offsets


def _ref_demangle(symbol):
    return symbols._demangle_batch([symbol])[0][0]


def _ref_locate(symbol, root):
    name = base_identifier(_ref_demangle(symbol))
    hits = []
    for path in repair._iter_sources(root):
        text = path.read_text(errors="replace")
        if name not in text:
            continue
        for offset in _ref_definition_offsets(text, name):
            hits.append((path, text, offset))
    if not hits:
        return None
    path, text, offset = hits[0]
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    alternates = tuple(
        f"{p.relative_to(root)}:{t.count(chr(10), 0, o) + 1}" for p, t, o in hits[1:]
    )
    return DefinitionSite(path, line, column, offset, alternates)


def _ref_insert_attribute(site):
    text = site.file.read_text(errors="replace")
    if repair._already_default(text, site.name_offset):
        return ""
    site.file.write_text(text[: site.name_offset] + ATTR + text[site.name_offset :])
    return ATTR


def _ref_journal(cfg, patch):
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    with (cfg.report_dir / repair.JOURNAL_NAME).open("a") as fh:
        fh.write(f"{patch.iteration}\t{patch.file}\t{patch.line}\t{patch.symbol}\n")


def _ref_pass(cfg, names, ledger, iteration):
    # A failed build's symbols are patched in sorted order, whatever order its log gives.
    for symbol in sorted(extract_unresolved_symbols(_failing(names).diagnostics)):
        if symbol in ledger.patched_symbols:
            continue
        site = _ref_locate(symbol, cfg.project_root)
        if site is None:
            ledger.skipped.append((symbol, "definition not found under project root"))
            continue
        if not _ref_insert_attribute(site):
            ledger.skipped.append((symbol, "definition already carries a visibility attribute"))
            continue
        if site.alternates:
            ledger.ambiguities.append((symbol, site.alternates))
        patch = VisibilityPatch(
            symbol, _ref_demangle(symbol), str(site.file.relative_to(cfg.project_root)),
            site.line, site.column, iteration,
        )
        ledger.patches.append(patch)
        _ref_journal(cfg, patch)


# -------------------------------------------------------------------- tests

def _run_new(tmp_path, monkeypatch, passes):
    root = tmp_path / "new"
    _write_tree(root)
    cfg = make_config(root, tmp_path / "new-out")
    outcomes = iter([_failing(names) for names in passes] + [BuildOutcome(True, MODE, (), (), None, 0.0)])
    monkeypatch.setattr(repair, "run_build", lambda cfg, mode, iteration: next(outcomes))
    _, ledger = repair_until_buildable(cfg, MODE)
    return root, cfg, ledger


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_pass_matches_the_per_symbol_path(tmp_path, monkeypatch, cxxfilt):
    root, cfg, ledger = _run_new(tmp_path, monkeypatch, PASSES)

    ref_root = tmp_path / "ref"
    _write_tree(ref_root)
    ref_cfg = make_config(ref_root, tmp_path / "ref-out")
    ref = RepairLedger()
    for iteration, names in enumerate(PASSES, start=1):
        _ref_pass(ref_cfg, names, ref, iteration)

    assert ledger.patches == ref.patches
    assert ledger.ambiguities == ref.ambiguities
    assert ledger.skipped == ref.skipped
    journal = (cfg.report_dir / repair.JOURNAL_NAME).read_bytes()
    assert journal == (ref_cfg.report_dir / repair.JOURNAL_NAME).read_bytes()
    assert _tree(root) == _tree(ref_root)

    # The case each file stands for did happen.
    patched = {(p.symbol, p.file, p.line, p.column) for p in ledger.patches}
    assert ("beta", "lib/a.c", 2, 35 + len(ATTR)) in patched  # after alpha's insertion
    assert ledger.ambiguities == [("gamma_fn", ("vendor/c.c:1",))]
    assert ("gamma_fn", "lib/sub/b.c", 2, 5) in patched
    assert ("delta", "lib/d.c", 2, 1) in patched
    assert ("iota", "ns::iota()") in {(base_identifier(p.demangled), p.demangled) for p in ledger.patches}
    assert ("nested_fn", "lib/n.c", 1, 5) in patched
    assert ("größe", "lib/u.c", 1, 5) in patched
    assert ("epsilon", "definition not found under project root") in ledger.skipped
    assert ("zeta", "definition already carries a visibility attribute") in ledger.skipped
    assert ("theta", "definition already carries a visibility attribute") in ledger.skipped
    assert ("missing_fn", "definition not found under project root") in ledger.skipped
    assert ledger.iterations_build_phase == 2


def test_pass_starts_one_cxxfilt(tmp_path, monkeypatch, cxxfilt):
    _run_new(tmp_path, monkeypatch, PASSES[:1])
    assert cxxfilt.calls == 1


def test_each_source_is_read_once_per_pass(tmp_path, monkeypatch, cxxfilt):
    root = tmp_path / "new"
    _write_tree(root)
    cfg = make_config(root, tmp_path / "new-out")
    outcomes = iter([_failing(names) for names in PASSES] + [BuildOutcome(True, MODE, (), (), None, 0.0)])
    # Path.open calls per (file name, mode letter), one dict per pass.
    passes: list[dict[tuple[str, str], int]] = [{}]
    real_open = Path.open

    def counting_open(path, mode="r", *args, **kwargs):
        key = opened_as(path, mode)
        passes[-1][key] = passes[-1].get(key, 0) + 1
        return real_open(path, mode, *args, **kwargs)

    def build(cfg, mode, iteration):
        passes.append({})
        return next(outcomes)

    monkeypatch.setattr(Path, "open", counting_open)
    monkeypatch.setattr(repair, "run_build", build)
    _, ledger = repair_until_buildable(cfg, MODE)
    # Nothing is planned before the first build, and the last build stands.
    assert len(passes) == 4 and passes[0] == passes[3] == {}
    sources = {Path(rel).name for rel in TREE if rel.endswith((".c", ".cc"))}
    for iteration, counts in enumerate(passes[1:3], start=1):
        patched = {Path(p.file).name for p in ledger.patches if p.iteration == iteration}
        assert counts == {
            **{(name, "r"): 1 for name in sources},
            **{(name, "w"): 1 for name in patched},
            (repair.JOURNAL_NAME, "a"): 1,
        }
    assert {Path(p.file).name for p in ledger.patches if p.iteration == 1} == {"a.c", "b.c", "d.c", "t.cc"}


def test_locate_definition_without_an_index_reads_the_tree(tmp_path, cxxfilt):
    _write_tree(tmp_path)
    (name,), _ = symbols._demangle_batch(["_ZN2ns4iotaEv"])
    hits, texts = repair._scan_definitions(tmp_path, [base_identifier(name)])
    site = repair._site(tmp_path, hits[base_identifier(name)], texts)
    assert (site.file.name, site.line, site.column) == ("t.cc", 2, 20)


def test_remove_attribute_at_the_start_of_a_file():
    assert repair._without_attribute(f"{ATTR}grow(int x) {{ return x; }}\n", "grow") == (
        "grow(int x) { return x; }\n"
    )
    # Text that ends as an insertion would.
    assert repair._without_attribute(f"grow(int x) {{ return x; }}\n// {ATTR}", "grow") is None


def test_definition_offsets_skip_preprocessor_lines_only(tmp_path):
    call = repair._call_pattern("f")
    text = "  #  define f(x) {\nint f(int x) { return x; }\n#if f(1) {\n"
    assert repair._definition_offsets(text, call) == [text.index("f(int")]
    assert repair._definition_offsets(text, call) == _ref_definition_offsets(text, "f")


# A failed build under make -k -Otarget: the two failing links of the twin
# fixture, one recipe's linker lines per block, in the order their jobs ended.
TWIN_BLOCKS = (
    "/usr/bin/ld: /tmp/ccKDpAgj.o: in function `main':\n"
    "app_a.c:(.text+0xa): undefined reference to `base_a'\n"
    "collect2: error: ld returned 1 exit status\n"
    "make: *** [Makefile:13: app_a] Error 1\n",
    "/usr/bin/ld: /tmp/ccmzOl6g.o: in function `main':\n"
    "app_b.c:(.text+0xa): undefined reference to `base_b'\n"
    "collect2: error: ld returned 1 exit status\n"
    "make: *** [Makefile:16: app_b] Error 1\n",
)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["a-first", "b-first"])
def test_target_blocks_in_either_order_give_the_same_patches(tmp_path, monkeypatch, order):
    root = tmp_path / "twin"
    root.mkdir()
    (root / "base.c").write_text(
        "int base_a(int x) { return x + 1; }\n\nint base_b(int x) { return x * 2; }\n"
    )
    cfg = make_config(root, tmp_path / "out")
    log = "".join(TWIN_BLOCKS[i] for i in order) + "make: Target 'all' not remade because of errors.\n"
    failed = BuildOutcome(False, MODE, tuple(parse_diagnostics(log)), (), None, 0.0)
    outcomes = iter([failed, BuildOutcome(True, MODE, (), (), None, 0.0)])
    monkeypatch.setattr(repair, "run_build", lambda cfg, mode, iteration: next(outcomes))
    _, ledger = repair_until_buildable(cfg, MODE)
    assert [(p.iteration, p.symbol, p.file, p.line) for p in ledger.patches] == [
        (1, "base_a", "base.c", 1),
        (1, "base_b", "base.c", 3),
    ]
    assert ledger.build_attempts == 2
    journal = (cfg.report_dir / repair.JOURNAL_NAME).read_text()
    assert journal == "1\tbase.c\t1\tbase_a\n1\tbase.c\t3\tbase_b\n"
