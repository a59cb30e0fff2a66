"""The census against its previous, character-by-character walker.

``_ref_walk`` below is the walker the census had before it was made
single-pass: every assignment parsed as it is read, every bracket and quote
scanned one character at a time. Its one change is the opcode fix: a call is
matched only at the start of the right-hand side, so an operand named
``%call`` is no call. The census must give the same per-function counts and
the same diagnostics on any input.

A file censused a block at a time, through ``read_ir_lines``, must give the
same counts and diagnostics as its whole text read at once.
"""

import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfiheal import ircensus
from cfiheal.ircensus import IrSiteCensus, census_by_function, read_ir_lines

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# ---------------------------------------------------------------- reference

_TOKEN = re.compile(r"[%@][-\w.$]+|[%@]\"[^\"]*\"")
_DEFINE = re.compile(r"^define\b[^@]*@([-\w.$]+|\"[^\"]*\")\s*\(")
_DECLARE = re.compile(r"^declare\b[^@]*@([-\w.$]+|\"[^\"]*\")\s*\(")
_GLOBAL = re.compile(r"^@([-\w.$]+|\"[^\"]*\")\s*=\s*(.*)$")
_ASSIGN = re.compile(r"^%([-\w.$]+|\"[^\"]*\")\s*=\s*(.*)$")
_CALL_OP = re.compile(r"(?:(?:tail|musttail|notail)\s+)?(?:call|invoke)\b")
_OPENERS = {"(": ")", "[": "]", "{": "}", "<": ">"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}


def _ref_split_top(text):
    parts = []
    depth = 0
    buf = []
    in_quote = False
    for ch in text:
        if in_quote:
            buf.append(ch)
            if ch == '"':
                in_quote = False
            continue
        if ch == '"':
            in_quote = True
            buf.append(ch)
            continue
        if ch in _OPENERS:
            depth += 1
        elif ch in _CLOSERS:
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        parts.append(tail)
    return parts


def _ref_last_value_token(text):
    matches = _TOKEN.findall(text)
    return matches[-1] if matches else None


def _ref_first_global_token(text):
    for token in _TOKEN.findall(text):
        if token.startswith("@"):
            return token
    return None


def _ref_callee_token(rest):
    depth = 0
    in_quote = False
    i = 0
    callee = None
    n = len(rest)
    while i < n:
        ch = rest[i]
        if in_quote:
            if ch == '"':
                in_quote = False
            i += 1
            continue
        if ch == '"':
            in_quote = True
            i += 1
            continue
        if depth == 0:
            if rest.startswith("asm", i) and (i == 0 or not rest[i - 1].isalnum()):
                after = i + 3
                if after >= n or not (rest[after].isalnum() or rest[after] in "_$."):
                    return "asm"
            if ch in "%@":
                m = _TOKEN.match(rest, i)
                if m:
                    j = m.end()
                    while j < n and rest[j] in " \t":
                        j += 1
                    if j < n and rest[j] == "(":
                        callee = m.group(0)
                    i = m.end()
                    continue
        if ch in _OPENERS:
            depth += 1
        elif ch in _CLOSERS:
            depth = max(0, depth - 1)
        i += 1
    return callee


def _ref_pointer_operand(defn, keyword):
    body = defn.split(keyword, 1)[1]
    pieces = _ref_split_top(body)
    if len(pieces) < 2:
        return None
    ptr_piece = pieces[1]
    if "getelementptr" in ptr_piece:
        return _ref_first_global_token(ptr_piece)
    return _ref_last_value_token(ptr_piece)


def _ref_gep_base(defn):
    body = defn.split("getelementptr", 1)[1]
    for kw in ("inbounds", "inrange", "nusw", "nuw"):
        body = body.replace(kw, " ", 1) if body.lstrip().startswith(kw) else body
    pieces = _ref_split_top(body)
    if len(pieces) < 2:
        return None
    return _ref_last_value_token(pieces[1])


class _RefScope:
    def __init__(self):
        self.defs = {}

    def record(self, reg, rhs):
        stripped = rhs.lstrip()
        if stripped.startswith("load"):
            self.defs[reg] = ("load", _ref_pointer_operand(rhs, "load"))
        elif stripped.startswith("getelementptr"):
            self.defs[reg] = ("gep", _ref_gep_base(rhs))
        elif stripped.startswith("bitcast") or stripped.startswith("addrspacecast"):
            self.defs[reg] = ("alias", _ref_last_value_token(stripped.split(" to ")[0]))
        else:
            self.defs[reg] = ("opaque", None)

    def _resolve_alias(self, token, hops=8):
        while token and token.startswith("%") and hops:
            kind, operand = self.defs.get(token[1:].strip('"'), ("", None))
            if kind != "alias":
                break
            token = operand
            hops -= 1
        return token

    def classify_callee(self, callee, tables):
        token = self._resolve_alias(callee)
        if not token or not token.startswith("%"):
            return "fp_calls"
        kind, pointer = self.defs.get(token[1:].strip('"'), ("opaque", None))
        if kind != "load":
            return "fp_calls"
        pointer = self._resolve_alias(pointer)
        if pointer is None:
            return "fp_calls"
        if pointer.startswith("@"):
            return "jt_lowered" if pointer[1:].strip('"') in tables else "fp_calls"
        if pointer.startswith("%"):
            pkind, pbase = self.defs.get(pointer[1:].strip('"'), ("opaque", None))
            seen_gep = 0
            while pkind == "gep" and seen_gep < 8:
                base = self._resolve_alias(pbase)
                if base is None:
                    return "fp_calls"
                if base.startswith("@"):
                    return "jt_lowered" if base[1:].strip('"') in tables else "fp_calls"
                pkind, pbase = self.defs.get(base[1:].strip('"'), ("opaque", None))
                seen_gep += 1
            if pkind == "load":
                return "virtual_calls"
        return "fp_calls"


def _ref_module_facts(lines):
    functions = set()
    for line in lines:
        stripped = line.strip()
        m = _DEFINE.match(stripped) or _DECLARE.match(stripped)
        if m:
            functions.add(m.group(1).strip('"'))
    tables = set()
    module_asm = 0
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("module asm"):
            module_asm += 1
            continue
        m = _GLOBAL.match(stripped)
        if not m:
            continue
        name, rhs = m.group(1).strip('"'), m.group(2)
        if "constant" not in rhs and "global" not in rhs:
            continue
        refs = {t[1:].strip('"') for t in _TOKEN.findall(rhs) if t.startswith("@")}
        if "blockaddress(" in rhs.replace(" ", "") or (refs & functions):
            tables.add(name)
    return functions, tables, module_asm


def _ref_walk(ir_text, diagnostics):
    lines = ir_text.splitlines()
    functions, tables, module_asm = _ref_module_facts(lines)
    tally = {"": Counter(inline_asm=module_asm)}
    current = None
    scope = _RefScope()
    counts = Counter()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        if current is None:
            m = _DEFINE.match(line)
            if m and line.rstrip().endswith("{"):
                current = m.group(1).strip('"')
                scope = _RefScope()
                counts = Counter()
            continue
        if line == "}":
            tally.setdefault(current, Counter()).update(counts)
            current = None
            continue
        rhs = line
        assign = _ASSIGN.match(line)
        if assign:
            rhs = assign.group(2)
            scope.record(assign.group(1).strip('"'), rhs)
        body = rhs.lstrip()
        if body.startswith("switch "):
            counts["jt_switch"] += 1
            continue
        if body.startswith("indirectbr "):
            counts["jt_lowered"] += 1
            continue
        if body.startswith("store "):
            pieces = _ref_split_top(body[len("store "):].replace("volatile ", "", 1))
            if pieces:
                value_refs = {
                    t[1:].strip('"') for t in _TOKEN.findall(pieces[0]) if t.startswith("@")
                }
                if "blockaddress(" in pieces[0].replace(" ", "") or (value_refs & functions):
                    counts["callback_stores"] += 1
            continue
        m = _CALL_OP.match(body)  # the opcode fix; the walker before it searched the whole rhs
        if not m:
            continue
        rest = body[m.end():]
        callee = _ref_callee_token(rest)
        if callee == "asm":
            counts["inline_asm"] += 1
        elif callee is None:
            if "(" not in rest and diagnostics is not None:
                diagnostics.append((lineno, "call instruction without an argument list"))
        elif callee.startswith("@"):
            pass
        else:
            counts[scope.classify_callee(callee, tables)] += 1
    return tally


def reference_census_by_function(ir_text, diagnostics=None):
    return {name: IrSiteCensus(**c) for name, c in _ref_walk(ir_text, diagnostics).items()}


def assert_same_census(ir_text):
    got_diag, want_diag = [], []
    got = census_by_function(ir_text, got_diag)
    want = reference_census_by_function(ir_text, want_diag)
    assert got == want
    assert got_diag == want_diag


# --------------------------------------------------------------- generators

_plain_name = st.text(alphabet="abcfx0._", min_size=1, max_size=5).map(lambda s: "n" + s)
_quoted_name = st.text(alphabet="a .,()[]{}<>=%@:;-", max_size=6).map(lambda s: f'"{s}"')
# A small pool so that definitions, uses and redefinitions meet.
_reg = st.sampled_from(
    ["%fp", "%vt", "%slot", "%vfn", "%x", "%call", "%0", '%"q r"', '%"call"', "%p.addr"]
)
_fn = st.one_of(
    st.sampled_from(["@f", "@g", '@"x.call"', '@"h,i"', "@llvm.memcpy", "@tbl", "@cbs"]),
    _plain_name.map(lambda n: "@" + n),
    _quoted_name.map(lambda n: "@" + n),
)
_ty = st.sampled_from(
    ["ptr", "i32", "i8*", "void ()*", "{ i32, i32 }", "%struct.S*", "[2 x ptr]", "<2 x i32>",
     "i32 (i32)*", "{ ptr, { i32, i32 } }"]
)
_value = st.one_of(_reg, _fn, st.sampled_from(["null", "1", "undef", "blockaddress(@f, %bb)"]))
_pad = st.sampled_from(["", " ", "  ", "\t"])
# Pieces of the grammar's corner cases, joined at random.
_fragments = st.lists(
    st.sampled_from([
        "%x", "%call", '%"a,b"', "%", "@f", '@"x.call"', "@tbl", '"', "(", ")", "[", "]", "{", "}",
        "<", ">", ",", " ", "\t", "asm", "_asm", "asm.", "xasm", "call", "ptr", "i32",
        "getelementptr", "inbounds", " to ", "x",
    ]),
    max_size=12,
).map("".join)
# The links of the virtual, table and alias chains, in any order.
_chain_link = st.sampled_from([
    "%vt = load ptr, ptr %p, align 8",
    "%slot = getelementptr inbounds ptr, ptr %vt, i64 2",
    "%vfn = load ptr, ptr %slot, align 8",
    "%fp = load ptr, ptr @tbl, align 8",
    "%slot = getelementptr inbounds [2 x ptr], ptr @tbl, i64 0, i64 1",
    "%fp = load ptr, ptr %slot",
    "%x = bitcast ptr %vfn to ptr",
    "%fp = bitcast ptr %x to ptr",
    "%vt = add i32 1, 2",
    "call void %fp()",
    "call void %vfn(ptr %p)",
    "%call = call i32 %x(i32 1)",
])


@st.composite
def _instruction(draw):
    ty, ty2, v, v2, r = draw(_ty), draw(_ty), draw(_value), draw(_value), draw(_reg)
    kind = draw(st.integers(0, 16))
    if kind == 0:
        vol = draw(st.sampled_from(["", "volatile ", "atomic "]))
        tail = draw(st.sampled_from(["", ", align 8", " monotonic, align 4", ", !tbaa !3"]))
        return f"{r} = load {vol}{ty}, {ty2} {v}{tail}"
    if kind == 1:
        kw = draw(st.sampled_from(["", "inbounds ", "nuw ", "inrange(0, 1) ", "nusw inbounds "]))
        return f"{r} = getelementptr {kw}{ty}, {ty2} {v}, i64 {draw(st.integers(0, 3))}"
    if kind == 2:
        return f"{r} = load {ty}, ptr getelementptr inbounds ([2 x ptr], ptr {v}, i64 0, i64 1)"
    if kind == 3:
        op = draw(st.sampled_from(["bitcast", "addrspacecast"]))
        return f"{r} = {op} {ty} {v} to {ty2}"
    if kind == 4:
        prefix = draw(st.sampled_from(["", "tail ", "musttail ", "notail ", "tail  "]))
        op = draw(st.sampled_from(["call", "invoke"]))
        args = draw(st.sampled_from(["", f"{ty} {v2}", f"ptr {v}, i32 1", "{ i32, i32 } %agg"]))
        callee = draw(st.one_of(_reg, _fn, st.just(f"bitcast (ptr {v} to ptr)")))
        after = draw(st.sampled_from(["", " #0", ", !dbg !7", " to label %ok unwind label %bad",
                                      ' [ "deopt"(i32 1) ]']))
        lhs = draw(st.sampled_from(["", f"{r} = "]))
        return f"{lhs}{prefix}{op} {ty} {callee}({args}){after}"
    if kind == 5:
        return draw(st.sampled_from(
            ['call void asm sideeffect "nop", ""()', "call void asm", "%r = call i32 asm \"x\", \"=r\"()",
             "call void %fp", "tail call void @f", '%a = call ptr @"x.call"'] ))
    if kind == 6:
        vol = draw(st.sampled_from(["", "volatile ", "atomic "]))
        order = draw(st.sampled_from(["", " seq_cst", " release, align 8"]))
        return f"store {vol}{ty} {v}, ptr {v2}{order}"
    if kind == 7:
        return f"switch i32 {v}, label %d [ i32 0, label %a ]"
    if kind == 8:
        return f"indirectbr ptr {v}, [label %a, label %b]"
    if kind == 9:
        op = draw(st.sampled_from(["add nsw", "icmp eq", "select i1 %c,", "phi", "ptrtoint"]))
        return f"{r} = {op} {ty} {v}, {v2}"
    if kind == 10:
        return draw(st.sampled_from(["entry:", "bb:", "ret void", "ret i32 %call", "br label %bb",
                                     "unreachable", "; call void %fp()", "", "   ", "}", "} ; end"]))
    if kind == 11:
        return f"{r}={draw(st.sampled_from(['load ptr, ptr %x', 'call void %fp()', 'add i32 1, 2']))}"
    if kind == 12:
        return f"%add = add nsw i32 %call, {draw(st.integers(0, 9))}"
    if kind == 13:
        head = draw(st.sampled_from(["", "call ", "store ", "%r = call ", "%r = load ", "tail call "]))
        return head + draw(_fragments)
    if kind in (14, 15):
        return draw(_chain_link)
    return f"{r} = call {ty} {v}({ty2} {v2})"


@st.composite
def _module_line(draw):
    name, fn, ty = draw(st.one_of(_plain_name, _quoted_name)), draw(_fn), draw(_ty)
    return draw(st.sampled_from([
        f"@{name} = internal global ptr null, align 8",
        f"@{name} = internal constant [2 x ptr] [ptr {fn}, ptr @g]",
        f"@{name} = global ptr blockaddress(@f, %bb)",
        f"@{name} = private unnamed_addr constant [3 x i8] c\"ab\\00\"",
        f"@{name} = alias i32 (i32), ptr {fn}",
        f"declare {ty} {fn}(i32)",
        'module asm ".globl marker"',
        "%struct.S = type { i32, { i32, i32 } }",
        "; ModuleID = 'x.c'",
        "",
        "attributes #0 = { nounwind }",
        "!0 = !{i32 1}",
        "@tbl = internal constant [2 x ptr] [ptr @f, ptr @g]",
        "declare void @f()",
    ]))


@st.composite
def _function(draw):
    name = draw(st.one_of(_plain_name, _quoted_name))
    head = draw(st.sampled_from([
        f"define i32 @{name}(ptr %p, ptr %fp) {{",
        f"define internal void @{name}() #0 {{",
        f"define void @{name}(ptr %cb) personality ptr @p0 {{",
        f"define i32 @{name}(i32 %x)",  # no brace: not a body
    ]))
    body = draw(st.lists(st.tuples(_pad, _instruction()), max_size=14))
    closing = draw(st.sampled_from(["}", "  }  ", "", "}"]))
    return [head] + [pad + ins for pad, ins in body] + [closing]


@st.composite
def ir_module(draw):
    # A code-pointer table and a function, so that table-based calls classify.
    parts = [["@tbl = internal constant [2 x ptr] [ptr @f, ptr @g]", "declare void @f()"]]
    parts += draw(st.lists(st.one_of(_module_line().map(lambda s: [s]), _function()), max_size=8))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(line for part in parts for line in part)


# -------------------------------------------------------------------- tests

@settings(max_examples=250, deadline=None)
@given(ir_module())
def test_census_matches_the_reference_walker(ir_text):
    assert_same_census(ir_text)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _fragments,
        st.tuples(_fragments, _fn | _reg, _fragments, _fragments).map(lambda t: "{} {}({}){}".format(*t)),
    )
)
def test_split_top_and_callee_token_match_the_reference(text):
    assert ircensus._split_top(text) == _ref_split_top(text)
    assert ircensus._callee_token(text) == _ref_callee_token(text)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _instruction().map(lambda line: _ASSIGN.match(line.strip())).filter(bool).map(lambda m: m[2]),
        st.tuples(st.sampled_from(["load", "getelementptr", "bitcast", "addrspacecast"]), _fragments)
        .map("".join),
    )
)
def test_parsed_definitions_match_the_reference(rhs):
    scope = _RefScope()
    scope.record("r", rhs)
    assert ircensus._parse_def(rhs) == scope.defs["r"]


@pytest.mark.parametrize(
    "rhs",
    [
        "load ptr, ptr %p, align 8",
        'load ptr, ptr @"a, b", align 8',
        "load ptr, ptr getelementptr inbounds ([2 x ptr], ptr @t, i64 0, i64 1)",
        "load { i32, i32 }, ptr %agg",
        "load <2 x ptr>, <2 x ptr> %v",
        'load [a"], ptr %x',
        "load ptr, ",
        "load ptr,, ptr %x",
        "getelementptr inbounds [2 x ptr], ptr @tbl, i64 0, i64 1",
        "getelementptr { i32, { i32, i32 } }, ptr %s, i32 0",
        "getelementptr inrange(0, 1) ptr, ptr %vt, i64 2",
        "getelementptr (ptr, ptr %q), ptr %r",
        "bitcast ptr %x to ptr",
    ],
)
def test_parsed_definition_cases(rhs):
    scope = _RefScope()
    scope.record("r", rhs)
    assert ircensus._parse_def(rhs) == scope.defs["r"]


def test_odd_line_breaks_count_like_splitlines():
    ir = "define void @f(ptr %fp) {\r%x = load ptr, ptr @t\x0bcall void %x()\x85} "
    assert_same_census(ir)
    assert census_by_function(ir)["f"].fp_calls == 1


@pytest.mark.parametrize(
    "body, category",
    [
        (["call void %fp()", "%fp = load ptr, ptr @tbl"], "fp_calls"),  # use before definition
        (["%fp = load ptr, ptr @tbl", "call void %fp()"], "jt_lowered"),
        (["%fp = load ptr, ptr @tbl", "%fp = add i32 1, 2", "call void %fp()"], "fp_calls"),
        (["%fp = add i32 1, 2", "%fp = load ptr, ptr @tbl", "call void %fp()"], "jt_lowered"),
        (['%"fp" = load ptr, ptr @tbl', "call void %fp()"], "jt_lowered"),
        (["%fp = load ptr, ptr @tbl", 'call void %"fp"()'], "jt_lowered"),
        (["%vt = load ptr, ptr %p", "%s = getelementptr ptr, ptr %vt, i64 1",
          "%vf = load ptr, ptr %s", "call void %vf()"], "virtual_calls"),
        (["%s = getelementptr ptr, ptr %vt, i64 1", "%vf = load ptr, ptr %s",
          "call void %vf()", "%vt = load ptr, ptr %p"], "fp_calls"),
        (["%x = load ptr, ptr @tbl", "%fp = bitcast ptr %x to ptr", "call void %fp()"], "jt_lowered"),
        (["%fp = load ptr, ptr @tbl", "musttail call void %fp()"], "jt_lowered"),
        # An assignment's whitespace and a quoted name end with their line.
        (["%fp =", "%fp = load ptr, ptr @tbl", "call void %fp()"], "jt_lowered"),
        (['%"a', "%fp = load ptr, ptr @tbl", '%" = add i32 1, 2', "call void %fp()"], "jt_lowered"),
    ],
)
def test_definitions_count_as_of_the_call(body, category):
    ir = "\n".join(
        ["@tbl = internal constant [2 x ptr] [ptr @f, ptr @g]", "declare void @f()",
         "define void @h(ptr %p) {", *body, "}"]
    )
    assert_same_census(ir)
    assert census_by_function(ir)["h"].as_dict()[category] == 1


@pytest.mark.parametrize(
    "rest, callee",
    [
        (" void %fp(i32 %x) #0", "%fp"),
        (" void asm %fp()", "asm"),
        (" void _asm %fp()", "asm"),
        (" void xasm %fp()", "%fp"),
        (" void @f() to label %ok unwind label %bad", "@f"),
        (") void %fp()", "%fp"),
        (' void %"a(b"(i32 1)', '%"a(b"'),
        (" void bitcast (ptr @f to ptr)()", None),
        (" void %fp", None),
    ],
)
def test_callee_token_cases(rest, callee):
    assert ircensus._callee_token(rest) == _ref_callee_token(rest) == callee


@pytest.mark.parametrize(
    "table, category",
    [
        ("@t = internal constant [2 x ptr] [ptr @f, ptr @g]", "jt_lowered"),
        ("@t = global ptr blockaddress(@h, %bb)", "jt_lowered"),
        ("@t = global ptr blockaddress(%bb)", "jt_lowered"),  # a "(" and no second "@"
        ("@t = internal global ptr null, align 8", "fp_calls"),
        ('@"t(" = global ptr null', "fp_calls"),
        ('@"t@" = global ptr null', "fp_calls"),
        ('@"t(" = constant [1 x ptr] [ptr @f]', "jt_lowered"),
    ],
)
def test_tables_pass_the_global_prefilter(table, category):
    name = table.split(" = ")[0]
    ir = "\n".join(
        [table, "declare void @f()", "define void @h() {", f"%fp = load ptr, ptr {name}",
         "call void %fp()", "}"]
    )
    assert_same_census(ir)
    assert census_by_function(ir)["h"].as_dict()[category] == 1


def test_call_operand_is_no_call():
    ir = "define i32 @f(i32 %x) {\n  %call = call i32 @g(i32 %x)\n  %add = add nsw i32 %call, 1\n  ret i32 %add\n}\n"
    diagnostics: list[tuple[int, str]] = []
    assert census_by_function(ir, diagnostics)["f"].total() == 0
    assert diagnostics == []


def test_quoted_name_with_call_is_no_call():
    ir = 'define void @f() {\n  store ptr @"x.call", ptr @slot\n  %v = load ptr, ptr @"x.call"\n  ret void\n}\n'
    diagnostics: list[tuple[int, str]] = []
    census_by_function(ir, diagnostics)
    assert diagnostics == []


@pytest.mark.parametrize("workload", ["suite_fanout", "wide_tree", "cxx_static"])
def test_census_matches_the_reference_on_benchmark_ir(workload, tmp_path):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(PERFBENCH))
    gen.GENERATORS[workload](tmp_path, 1, sys.executable, PERFBENCH / "cfimodel.py", 0.3)
    files = sorted(tmp_path.rglob("*.ll"))
    assert files
    for path in files:
        assert_same_census(path.read_text())


# ------------------------------------------------ near misses of the fast forms
# The census matches the call, load, getelementptr and store forms compilers
# emit with one regex each and sends every other line to the general parser.
# Each strategy below draws such a form, shaped like the benchmark IR, with up
# to two of its parts replaced by a near miss: quoted names holding ", " or
# "(", registers named like opcodes, odd spacing around "=", direct and
# constant-expression callees, atomic loads, constant-expression pointers.


def _edited(template, defaults, edits):
    @st.composite
    def strategy(draw):
        parts = dict(defaults)
        for key in draw(st.lists(st.sampled_from(sorted(edits)), max_size=2)):
            parts[key] = draw(st.sampled_from(edits[key]))
        return template.format(**parts)

    return strategy()


_near_call = _edited(
    "{lhs}{prefix}{op} {ty} {callee}({args}){tail}",
    dict(lhs="%r = ", prefix="", op="call", ty="i32", callee="%vf", args="ptr %obj, i32 %x", tail=""),
    dict(
        lhs=["", "%r=", "%r  = ", "%r\t=\t", '%"r s" = ', "%asm.r = ", "%vf = "],
        prefix=["tail ", "musttail ", "notail ", "tail  "],
        op=["invoke"],
        ty=["void", "ptr", "{ i32, i32 }", "i32 (i32)"],
        callee=["@f", '@"f"', "@tbl", "%fp", '%"vf"', '%"a(b"', '%"a, b"', "%asm.x", "%vt",
                "bitcast (ptr @f to ptr)", "getelementptr (i8, ptr @tbl, i64 1)"],
        args=["", "{ i32, i32 } %agg", 'ptr @"a, b"', "ptr %asm.x", "i32 %x)("],
        tail=[" #0", ", !dbg !7", ' [ "deopt"(i32 1) ]', " ; asm", " asm",
              " to label %ok unwind label %bad"],
    ),
)
# Direct calls, the commonest call lines of compiled C: "%r = call i32 @f(i32 %x)".
_near_direct_call = _edited(
    "{lhs}{prefix}call {ty} {callee}({args}){tail}",
    dict(lhs="%r = ", prefix="", ty="i32", callee="@f", args="i32 %x", tail=""),
    dict(
        lhs=["", "%r=", "%r  = ", '%"r s" = ', "%asm.r = ", "%f = ", "%call = "],
        prefix=["tail ", "musttail ", "notail ", "tail  "],
        ty=["void", "ptr", "{ i32, i32 }", "i32 (i32, ...)", "noundef i32"],
        callee=["%f", "@g", '@"f"', '@"a(b"', '@"a, b"', "@asm.f", "@f.1", "@tbl",
                "@llvm.memcpy.p0.p0.i64", "@f @g", "bitcast (ptr @f to ptr)"],
        args=["", "ptr @g", 'ptr @"a, b"', "ptr %asm.x", "i32 %x)(", "ptr noundef %fp, i32 1",
              "{ i32, i32 } %agg"],
        tail=[" #0", ", !dbg !7", ' [ "deopt"(i32 1) ]', " ; asm", " asm", " ; @g(", " #2, !srcloc !4"],
    ),
)
_near_load = _edited(
    "{lhs}load {vol}{ty}, {pty}{pointer}{order}{tail}",
    dict(lhs="%vf = ", vol="", ty="ptr", pty="ptr ", pointer="%slot", order="", tail=", align 8"),
    dict(
        lhs=["%vt = ", "%slot = ", '%"vf" = ', "%vf=", "%vf\t= ", '%"a, b" = '],
        vol=["volatile ", "atomic "],
        ty=["i32", "[2 x ptr]", "{ ptr, ptr }", "{ ptr"],
        pty=["ptr  ", "ptr addrspace(1) ", "i8** "],
        pointer=["%obj", "%vt", '%"a, b"', '%"a(b"', "%getelementptr.x", '%"getelementptr"',
                 "@tbl", '@"a, b"', "@getelementptr.t",
                 "getelementptr inbounds ([2 x ptr], ptr @tbl, i64 0, i64 1)"],
        order=[" seq_cst", " monotonic"],
        tail=["", ", align 8, !tbaa !3", ",align 8", ", !invariant.group !1", ", align 8 ("],
    ),
)
_near_gep = _edited(
    "{lhs}getelementptr {kw}{ty}, ptr {base}{index}",
    dict(lhs="%slot = ", kw="inbounds ", ty="ptr", base="%vt", index=", i64 2"),
    dict(
        lhs=["%slot=", '%"slot" = ', "%vt = ", "%slot  =  "],
        kw=["", "inrange(0, 1) ", "nuw ", "nusw inbounds "],
        ty=["[2 x ptr]", "%struct.S", "{ ptr, ptr }", "{ ptr", "<2 x ptr>", '%"struct.a, b"'],
        base=["%obj", '%"a, b"', '%"a(b"', "@tbl", '@"a, b"', "%getelementptr.x",
              "getelementptr (i8, ptr @tbl, i64 8)"],
        index=["", ", i64 0, i64 1", ", i64 %i", ", <2 x i64> <i64 0, i64 1>"],
    ),
)
_near_store = _edited(
    "store {vol}{ty} {value}, ptr {pointer}{tail}",
    dict(vol="", ty="ptr", value="@f", pointer="%slot", tail=", align 8"),
    dict(
        vol=["volatile ", "atomic "],
        ty=["i32", "{ ptr, ptr }", "ptr volatile"],
        value=["%vf", "null", "0", '@"f"', '@"volatile f"', '@"volatile  f"', "@fvolatile", "@g",
               '@"a, b"', '@"a(b"', "blockaddress(@h, %bb)", "@f @g", "@f ", "{ ptr @f, ptr @g }",
               "getelementptr (i8, ptr @f, i64 1)"],
        pointer=['@"a, b"', "@tbl"],
        tail=["", " seq_cst, align 8", ", align 8, !tbaa !3"],
    ),
)
# Globals near the table prefilter: a "(" or a second "@" is what lets a line be a table.
_near_global_line = _edited(
    "@{name} = {kind} {init}",
    dict(name="tbl", kind="internal constant", init="[2 x ptr] [ptr @f, ptr @g]"),
    dict(
        name=['"tbl"', '"a(b"', '"x@y"', "t2", '"volatile f"'],
        kind=["global", "internal global", "alias"],
        init=["ptr null", "ptr @f", "ptr blockaddress(@h, %bb)", "ptr blockaddress(%bb)",
              '[1 x ptr] [ptr @"volatile f"]', "i32 0", "[2 x ptr] zeroinitializer", "ptr @t2"],
    ),
)


@st.composite
def near_miss_module(draw):
    body = draw(st.lists(
        st.one_of(_near_call, _near_direct_call, _near_load, _near_gep, _near_store, _chain_link),
        max_size=12,
    ))
    globals_ = st.lists(_near_global_line, max_size=3)
    ir = [
        *draw(globals_),
        "declare void @f()",
        "define void @h(ptr %obj, ptr %fp) {",
        *("  " + line for line in body),
        "}",
        *draw(globals_),
        draw(st.sampled_from(["", 'declare void @"volatile f"()', "declare void @fvolatile()",
                              'declare void @"a, b"()', "declare void @t2()"])),
    ]
    return "\n".join(ir)


@settings(max_examples=400, deadline=None)
@given(near_miss_module())
def test_near_misses_of_the_fast_forms_match_the_reference(ir_text):
    assert_same_census(ir_text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_near_load, _near_gep).map(lambda line: line.split("=", 1)[1].lstrip()))
def test_near_miss_definitions_match_the_reference(rhs):
    scope = _RefScope()
    scope.record("r", rhs)
    assert ircensus._parse_def(rhs) == scope.defs["r"]


@pytest.mark.parametrize(
    "line",
    [
        "%r = call i32 %fp(i32 %x)",
        "%r = tail call ptr %vf(ptr %obj, i32 1) #3, !dbg !9",
        "%r = call i32 @f(i32 %x)",
        "%call = tail call noalias ptr @malloc(i64 noundef 8) #4, !dbg !12",
        "%v = load ptr, ptr %obj, align 8",
        '%v = load ptr, ptr @"m.slot0", align 8, !tbaa !3',
        "%s = getelementptr inbounds ptr, ptr %vt, i64 2",
        '%s = getelementptr inbounds [2 x ptr], ptr @"m.tbl0", i64 0, i64 1',
        "%s = getelementptr inbounds %struct.S, ptr %p, i32 0, i32 1",
        'store ptr @"m.cb", ptr @"m.cbslot0", align 8',
        "store i32 %x, ptr %p, align 4",
    ],
)
def test_compiler_forms_take_a_fast_path(line):
    rhs = line.split(" = ", 1)[1] if line.startswith("%") else line
    assert (
        ircensus._FAST_CALL.fullmatch(line)
        or ircensus._FAST_DEF.match(rhs)
        or ircensus._FAST_STORE.match(line)
    )


# ----------------------------------------------------------------- streamed

def assert_streams_like_read_text(path, block_size=7):
    """Blocks of block_size characters give the lines and census of the whole text."""
    whole = path.read_text(errors="replace")
    assert list(read_ir_lines(path, block_size)) == whole.splitlines()
    got_diag, want_diag = [], []
    got = census_by_function(read_ir_lines(path, block_size), got_diag)
    assert got == census_by_function(whole, want_diag)
    assert got_diag == want_diag


@settings(max_examples=150, deadline=None)
@given(ir_module(), st.integers(1, 16))
def test_streamed_census_matches_the_whole_text(tmp_path_factory, ir_text, block_size):
    path = tmp_path_factory.mktemp("streamed") / "m.ll"
    path.write_bytes(ir_text.encode())
    assert_streams_like_read_text(path, block_size)


_BAD_CALL = "define void @f(ptr %fp) {\n  call void %fp\n  call void %fp()\n}\n"
# In the first two cases a 7-character block ends where the case name says.
_STREAM_CASES = {
    "empty line at a block start": b"; abcd\n\n" + _BAD_CALL.encode(),
    "crlf split across blocks": b"; abcd\r\n" + _BAD_CALL.replace("\n", "\r\n").encode(),
    "vt, nel and line separator": (
        "define void @f(ptr %fp) {\x0b  call void %fp\x85\x85  call void %fp()\u2028}\u2028"
        "define void @g(ptr %fp) {\x0c\x1c\x1d\x1e\u2029  call void %fp\n}"
    ).encode(),
    "lone cr lines": _BAD_CALL.replace("\n", "\r").encode() + b"\r",
    "invalid utf-8": b"; \xff\xfe\xe2\x82\n" + _BAD_CALL.encode() + b"\xc3",
    "invalid utf-8 across a read": b";" * 8190 + b"\xe2\x82\xac\xe2\x82A\n" + _BAD_CALL.encode(),
    "no trailing newline": _BAD_CALL.rstrip("\n").encode(),
    "empty file": b"",
}


@pytest.mark.parametrize("data", _STREAM_CASES.values(), ids=_STREAM_CASES.keys())
@pytest.mark.parametrize("block_size", [1, 7, 1 << 16])
def test_streamed_census_cases(tmp_path, data, block_size):
    path = tmp_path / "m.ll"
    path.write_bytes(data)
    assert_streams_like_read_text(path, block_size)


@pytest.mark.parametrize("case, lineno", [("empty line at a block start", 4),
                                          ("crlf split across blocks", 3)])
def test_streamed_diagnostics_keep_their_line_numbers(tmp_path, case, lineno):
    path = tmp_path / "m.ll"
    path.write_bytes(_STREAM_CASES[case])
    diagnostics: list[tuple[int, str]] = []
    assert census_by_function(read_ir_lines(path, 7), diagnostics)["f"].fp_calls == 1
    assert diagnostics == [(lineno, "call instruction without an argument list")]
