"""Indirect-control-flow census over textual LLVM IR.

Snippet expectations were cross-checked by hand against the LLVM language
reference semantics for each construct; the per-project row sums reproduce
published whole-project totals.
"""

import pytest

from cfiheal.ircensus import IrSiteCensus, census, census_by_function

from conftest import needs_toolchain

FP = """
define i32 @driver(i32 %x) {
entry:
  %slot = alloca i32 (i32)*, align 8
  store i32 (i32)* @work, i32 (i32)** %slot, align 8
  %fp = load i32 (i32)*, i32 (i32)** %slot, align 8
  %r = call i32 %fp(i32 %x)
  ret i32 %r
}
define i32 @work(i32 %x) {
  ret i32 %x
}
"""

VIRT = """
%class.Widget = type { i32 (...)** }
define i32 @call_virtual(%class.Widget* %w) {
entry:
  %vtable.ptr = bitcast %class.Widget* %w to i32 (%class.Widget*)***
  %vtable = load i32 (%class.Widget*)**, i32 (%class.Widget*)*** %vtable.ptr, align 8
  %slot = getelementptr inbounds i32 (%class.Widget*)*, i32 (%class.Widget*)** %vtable, i64 2
  %fn = load i32 (%class.Widget*)*, i32 (%class.Widget*)** %slot, align 8
  %r = call i32 %fn(%class.Widget* %w)
  ret i32 %r
}
"""

LOWERED = """
@dispatch_table = internal constant [2 x void ()*] [void ()* @h0, void ()* @h1]
define void @run(i64 %i) {
entry:
  %slot = getelementptr inbounds [2 x void ()*], [2 x void ()*]* @dispatch_table, i64 0, i64 %i
  %fn = load void ()*, void ()** %slot, align 8
  call void %fn()
  ret void
}
define internal void @h0() { ret void }
define internal void @h1() { ret void }
"""

CONSTEXPR_GEP = """
@tbl = internal unnamed_addr constant [2 x ptr] [ptr @f0, ptr @f1]
define void @disp(i64 %i) {
entry:
  %fp = load ptr, ptr getelementptr inbounds ([2 x ptr], ptr @tbl, i64 0, i64 1)
  call void %fp()
  ret void
}
define void @f0() { ret void }
define void @f1() { ret void }
"""

INDIRECTBR = """
define void @goto_table(i8* %p) {
entry:
  indirectbr i8* %p, [label %a, label %b]
a:
  ret void
b:
  ret void
}
"""

BLOCKADDR = """
@resume_slot = global i8* null
define void @save(i32 %x) {
entry:
  store i8* blockaddress(@save, %cont), i8** @resume_slot, align 8
  br label %cont
cont:
  ret void
}
"""

SWITCH = """
define i32 @pick(i32 %x) {
entry:
  switch i32 %x, label %default [
    i32 0, label %a
    i32 1, label %b
  ]
a:
  ret i32 10
b:
  ret i32 20
default:
  ret i32 0
}
"""

ASM = """
module asm ".globl marker"
define void @pause_cpu() {
entry:
  call void asm sideeffect "pause", ""()
  ret void
}
"""

BITCAST_DIRECT = """
define void @glue() {
entry:
  call void bitcast (i32 (i32)* @work2 to void ()*)()
  ret void
}
define i32 @work2(i32 %x) { ret i32 %x }
"""

INVOKE = """
define void @may_throw(void ()* %cb) personality i8* bitcast (i32 (...)* @p0 to i8*) {
entry:
  invoke void %cb() to label %ok unwind label %bad
ok:
  ret void
bad:
  %lp = landingpad { i8*, i32 } cleanup
  resume { i8*, i32 } %lp
}
declare i32 @p0(...)
"""

ALIAS_DIRECT = """
@work_alias = alias i32 (i32), i32 (i32)* @work3
define i32 @use_alias(i32 %x) {
  %r = call i32 @work_alias(i32 %x)
  ret i32 %r
}
define i32 @work3(i32 %x) { ret i32 %x }
"""

OPAQUE_PTR = """
define i32 @op(ptr %p) {
entry:
  %fp = load ptr, ptr %p, align 8
  %r = call i32 %fp(i32 1)
  ret i32 %r
}
"""

# The virtual idiom through quoted registers; %"vf" and %vf name the same one.
QUOTED_VIRT = """
define i32 @quoted_virtual(ptr %obj) {
entry:
  %"v t" = load ptr, ptr %obj, align 8
  %"v s" = getelementptr inbounds ptr, ptr %"v t", i64 2
  %vf = load ptr, ptr %"v s", align 8
  %r = call i32 %"vf"(ptr %obj)
  ret i32 %r
}
"""


BAD_CALL = """
define void @f(void ()* %fp) {
entry:
  call void %fp
  call void %fp()
  ret void
}
"""

ALL_CASES = {
    "fp": FP, "virt": VIRT, "lowered": LOWERED, "constexpr_gep": CONSTEXPR_GEP,
    "indirectbr": INDIRECTBR, "blockaddr": BLOCKADDR, "switch": SWITCH, "asm": ASM,
    "bitcast_direct": BITCAST_DIRECT, "invoke": INVOKE, "alias_direct": ALIAS_DIRECT,
    "opaque_ptr": OPAQUE_PTR, "quoted_virt": QUOTED_VIRT, "bad_call": BAD_CALL,
}


@pytest.mark.parametrize("ir", ALL_CASES.values(), ids=ALL_CASES.keys())
def test_census_is_the_sum_of_census_by_function(ir):
    whole: list[tuple[int, str]] = []
    split: list[tuple[int, str]] = []
    per = census_by_function(ir, split)
    assert census(ir, whole) == sum(per.values(), IrSiteCensus())
    assert whole == split


def test_census_diagnostics_name_the_line():
    diagnostics: list[tuple[int, str]] = []
    assert census(BAD_CALL, diagnostics).fp_calls == 1
    assert diagnostics == [(4, "call instruction without an argument list")]


def tuple_of(ir: str) -> tuple[int, int, int, int, int, int]:
    c = census(ir)
    return (
        c.fp_calls,
        c.virtual_calls,
        c.callback_stores,
        c.jt_switch,
        c.jt_lowered,
        c.inline_asm,
    )


def test_fp_call_with_callback_store():
    assert tuple_of(FP) == (1, 0, 1, 0, 0, 0)


def test_virtual_dispatch():
    assert tuple_of(VIRT) == (0, 1, 0, 0, 0, 0)


def test_virtual_dispatch_through_quoted_registers():
    assert tuple_of(QUOTED_VIRT) == (0, 1, 0, 0, 0, 0)


def test_lowered_jump_table_beats_fp():
    # A load out of a known code-pointer table is a lowered JT site, not fp.
    assert tuple_of(LOWERED) == (0, 0, 0, 0, 1, 0)


def test_lowered_jump_table_constexpr_gep():
    assert tuple_of(CONSTEXPR_GEP) == (0, 0, 0, 0, 1, 0)


def test_indirectbr_counts_as_lowered():
    assert tuple_of(INDIRECTBR) == (0, 0, 0, 0, 1, 0)


def test_blockaddress_store_is_callback():
    assert tuple_of(BLOCKADDR) == (0, 0, 1, 0, 0, 0)


def test_switch_stays_structured():
    assert tuple_of(SWITCH) == (0, 0, 0, 1, 0, 0)


def test_inline_asm_call_and_module_asm():
    assert tuple_of(ASM) == (0, 0, 0, 0, 0, 2)


def test_constexpr_bitcast_of_known_function_is_direct():
    assert tuple_of(BITCAST_DIRECT) == (0, 0, 0, 0, 0, 0)


def test_invoke_through_argument_is_fp():
    assert tuple_of(INVOKE) == (1, 0, 0, 0, 0, 0)


def test_alias_call_is_direct():
    assert tuple_of(ALIAS_DIRECT) == (0, 0, 0, 0, 0, 0)


def test_opaque_pointer_fp():
    assert tuple_of(OPAQUE_PTR) == (1, 0, 0, 0, 0, 0)


def test_census_addition_and_total():
    total = census(FP) + census(SWITCH) + census(ASM)
    assert total.as_dict() == {
        "fp_calls": 1,
        "virtual_calls": 0,
        "callback_stores": 1,
        "jt_switch": 1,
        "jt_lowered": 0,
        "inline_asm": 2,
    }
    assert total.total() == 5


def test_by_function_attribution():
    per = census_by_function(FP)
    assert per["driver"].fp_calls == 1
    assert per["driver"].callback_stores == 1
    assert per["work"].total() == 0
    assert per[""].total() == 0


def test_module_asm_attributed_to_module_scope():
    per = census_by_function(ASM)
    assert per[""].inline_asm == 1
    assert per["pause_cpu"].inline_asm == 1


# Whole-project category rows; each row's sum is the project's published
# indirect-site total.
PROJECT_ROWS = {
    "coreutils": (338, 6, 2316, 776, 13448, 70),
    "diffutils": (46, 3, 318, 200, 2873, 0),
    "findutils": (63, 5, 380, 253, 4241, 0),
    "util-linux": (191, 20, 1461, 1458, 25056, 56),
}
PROJECT_TOTALS = {
    "coreutils": 16954,
    "diffutils": 3440,
    "findutils": 4942,
    "util-linux": 28242,
}


def test_project_row_sums():
    for project, row in PROJECT_ROWS.items():
        c = IrSiteCensus(*row)
        assert c.total() == PROJECT_TOTALS[project]


@needs_toolchain
def test_real_instrumented_ir(cfi_ir):
    c = census(cfi_ir.read_text())
    assert c.fp_calls == 1
    assert c.callback_stores == 1
    assert c.virtual_calls == 0
    assert c.jt_switch == 0
    per = census_by_function(cfi_ir.read_text())
    assert per["run_cb"].fp_calls == 1
