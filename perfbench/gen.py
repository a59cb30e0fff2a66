"""Seeded generators for the benchmark's C/C++ projects and their oracles.

Each generator writes one project into an empty directory and returns a spec:
the configuration ``heal`` gets, the modelled violations, and the oracle the
benchmark checks the heal against. ``heal`` sees only the project and its
configuration, never the spec.

The seed chooses identifiers, test ids and constants. The structure (file
and function order, the rung at which each violation heals, sizes) is fixed
per workload, so every seed costs the same work and meets the same defects.
Identifiers have a fixed length and constants a fixed width for the same
reason. ``scale`` shrinks the sizes for the self-check.
"""

from __future__ import annotations

import random
import shlex
import string
from dataclasses import asdict, dataclass, field
from pathlib import Path

CATEGORIES = ("fp_calls", "virtual_calls", "callback_stores", "jt_switch", "jt_lowered", "inline_asm")

MODEL_HEADER = """\
#ifndef CFI_MODEL_H
#define CFI_MODEL_H
/* Forward-edge check model: CFI_OFF_<kind>__<function> is set by the
 * compiler wrapper from -fsanitize= and the ignorelist. */
#define CFI_CHECK(off, bad) do { if (!(off) && (bad)) __builtin_trap(); } while (0)
/* A check whose failure traps in a runtime helper, like a cross-DSO slow path. */
#define CFI_SLOWPATH(off, bad, fail) do { if (!(off) && (bad)) fail(); } while (0)
#endif
"""

NOINLINE = "__attribute__((noinline))"


@dataclass
class ModelledViolation:
    """One violation the generator plants, with the answer heal should find."""

    vid: str
    rung: int | None  # ladder rung whose entry heals it; None if no rung does
    binary: str
    test_ids: list[str]
    # Names the symbolizer reports for the fault function, caller and
    # caller's caller (demangled for C++), and the files of the first two.
    chain: tuple[str, str, str]
    chain_files: tuple[str, str]
    # The entry each rung L0..L4 adds, spelled as the compiler matches it
    # (mangled for C++).
    rungs: list[str]
    op: str

    @property
    def oracle_entry(self) -> str | None:
        return None if self.rung is None else self.rungs[self.rung]


@dataclass
class Spec:
    workload: str
    seed: int
    build_cmd: str
    clean_cmd: str
    test_cmd: str
    executables: list[str]
    cfi_variants: list[str]
    violations: list[ModelledViolation]
    census: dict[str, int]
    call_sites: int
    sources: list[str] = field(default_factory=list)

    @property
    def minimal_ignorelist(self) -> list[str]:
        return sorted({v.oracle_entry for v in self.violations if v.oracle_entry})

    @property
    def exit_status(self) -> int:
        return 1 if any(v.rung is None for v in self.violations) else 0

    def to_json(self) -> dict:
        out = asdict(self)
        out["minimal_ignorelist"] = self.minimal_ignorelist
        out["exit_status"] = self.exit_status
        return out


class Names:
    """Unique fixed-length identifiers drawn from the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self, prefix: str, length: int = 6) -> str:
        while True:
            name = prefix + "".join(self.rng.choice(string.ascii_lowercase) for _ in range(length))
            if name not in self.used:
                self.used.add(name)
                return name

    def const(self) -> int:
        # Four digits keep every immediate the same width in the machine code.
        return self.rng.randrange(1000, 10000)


class IrModule:
    """Textual IR whose census the generator knows exactly."""

    def __init__(self) -> None:
        self.globals: list[str] = []
        self.body: list[str] = []
        self.totals = dict.fromkeys(CATEGORIES, 0)
        self.sites: dict[str, int] = {}

    def function(
        self,
        name: str,
        *,
        fp: int = 0,
        virtual: int = 0,
        stores: int = 0,
        switches: int = 0,
        lowered: int = 0,
        asm: int = 0,
        filler: int = 2,
    ) -> None:
        lines = [f'define i32 @"{name}"(i32 %x, ptr %obj) {{', "entry:"]
        if stores or lowered:
            self.globals.append(f'declare i32 @"{name}.cb"(i32)')
        for i in range(fp):
            self.globals.append(f'@"{name}.slot{i}" = internal global ptr null, align 8')
            lines.append(f'  %fp{i} = load ptr, ptr @"{name}.slot{i}", align 8')
            lines.append(f"  %fr{i} = call i32 %fp{i}(i32 %x)")
        for i in range(stores):
            self.globals.append(f'@"{name}.cbslot{i}" = internal global ptr null, align 8')
            lines.append(f'  store ptr @"{name}.cb", ptr @"{name}.cbslot{i}", align 8')
        for i in range(virtual):
            lines.append(f"  %vt{i} = load ptr, ptr %obj, align 8")
            lines.append(f"  %vs{i} = getelementptr inbounds ptr, ptr %vt{i}, i64 {i % 4}")
            lines.append(f"  %vf{i} = load ptr, ptr %vs{i}, align 8")
            lines.append(f"  %vr{i} = call i32 %vf{i}(ptr %obj, i32 %x)")
        for i in range(lowered):
            self.globals.append(
                f'@"{name}.tbl{i}" = internal constant [2 x ptr] [ptr @"{name}.cb", ptr @"{name}.cb"]'
            )
            lines.append(
                f'  %lt{i} = getelementptr inbounds [2 x ptr], ptr @"{name}.tbl{i}", i64 0, i64 1'
            )
            lines.append(f"  %lf{i} = load ptr, ptr %lt{i}, align 8")
            lines.append(f"  %lr{i} = call i32 %lf{i}(i32 %x)")
        for i in range(asm):
            lines.append('  call void asm sideeffect "nop", ""()')
        for i in range(filler):
            lines.append(f"  %a{i} = add nsw i32 %x, {i + 1}")
            lines.append(f"  %m{i} = mul nsw i32 %a{i}, 3")
        for i in range(switches):
            lines.append(f"  switch i32 %x, label %sw{i} [ i32 0, label %sw{i} ]")
            lines.append(f"sw{i}:")
        lines += ["  ret i32 %x", "}", ""]
        self.body.extend(lines)
        counts = {
            "fp_calls": fp,
            "virtual_calls": virtual,
            "callback_stores": stores,
            "jt_switch": switches,
            "jt_lowered": lowered,
            "inline_asm": asm,
        }
        for key, value in counts.items():
            self.totals[key] += value
        # Indirect transfers a forward-edge check can guard (pipeline._checkable_sites).
        self.sites[name] = self.sites.get(name, 0) + fp + virtual + lowered

    def text(self) -> str:
        return "\n".join(self.globals) + "\n\n" + "\n".join(self.body)


class ProjectWriter:
    """Files of one project plus the census facts of its IR."""

    def __init__(self, root: Path):
        self.root = root
        self.census = dict.fromkeys(CATEGORIES, 0)
        self.sites: dict[str, int] = {}
        self.sources: list[str] = []

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        if rel.endswith((".c", ".cpp", ".h")):
            self.sources.append(rel)

    def ir(self, rel: str, module: IrModule) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(module.text())
        for key, value in module.totals.items():
            self.census[key] += value

    def linked(self, module: IrModule) -> None:
        """Count a module's call sites as belonging to a listed binary."""
        for name, count in module.sites.items():
            self.sites[name] = self.sites.get(name, 0) + count


def _ir_bulk(w: ProjectWriter, names: Names, mb: float) -> None:
    """About mb MB of textual IR from components outside the project's binaries.

    The census reads it; generating it is the CPU-bound part of set-up.
    """
    per_module = 850  # functions of about 1.2 KB each, so about 1 MB a module
    for m in range(max(1, round(mb))):
        ir = IrModule()
        for k in range(per_module):
            ir.function(names("vir_", 10), fp=2, virtual=1, stores=1, switches=1, lowered=1,
                        asm=1 if k % 7 == 0 else 0, filler=10)
        w.ir(f"ir/vendor/mod{m:03d}.ll", ir)


def _wrapped_make(python: str, wrapper: Path, target: str) -> str:
    base = f"{shlex.quote(python)} -S -E {shlex.quote(str(wrapper))}"
    return f"make -s CC={shlex.quote(base + ' cc')} CXX={shlex.quote(base + ' c++')} {target}"


def _test_list(tests: list[tuple[str, str]]) -> str:
    return "".join(f"TEST\t{tid}\t{cmd}\n" for tid, cmd in tests)


# --------------------------------------------------------------------------
# C violation shapes, one file (or file group) each. The chain is the frame
# walk the tracer sees: fault function, caller, caller's caller.


def _c_violation(rung: int | None, base: str, k: int, rel: str) -> tuple[dict[str, str], tuple, tuple, list[str], IrModule, str]:
    """Files, chain, chain files, rung entries, IR and entry function of one violation."""
    head = '#include "cfi_model.h"\n\ntypedef int (*int_fn)(int);\n\n'
    common = (
        f"static int {base}_ok(int x) {{ return x + {k}; }}\n"
        f"static int {base}_bad(int x, int y) {{ return x - y; }}  /* wrong type on purpose */\n"
        f"static volatile int_fn {base}_slot;\n\n"
    )
    load = f"    {base}_slot = (int_fn){base}_bad;\n"
    call = f"    return {base}_slot(x);\n"
    entry = f"{base}_entry"
    ir = IrModule()
    ir.function(f"{base}_ok")
    ir.function(f"{base}_bad")
    files: dict[str, str] = {}
    rt = rel[:-2] + "_rt.c"
    if rung == 0:
        files[rel] = head + common + (
            f"{NOINLINE} static int {base}_check(int x) {{\n{load}"
            f"    CFI_CHECK(CFI_OFF_icall__{base}_check, {base}_slot != {base}_ok);\n{call}}}\n\n"
            f"{NOINLINE} static int {base}_mid(int x) {{ return {base}_check(x) + 1; }}\n\n"
            f"{NOINLINE} int {entry}(int x) {{ return {base}_mid(x) + 1; }}\n"
        )
        chain = (f"{base}_check", f"{base}_mid", entry)
        chain_files = (rel, rel)
        ir.function(f"{base}_check", fp=1, stores=1)
        ir.function(f"{base}_mid")
    elif rung == 1:
        files[rel] = head + common + (
            f"{NOINLINE} static void {base}_fail(void) {{ __builtin_trap(); }}\n\n"
            f"{NOINLINE} static int {base}_mid(int x) {{\n{load}"
            f"    CFI_SLOWPATH(CFI_OFF_icall__{base}_mid, {base}_slot != {base}_ok, {base}_fail);\n{call}}}\n\n"
            f"{NOINLINE} int {entry}(int x) {{ return {base}_mid(x) + 1; }}\n"
        )
        chain = (f"{base}_fail", f"{base}_mid", entry)
        chain_files = (rel, rel)
        ir.function(f"{base}_fail")
        ir.function(f"{base}_mid", fp=1, stores=1)
    elif rung == 2:
        files[rel] = head + common + (
            f"{NOINLINE} static void {base}_fail(void) {{ __builtin_trap(); }}\n\n"
            f"{NOINLINE} static void {base}_slow(void) {{ {base}_fail(); }}\n\n"
            f"{NOINLINE} int {entry}(int x) {{\n{load}"
            f"    CFI_SLOWPATH(CFI_OFF_icall__{entry}, {base}_slot != {base}_ok, {base}_slow);\n{call}}}\n"
        )
        chain = (f"{base}_fail", f"{base}_slow", entry)
        chain_files = (rel, rel)
        ir.function(f"{base}_fail")
        ir.function(f"{base}_slow")
    elif rung == 3:
        # The symbol carries a link-time collision suffix that no fun: entry
        # written against the compile-time name can match.
        files[rel] = head + common + (
            f'{NOINLINE} static int {base}_step(int x) __asm__("{base}_step.1");\n'
            f"static int {base}_step(int x) {{\n{load}"
            f"    CFI_CHECK(CFI_OFF_icall__{base}_step, {base}_slot != {base}_ok);\n{call}}}\n\n"
            f"{NOINLINE} static int {base}_mid(int x) {{ return {base}_step(x) + 1; }}\n\n"
            f"{NOINLINE} int {entry}(int x) {{ return {base}_mid(x) + 1; }}\n"
        )
        chain = (f"{base}_step.1", f"{base}_mid", entry)
        chain_files = (rel, rel)
        ir.function(f"{base}_step.1", fp=1, stores=1)
        ir.function(f"{base}_mid")
    elif rung == 4:
        files[rt] = f"{NOINLINE} void {base}_fail(void) {{ __builtin_trap(); }}\n"
        files[rel] = head + f"void {base}_fail(void);\n\n" + common + (
            f'{NOINLINE} static int {base}_mid(int x) __asm__("{base}_mid.1");\n'
            f"static int {base}_mid(int x) {{\n{load}"
            f"    CFI_SLOWPATH(CFI_OFF_icall__{base}_mid, {base}_slot != {base}_ok, {base}_fail);\n{call}}}\n\n"
            f"{NOINLINE} int {entry}(int x) {{ return {base}_mid(x) + 1; }}\n"
        )
        chain = (f"{base}_fail", f"{base}_mid.1", entry)
        chain_files = (rt, rel)
        ir.function(f"{base}_fail")
        ir.function(f"{base}_mid.1", fp=1, stores=1)
    else:
        # The check sits three frames above the trap, beyond the two the
        # tracer unwinds, and no frame it sees holds a check.
        rts = [rel[:-2] + f"_rt{i}.c" for i in (1, 2, 3)]
        files[rts[2]] = f"{NOINLINE} void {base}_c(void) {{ __builtin_trap(); }}\n"
        files[rts[1]] = f"void {base}_c(void);\n\n{NOINLINE} void {base}_b(void) {{ {base}_c(); }}\n"
        files[rts[0]] = f"void {base}_b(void);\n\n{NOINLINE} void {base}_a(void) {{ {base}_b(); }}\n"
        files[rel] = head + f"void {base}_a(void);\n\n" + common + (
            f"{NOINLINE} int {entry}(int x) {{\n{load}"
            f"    CFI_SLOWPATH(CFI_OFF_icall__{entry}, {base}_slot != {base}_ok, {base}_a);\n{call}}}\n"
        )
        chain = (f"{base}_c", f"{base}_b", f"{base}_a")
        chain_files = (rts[2], rts[1])
        for fn in chain:
            ir.function(fn)
    guarded_entry = int(rung in (2, None))
    ir.function(entry, fp=guarded_entry, stores=guarded_entry)
    rungs = [f"fun:{chain[0]}", f"fun:{chain[1]}", f"fun:{chain[2]}",
             f"src:{chain_files[0]}", f"src:{chain_files[1]}"]
    return files, chain, chain_files, rungs, ir, entry


def _c_clean_op(name: str, k: int, ir: IrModule) -> str:
    ir.function(f"{name}_ok")
    ir.function(name, fp=1, stores=1)
    return (
        f"static int {name}_ok(int x) {{ return x * 3 + {k}; }}\n"
        f"static volatile int_fn {name}_slot;\n"
        f"{NOINLINE} int {name}(int x) {{\n"
        f"    {name}_slot = {name}_ok;\n"
        f"    CFI_CHECK(CFI_OFF_icall__{name}, {name}_slot != {name}_ok);\n"
        f"    return {name}_slot(x) % 1000;\n}}\n\n"
    )


def _c_main(ops: list[str], ir: IrModule, main_name: str) -> str:
    protos = "".join(f"int {op}(int);\n" for op in ops)
    table = "".join(f'    {{"{op}", {op}}},\n' for op in ops)
    ir.function(main_name, switches=1)
    ir.function("main")
    return (
        '#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n\n#include "cfi_model.h"\n\n'
        + protos
        + "\nstruct op { const char *name; int (*fn)(int); };\n\n"
        + "static const struct op OPS[] = {\n" + table + "};\n\n"
        + f"{NOINLINE} static int {main_name}(const char *name, int x, int *found) {{\n"
        + "    for (size_t i = 0; i < sizeof OPS / sizeof OPS[0]; i++) {\n"
        + "        if (strcmp(OPS[i].name, name) != 0)\n            continue;\n"
        + "        *found = 1;\n"
        + f"        CFI_CHECK(CFI_OFF_icall__{main_name}, OPS[i].fn == 0);\n"
        + "        return OPS[i].fn(x);\n    }\n    return 0;\n}\n\n"
        + "int main(int argc, char **argv) {\n"
        + "    int found = 0;\n"
        + "    if (argc < 3)\n        return 2;\n"
        + f"    printf(\"%d\\n\", {main_name}(argv[1], atoi(argv[2]), &found));\n"
        + "    return found ? 0 : 1;\n}\n"
    )


def suite_fanout(root: Path, seed: int, python: str, wrapper: Path, scale: float = 1.0) -> Spec:
    """Two small C tools, 130 tests of two execs each, seven modelled violations."""
    rng = random.Random(f"suite_fanout:{seed}")
    names = Names(rng)
    w = ProjectWriter(root)
    w.write("include/cfi_model.h", MODEL_HEADER)
    n_tests = max(16, int(130 * scale))
    clean_ops = 12
    # Rungs per tool, in link order: L0 in each tool, L1..L4, one unresolvable.
    layout = {"a": [0, 1, 2], "b": [0, 3, 4, None]}
    violations: list[ModelledViolation] = []
    clean: dict[str, list[str]] = {}
    link: dict[str, list[str]] = {}
    for tool, rungs in layout.items():
        ops_ir = IrModule()
        ops = [names(f"op{tool}_") for _ in range(clean_ops)]
        clean[tool] = ops
        code = '#include "cfi_model.h"\n\ntypedef int (*int_fn)(int);\n\n'
        code += "".join(_c_clean_op(op, names.const(), ops_ir) for op in ops)
        w.write(f"src/ops_{tool}.c", code)
        w.ir(f"ir/ops_{tool}.ll", ops_ir)
        w.linked(ops_ir)
        files = [f"src/main_{tool}.c", f"src/ops_{tool}.c"]
        entries: list[str] = []
        for rung in rungs:
            base = names("v")
            rel = f"src/{base}.c"
            vfiles, chain, chain_files, rung_lines, vir, entry = _c_violation(rung, base, names.const(), rel)
            for frel, text in vfiles.items():
                w.write(frel, text)
            files.extend(sorted(vfiles))
            w.ir(f"ir/{base}.ll", vir)
            w.linked(vir)
            entries.append(entry)
            violations.append(
                ModelledViolation(
                    vid=base, rung=rung, binary=f"bin/tool_{tool}", test_ids=[],
                    chain=chain, chain_files=chain_files, rungs=rung_lines, op=entry,
                )
            )
        main_ir = IrModule()
        w.write(f"src/main_{tool}.c", _c_main(ops + entries, main_ir, names(f"run{tool}_")))
        w.ir(f"ir/main_{tool}.ll", main_ir)
        w.linked(main_ir)
        link[tool] = files

    _ir_bulk(w, names, 2.0 * scale)

    # Violation tests sit at fixed positions; every other test runs clean ops.
    tests: list[tuple[str, str]] = []
    per_violation = 2
    slots = {i * n_tests // (len(violations) * per_violation): v
             for i, v in enumerate(v for v in violations for _ in range(per_violation))}
    for i in range(n_tests):
        tid = f"t{i:03d}_{names('', 4)}"
        a = rng.choice(clean["a"])
        b = rng.choice(clean["b"])
        cmd = f"./bin/tool_a {a} {names.const()} >/dev/null && ./bin/tool_b {b} {names.const()} >/dev/null"
        v = slots.get(i)
        if v is not None:
            tool = v.binary[-1]
            other = f"./bin/tool_{'b' if tool == 'a' else 'a'} {clean['b' if tool == 'a' else 'a'][0]} 7"
            cmd = f"./{v.binary} {v.op} {names.const()} >/dev/null && {other} >/dev/null"
            v.test_ids.append(tid)
        tests.append((tid, cmd))
    w.write("tests/list.tsv", _test_list(tests))
    w.write("runtests.sh", "#!/bin/sh\ncat tests/list.tsv\n")
    rules = []
    for tool, files in link.items():
        srcs = " ".join(files)
        rules.append(
            f"bin/tool_{tool}: {srcs} include/cfi_model.h\n"
            f"\t@mkdir -p bin\n\t$(CC) $(CFLAGS) -Iinclude -o $@ {srcs} $(LDFLAGS)\n"
        )
    w.write(
        "Makefile",
        "CC ?= cc\nCFLAGS ?=\nLDFLAGS ?=\n\nall: bin/tool_a bin/tool_b\n\n"
        + "\n".join(rules)
        + "\nclean:\n\trm -rf bin\n\n.PHONY: all clean\n",
    )
    return Spec(
        workload="suite_fanout", seed=seed,
        build_cmd=_wrapped_make(python, wrapper, "all"), clean_cmd="make -s clean",
        test_cmd="sh runtests.sh", executables=["bin/tool_a", "bin/tool_b"],
        cfi_variants=["cfi-icall"], violations=violations, census=w.census,
        call_sites=sum(w.sites.values()), sources=sorted(w.sources),
    )


# --------------------------------------------------------------------------


def _vendored_c(names: Names, calls: list[str], defines: list[str], n_funcs: int) -> str:
    """Source of a file outside the build: plain functions, optional API calls."""
    out = ["#include <stddef.h>\n\n"]
    out += [f"int {c}(int);\n" for c in calls]
    out.append("\n")
    for name in defines:
        out.append(f"int {name}(int x) {{ return x ^ 0x5a; }}\n\n")
    for i in range(n_funcs):
        fn = names("vnd_", 8)
        use = f" + {calls[i % len(calls)]}(x)" if calls else ""
        out.append(
            f"static int {fn}(int x) {{\n"
            f"    int acc = x;\n"
            f"    for (size_t i = 0; i < {names.const()}; i++)\n"
            f"        acc = (acc * 31 + (int)i) % {names.const()};\n"
            f"    return acc{use};\n}}\n\n"
        )
    return "".join(out)


def wide_tree(root: Path, seed: int, python: str, wrapper: Path, scale: float = 1.0) -> Spec:
    """Two shared libraries and an executable inside a large, mostly unbuilt tree."""
    rng = random.Random(f"wide_tree:{seed}")
    names = Names(rng)
    w = ProjectWriter(root)
    w.write("include/cfi_model.h", MODEL_HEADER)
    n_lib_files, per_file = 6, 4
    n_vendor = max(40, int(600 * scale))
    ir_mb = 8.0 * scale

    def lib_unit(rel: str, fns: list[str], calls: dict[str, list[str]], ir_rel: str) -> None:
        ir = IrModule()
        protos = sorted({c for cs in calls.values() for c in cs})
        code = '#include "cfi_model.h"\n\ntypedef int (*int_fn)(int);\n\n'
        code += "".join(f"int {p}(int);\n" for p in protos) + "\n"
        for fn in fns:
            extra = "".join(f" + {c}(x)" for c in calls.get(fn, []))
            ir.function(f"{fn}_ok")
            ir.function(fn, fp=1, stores=1)
            code += (
                f"static int {fn}_ok(int x) {{ return x * 5 + {names.const()}; }}\n"
                f"static volatile int_fn {fn}_slot;\n"
                f"int {fn}(int x) {{\n"
                f"    {fn}_slot = {fn}_ok;\n"
                f"    CFI_CHECK(CFI_OFF_icall__{fn}, {fn}_slot != {fn}_ok);\n"
                f"    return ({fn}_slot(x){extra}) % 100000;\n}}\n\n"
            )
        w.write(rel, code)
        w.ir(ir_rel, ir)
        w.linked(ir)

    bar = [[names("bar_") for _ in range(per_file)] for _ in range(n_lib_files)]
    foo = [[names("foo_") for _ in range(per_file)] for _ in range(n_lib_files)]
    bar_flat = [f for fs in bar for f in fs]
    foo_flat = [f for fs in foo for f in fs]
    # foo uses half of bar (the first link failure); the app uses half of
    # foo plus bar functions foo never needed (the failure behind it).
    bar_for_foo = bar_flat[: len(bar_flat) // 2]
    bar_for_app = bar_flat[len(bar_flat) // 2 : len(bar_flat) // 2 + 4]
    foo_for_app = foo_flat[::2]
    bar_files = []
    for i, fns in enumerate(bar):
        rel = f"lib/bar/bar_{i:02d}.c"
        lib_unit(rel, fns, {}, f"ir/lib/bar_{i:02d}.ll")
        bar_files.append(rel)
    foo_files = []
    for i, fns in enumerate(foo):
        calls = {fn: [bar_for_foo[(i * per_file + j) % len(bar_for_foo)]] for j, fn in enumerate(fns)}
        rel = f"lib/foo/foo_{i:02d}.c"
        lib_unit(rel, fns, calls, f"ir/lib/foo_{i:02d}.ll")
        foo_files.append(rel)
    app_fns = [names("app_") for _ in range(len(foo_for_app))]
    app_files = []
    for i in range(0, len(app_fns), per_file):
        chunk = app_fns[i : i + per_file]
        calls = {fn: [foo_for_app[i + j]] for j, fn in enumerate(chunk)}
        for j, fn in enumerate(chunk):
            if i + j < len(bar_for_app):
                calls[fn].append(bar_for_app[i + j])
        rel = f"app/app_{i // per_file:02d}.c"
        lib_unit(rel, chunk, calls, f"ir/app/app_{i // per_file:02d}.ll")
        app_files.append(rel)
    main_ir = IrModule()
    w.write("app/main.c", _c_main(app_fns, main_ir, names("dispatch_")))
    w.ir("ir/app/main.ll", main_ir)
    w.linked(main_ir)
    app_files.insert(0, "app/main.c")

    # The unbuilt bulk: vendored packages and examples that call the API, a
    # few vendored copies of library functions (ambiguous definitions that
    # sort after the real ones), and 8 MB of textual IR.
    n_pkgs = 12
    copies = {7: bar_for_foo[0], 11: bar_for_foo[1], 13: bar_for_foo[2]}
    for i in range(n_vendor):
        pkg = f"vendor/pkg{i % n_pkgs:02d}" if i % 5 else "examples"
        calls = [foo_flat[i % len(foo_flat)], bar_flat[i % len(bar_flat)]] if i % 3 == 0 else []
        defines = [copies[i]] if i in copies else []
        w.write(f"{pkg}/{names('f', 8)}.c", _vendored_c(names, calls, defines, 14))
    _ir_bulk(w, names, ir_mb)

    tests = [(f"t{i}_{names('', 4)}", f"./bin/app {app_fns[i * 3 % len(app_fns)]} {names.const()} >/dev/null")
             for i in range(4)]
    w.write("tests/list.tsv", _test_list(tests))
    w.write("runtests.sh", "#!/bin/sh\ncat tests/list.tsv\n")
    bar_s, foo_s, app_s = " ".join(bar_files), " ".join(foo_files), " ".join(app_files)
    w.write(
        "Makefile",
        "CC ?= cc\nCFLAGS ?=\nLDFLAGS ?=\n\nall: bin/app\n\n"
        f"lib/libbar.so: {bar_s}\n\t$(CC) $(CFLAGS) -Iinclude -fPIC -shared -o $@ {bar_s} $(LDFLAGS)\n\n"
        "# --no-undefined makes libfoo's hidden references fail at this link.\n"
        f"lib/libfoo.so: {foo_s} lib/libbar.so\n"
        f"\t$(CC) $(CFLAGS) -Iinclude -fPIC -shared -o $@ {foo_s} -Wl,--no-undefined -Llib -lbar $(LDFLAGS)\n\n"
        f"bin/app: {app_s} lib/libfoo.so\n\t@mkdir -p bin\n"
        f"\t$(CC) $(CFLAGS) -Iinclude -o $@ {app_s} -Llib -lfoo -lbar -Wl,-rpath,'$$ORIGIN/../lib' $(LDFLAGS)\n\n"
        "clean:\n\trm -rf bin lib/libfoo.so lib/libbar.so\n\n.PHONY: all clean\n",
    )
    return Spec(
        workload="wide_tree", seed=seed,
        build_cmd=_wrapped_make(python, wrapper, "all"), clean_cmd="make -s clean",
        test_cmd="sh runtests.sh", executables=["bin/app", "lib/libfoo.so", "lib/libbar.so"],
        cfi_variants=["cfi-icall"], violations=[], census=w.census,
        call_sites=sum(w.sites.values()), sources=sorted(w.sources),
    )


# --------------------------------------------------------------------------


def _mangle(parts: list[str], params: str = "i", const: bool = False) -> str:
    """Itanium mangled name of a nested name (two or more plain identifiers)."""
    inner = "".join(f"{len(p)}{p}" for p in parts)
    return f"_ZN{'K' if const else ''}{inner}E{params}"


def _cxx_namespace(ns: str, names: Names, n_classes: int, role: str | None, ir: IrModule) -> tuple[str, str, tuple, list[str]]:
    """Source of one namespace file; returns (source, entry, chain, mangled chain)."""
    q = ["app", ns]
    shape = names("Shape", 4)
    classes = [names("K", 6) for _ in range(n_classes)]
    out = [
        '#include "cfi_model.h"\n\n',
        "namespace app {\nnamespace " + ns + " {\n\n",
        "typedef int (*int_fn)(int);\n\n",
        f"struct {shape} {{\n    int tag;\n    explicit {shape}(int t) : tag(t) {{}}\n"
        "    virtual int area(int x) const = 0;\n    virtual int edges(int x) const = 0;\n"
        f"    virtual ~{shape}() {{}}\n}};\n\n",
    ]
    for i, cls in enumerate(classes):
        out.append(
            f"struct {cls} : {shape} {{\n    {cls}() : {shape}({i + 1}) {{}}\n"
            f"    int area(int x) const override;\n    int edges(int x) const override;\n}};\n"
            f"int {cls}::area(int x) const {{ return x * {names.const()}; }}\n"
            f"int {cls}::edges(int x) const {{ return x + {names.const()}; }}\n\n"
        )
        ir.function(_mangle(q + [cls, "area"], const=True))
        ir.function(_mangle(q + [cls, "edges"], const=True))
    tally = names("tally", 4)
    tally_m = _mangle(q + [tally])
    objs = "".join(f"    {cls} o{i};\n" for i, cls in enumerate(classes))
    refs = ", ".join(f"&o{i}" for i in range(n_classes))
    out.append(
        f"{NOINLINE} int {tally}(int x) {{\n{objs}"
        f"    const {shape} *all[] = {{{refs}}};\n    int acc = 0;\n"
        f"    for (const {shape} *s : all) {{\n"
        f"        CFI_CHECK(CFI_OFF_vcall__{tally_m}, s->tag <= 0);\n"
        "        acc += s->area(x) % 97 + s->edges(x) % 89;\n    }\n    return acc;\n}\n\n"
    )
    ir.function(tally_m, virtual=2 * n_classes, switches=1)
    entry = names("entry", 4)
    mid = names("mid", 4)
    entry_m, mid_m = _mangle(q + [entry]), _mangle(q + [mid])
    chain: tuple = ()
    mangled: list[str] = []
    bad = (
        "static int ok_fn(int x) { return x + 1; }\n"
        "static int bad_fn(int x, int y) { return x - y; }  /* wrong type on purpose */\n"
        "static volatile int_fn slot;\n\n"
    )
    if role == "icall":
        route = names("route", 4)
        route_m = _mangle(q + [route])
        out.append(
            bad
            + f"{NOINLINE} int {route}(int x) {{\n    slot = reinterpret_cast<int_fn>(bad_fn);\n"
            f"    CFI_CHECK(CFI_OFF_icall__{route_m}, slot != ok_fn);\n    return slot(x);\n}}\n\n"
            f"{NOINLINE} int {mid}(int x) {{ return {route}(x) + 1; }}\n\n"
        )
        ir.function(route_m, fp=1, stores=1)
        chain = (f"app::{ns}::{route}(int)", f"app::{ns}::{mid}(int)", f"app::{ns}::{entry}(int)")
        mangled = [route_m, mid_m, entry_m]
    elif role == "vcall":
        visitor = names("Visit", 4)
        visit_m = _mangle(q + [visitor, "visit"])
        out.append(
            f"class {visitor} {{\npublic:\n    explicit {visitor}(const {shape} *s) : shape_(s) {{}}\n"
            f"    int visit(int x);\nprivate:\n    const {shape} *shape_;\n}};\n\n"
            f"{NOINLINE} int {visitor}::visit(int x) {{\n"
            f"    CFI_CHECK(CFI_OFF_vcall__{visit_m}, shape_->tag != 1);\n"
            "    return shape_->area(x);\n}\n\n"
            f"{NOINLINE} int {mid}(int x) {{\n    {classes[1]} wrong;\n"
            f"    {visitor} v(&wrong);\n    return v.visit(x) + 1;\n}}\n\n"
        )
        ir.function(visit_m, virtual=1)
        chain = (f"app::{ns}::{visitor}::visit(int)", f"app::{ns}::{mid}(int)", f"app::{ns}::{entry}(int)")
        mangled = [visit_m, mid_m, entry_m]
    elif role == "renamed":
        step = names("step", 4)
        step_m = f"_ZL{len(step)}{step}i"
        out.insert(1, "typedef int (*int_fn)(int);\n" + bad
                   + f'static int {step}(int x) __asm__("{step_m}.1");\n'
                   f"{NOINLINE} static int {step}(int x) {{\n"
                   "    slot = reinterpret_cast<int_fn>(bad_fn);\n"
                   f"    CFI_CHECK(CFI_OFF_icall__{step_m}, slot != ok_fn);\n    return slot(x);\n}}\n\n")
        out.append(f"{NOINLINE} int {mid}(int x) {{ return {step}(x) + 1; }}\n\n")
        ir.function(step_m + ".1", fp=1, stores=1)
        chain = (f"{step}(int) [clone .1]", f"app::{ns}::{mid}(int)", f"app::{ns}::{entry}(int)")
        mangled = [step_m + ".1", mid_m, entry_m]
    else:
        out.append(f"{NOINLINE} int {mid}(int x) {{ return {tally}(x) + 1; }}\n\n")
    out.append(f"{NOINLINE} int {entry}(int x) {{ return {mid}(x) + {tally}(x) % 3; }}\n\n")
    out.append("}  // namespace " + ns + "\n}  // namespace app\n")
    ir.function(mid_m)
    ir.function(entry_m)
    return "".join(out), f"app::{ns}::{entry}", chain, mangled


SUPPORT_CPP = """\
// Pulls operator new/delete, RTTI and exception handling out of the static
// libstdc++, as real C++ code does.
namespace app {
namespace support {

struct Failure { int code; };
struct Base { virtual ~Base() {} virtual int kind() const { return 1; } };
struct Derived : Base { int kind() const override { return 2; } };

__attribute__((noinline)) int probe(int x) {
    Base *b = x > 0 ? static_cast<Base *>(new Derived) : new Base;
    int r = dynamic_cast<Derived *>(b) ? 2 : 1;
    delete b;
    try {
        if (x < -1000000)
            throw Failure{x};
    } catch (const Failure &f) {
        r += f.code;
    }
    return r;
}

}  // namespace support
}  // namespace app
"""


def cxx_static(root: Path, seed: int, python: str, wrapper: Path, scale: float = 1.0) -> Spec:
    """A C++ program with static libstdc++ and a plugin library behind hidden visibility."""
    rng = random.Random(f"cxx_static:{seed}")
    names = Names(rng)
    w = ProjectWriter(root)
    w.write("include/cfi_model.h", MODEL_HEADER)
    n_ns = 6
    n_classes = max(2, int(10 * scale))
    roles = ["icall", "vcall", "renamed"] + [None] * (n_ns - 3)
    rungs_for = {"icall": 0, "vcall": 0, "renamed": 3}
    namespaces = [names("n", 5) for _ in range(n_ns)]
    entries: list[str] = []
    violations: list[ModelledViolation] = []
    sources = ["src/main.cpp", "src/support.cpp"]
    for ns, role in zip(namespaces, roles):
        ir = IrModule()
        text, entry, chain, mangled = _cxx_namespace(ns, names, n_classes, role, ir)
        rel = f"src/{ns}.cpp"
        w.write(rel, text)
        w.ir(f"ir/{ns}.ll", ir)
        w.linked(ir)
        sources.append(rel)
        entries.append(entry)
        if role is not None:
            violations.append(
                ModelledViolation(
                    vid=ns, rung=rungs_for[role], binary="bin/app", test_ids=[],
                    chain=chain, chain_files=(rel, rel),
                    rungs=[f"fun:{m}" for m in mangled] + [f"src:{rel}", f"src:{rel}"],
                    op=ns,
                )
            )
    support_ir = IrModule()
    support_ir.function(_mangle(["app", "support", "probe"]), virtual=1)
    w.write("src/support.cpp", SUPPORT_CPP)
    w.ir("ir/support.ll", support_ir)
    w.linked(support_ir)

    plug = [names("scale", 4), names("bias", 4)]
    plug_ir = IrModule()
    for fn in plug:
        plug_ir.function(_mangle(["app", "plug", fn]))
    w.write(
        "plug/plugin.cpp",
        "namespace app {\nnamespace plug {\n\n"
        + "".join(f"int {fn}(int x) {{ return x * {names.const()} % 1000; }}\n" for fn in plug)
        + "\n}  // namespace plug\n}  // namespace app\n",
    )
    w.ir("ir/plugin.ll", plug_ir)

    run = names("run", 6)
    run_m = f"_ZL{len(run)}{run}PKciPi"
    main_ir = IrModule()
    main_ir.function(run_m, lowered=1, switches=1)
    main_ir.function("main")
    w.linked(main_ir)
    decls = "".join(
        f"namespace app {{ namespace {e.split('::')[1]} {{ int {e.split('::')[2]}(int); }} }}\n"
        for e in entries
    ) + "".join(f"namespace app {{ namespace plug {{ int {fn}(int); }} }}\n" for fn in plug)
    decls += "namespace app { namespace support { int probe(int); } }\n"
    ops = [(e.split("::")[1], e) for e in entries]
    table = "".join(f'    {{"{op}", {fn}}},\n' for op, fn in ops)
    w.write(
        "src/main.cpp",
        '#include "cfi_model.h"\n\n'
        'extern "C" int printf(const char *, ...);\nextern "C" int atoi(const char *);\n'
        'extern "C" int strcmp(const char *, const char *);\n\n'
        + decls
        + "\nstruct Op { const char *name; int (*fn)(int); };\n\n"
        + "static const Op OPS[] = {\n" + table + "};\n\n"
        + f"{NOINLINE} static int {run}(const char *name, int x, int *found) {{\n"
        + "    for (const Op &op : OPS) {\n"
        + "        if (strcmp(op.name, name) != 0)\n            continue;\n"
        + "        *found = 1;\n"
        + f"        CFI_CHECK(CFI_OFF_icall__{run_m}, op.fn == nullptr);\n"
        + "        return op.fn(x);\n    }\n    return 0;\n}\n\n"
        + "int main(int argc, char **argv) {\n"
        + "    int found = 0;\n"
        + "    if (argc < 3)\n        return 2;\n"
        + "    int x = atoi(argv[2]);\n"
        + f"    int r = {run}(argv[1], x, &found) + app::support::probe(x)"
        + "".join(f" + app::plug::{fn}(x)" for fn in plug) + ";\n"
        + '    printf("%d\\n", r);\n'
        + "    return found ? 0 : 1;\n}\n",
    )
    w.ir("ir/main.ll", main_ir)
    _ir_bulk(w, names, 2.0 * scale)

    tests: list[tuple[str, str]] = []
    for i, (op, _) in enumerate(ops):
        tid = f"t{i}_{names('', 4)}"
        tests.append((tid, f"./bin/app {op} {names.const()} >/dev/null"))
        for v in violations:
            if v.op == op:
                v.test_ids.append(tid)
    w.write("tests/list.tsv", _test_list(tests))
    w.write("runtests.sh", "#!/bin/sh\ncat tests/list.tsv\n")
    srcs = " ".join(sources)
    w.write(
        "Makefile",
        "CXX ?= c++\nCXXFLAGS ?=\nLDFLAGS ?=\n\nall: bin/app\n\n"
        "lib/libplug.so: plug/plugin.cpp\n\t@mkdir -p lib\n"
        "\t$(CXX) $(CXXFLAGS) -fPIC -shared -o $@ plug/plugin.cpp -static-libstdc++ $(LDFLAGS)\n\n"
        "# --no-demangle: the linker reports hidden C++ symbols by their mangled names.\n"
        f"bin/app: {srcs} lib/libplug.so include/cfi_model.h\n\t@mkdir -p bin\n"
        f"\t$(CXX) $(CXXFLAGS) -Iinclude -o $@ {srcs} -Llib -lplug -static-libstdc++ "
        "-Wl,--no-demangle -Wl,-rpath,'$$ORIGIN/../lib' $(LDFLAGS)\n\n"
        "clean:\n\trm -rf bin lib\n\n.PHONY: all clean\n",
    )
    return Spec(
        workload="cxx_static", seed=seed,
        build_cmd=_wrapped_make(python, wrapper, "all"), clean_cmd="make -s clean",
        test_cmd="sh runtests.sh", executables=["bin/app"],
        cfi_variants=["cfi-icall", "cfi-vcall"], violations=violations, census=w.census,
        call_sites=sum(w.sites.values()), sources=sorted(w.sources),
    )


GENERATORS = {"suite_fanout": suite_fanout, "wide_tree": wide_tree, "cxx_static": cxx_static}
