"""Indirect-transfer census over textual LLVM IR.

Category rules (each site lands in exactly one bucket):

  virtual_calls    indirect call whose callee came from the double-load
                   vtable idiom: load a table pointer, optionally index it,
                   load the slot, call the result.
  jt_lowered       indirect call whose callee was loaded from a constant
                   code-pointer table global, plus every ``indirectbr``.
  fp_calls         any other indirect call through a register value that is
                   not provably a direct function reference.
  callback_stores  stores whose value operand takes the address of a known
                   function (or a blockaddress).
  jt_switch        ``switch`` instructions.
  inline_asm       call-form inline asm sites plus module-level asm lines,
                   each counted once.

For call instructions the buckets are tested in the order virtual, lowered,
fp; a callee that is a direct @function reference (even through a constant
bitcast) is no site at all. Only register-to-instruction chains within one
function body are followed; phi, select and integer round-trips are opaque
and classify as fp_calls.

The parser is line-oriented and assumes compiler-emitted textual IR (one
instruction per line). Lines that look like call sites but defeat the
grammar are skipped and reported through the optional diagnostics sink
rather than being silently miscounted.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class IrSiteCensus:
    fp_calls: int = 0
    virtual_calls: int = 0
    callback_stores: int = 0
    jt_switch: int = 0
    jt_lowered: int = 0
    inline_asm: int = 0

    def __add__(self, other: "IrSiteCensus") -> "IrSiteCensus":
        return IrSiteCensus(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(IrSiteCensus))
        )

    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(IrSiteCensus))

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(IrSiteCensus)}


def total_sites(counts: IrSiteCensus) -> int:
    """Sum of all six categories; the project-level indirect-site total."""
    return counts.total()


_TOKEN = re.compile(r"[%@][-\w.$]+|[%@]\"[^\"]*\"")
_DEFINE = re.compile(r"^define\b[^@]*@([-\w.$]+|\"[^\"]*\")\s*\(")
_DECLARE = re.compile(r"^declare\b[^@]*@([-\w.$]+|\"[^\"]*\")\s*\(")
_GLOBAL = re.compile(r"^@([-\w.$]+|\"[^\"]*\")\s*=\s*(.*)$")
_ASSIGN = re.compile(r"^%([-\w.$]+|\"[^\"]*\")\s*=\s*(.*)$")
_CALL_KW = re.compile(r"\b(?:tail\s+|musttail\s+|notail\s+)?(call|invoke)\b")
_OPENERS = {"(": ")", "[": "]", "{": "}", "<": ">"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}


def _split_top(text: str) -> list[str]:
    """Split on commas at bracket depth zero; quotes are respected."""
    parts: list[str] = []
    depth = 0
    buf: list[str] = []
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


def _last_value_token(text: str) -> str | None:
    matches = _TOKEN.findall(text)
    return matches[-1] if matches else None


def _first_global_token(text: str) -> str | None:
    for token in _TOKEN.findall(text):
        if token.startswith("@"):
            return token
    return None


def _callee_token(rest: str) -> str | None | str:
    """The callee of a call/invoke tail, 'asm' for inline asm, None if direct-less.

    Scans at bracket depth zero for the last %/@ token immediately followed
    by its argument list. Constant-expression callees (bitcast of a direct
    reference) produce no depth-zero token, which is correct: they are
    direct calls.
    """
    depth = 0
    in_quote = False
    i = 0
    callee: str | None = None
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


def _pointer_operand(defn: str, keyword: str) -> str | None:
    """Pointer operand of a load/store-like instruction body."""
    body = defn.split(keyword, 1)[1]
    pieces = _split_top(body)
    if len(pieces) < 2:
        return None
    ptr_piece = pieces[1]
    if "getelementptr" in ptr_piece:
        return _first_global_token(ptr_piece)
    return _last_value_token(ptr_piece)


def _gep_base(defn: str) -> str | None:
    body = defn.split("getelementptr", 1)[1]
    for kw in ("inbounds", "inrange", "nusw", "nuw"):
        body = body.replace(kw, " ", 1) if body.lstrip().startswith(kw) else body
    pieces = _split_top(body)
    if len(pieces) < 2:
        return None
    return _last_value_token(pieces[1])


class _FunctionScope:
    """Register definitions of the function body currently being scanned."""

    def __init__(self) -> None:
        self.defs: dict[str, tuple[str, str | None]] = {}

    def record(self, reg: str, rhs: str) -> None:
        stripped = rhs.lstrip()
        if stripped.startswith("load"):
            self.defs[reg] = ("load", _pointer_operand(rhs, "load"))
        elif stripped.startswith("getelementptr"):
            self.defs[reg] = ("gep", _gep_base(rhs))
        elif stripped.startswith("bitcast") or stripped.startswith("addrspacecast"):
            operand = _last_value_token(stripped.split(" to ")[0])
            self.defs[reg] = ("alias", operand)
        else:
            self.defs[reg] = ("opaque", None)

    def _resolve_alias(self, token: str | None, hops: int = 8) -> str | None:
        while token and token.startswith("%") and hops:
            kind, operand = self.defs.get(token[1:], ("", None))
            if kind != "alias":
                break
            token = operand
            hops -= 1
        return token

    def classify_callee(self, callee: str, tables: set[str]) -> str:
        """The category of an indirect callee register: virtual_calls, jt_lowered or fp_calls."""
        token = self._resolve_alias(callee)
        if not token or not token.startswith("%"):
            return "fp_calls"
        kind, pointer = self.defs.get(token[1:], ("opaque", None))
        if kind != "load":
            return "fp_calls"
        pointer = self._resolve_alias(pointer)
        if pointer is None:
            return "fp_calls"
        if pointer.startswith("@"):
            return "jt_lowered" if pointer[1:].strip('"') in tables else "fp_calls"
        if pointer.startswith("%"):
            pkind, pbase = self.defs.get(pointer[1:], ("opaque", None))
            seen_gep = 0
            while pkind == "gep" and seen_gep < 8:
                base = self._resolve_alias(pbase)
                if base is None:
                    return "fp_calls"
                if base.startswith("@"):
                    return "jt_lowered" if base[1:].strip('"') in tables else "fp_calls"
                pkind, pbase = self.defs.get(base[1:], ("opaque", None))
                seen_gep += 1
            if pkind == "load":
                return "virtual_calls"
        return "fp_calls"


def _collect_module_facts(lines: list[str]) -> tuple[set[str], set[str], int]:
    """Function names, code-pointer-table globals, module-asm line count."""
    functions: set[str] = set()
    for line in lines:
        stripped = line.strip()
        m = _DEFINE.match(stripped) or _DECLARE.match(stripped)
        if m:
            functions.add(m.group(1).strip('"'))
    tables: set[str] = set()
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


def census(
    ir_text: str, diagnostics: list[tuple[int, str]] | None = None
) -> IrSiteCensus:
    """Whole-module census; see the module docstring for the category rules."""
    return sum(census_by_function(ir_text, diagnostics).values(), IrSiteCensus())


def census_by_function(
    ir_text: str, diagnostics: list[tuple[int, str]] | None = None
) -> dict[str, IrSiteCensus]:
    """Per-function census; module-level sites land under the empty name."""
    return {name: IrSiteCensus(**counts) for name, counts in _walk(ir_text, diagnostics).items()}


def _walk(ir_text: str, diagnostics: list[tuple[int, str]] | None) -> dict[str, Counter]:
    """Site counts by category, per function name ('' for module scope)."""
    lines = ir_text.splitlines()
    functions, tables, module_asm = _collect_module_facts(lines)

    tally: dict[str, Counter] = {"": Counter(inline_asm=module_asm)}
    current: str | None = None
    scope = _FunctionScope()
    counts: Counter = Counter()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        if current is None:
            m = _DEFINE.match(line)
            if m and line.rstrip().endswith("{"):
                current = m.group(1).strip('"')
                scope = _FunctionScope()
                counts = Counter()
            continue
        if line == "}":
            tally.setdefault(current, Counter()).update(counts)
            current = None
            continue

        rhs = line
        assign = _ASSIGN.match(line)
        reg = None
        if assign:
            reg, rhs = assign.group(1).strip('"'), assign.group(2)
            scope.record(reg, rhs)

        body = rhs.lstrip()
        if body.startswith("switch "):
            counts["jt_switch"] += 1
            continue
        if body.startswith("indirectbr "):
            counts["jt_lowered"] += 1
            continue
        if body.startswith("store "):
            pieces = _split_top(body[len("store "):].replace("volatile ", "", 1))
            if pieces:
                value_refs = {
                    t[1:].strip('"') for t in _TOKEN.findall(pieces[0]) if t.startswith("@")
                }
                if "blockaddress(" in pieces[0].replace(" ", "") or (value_refs & functions):
                    counts["callback_stores"] += 1
            continue

        m = _CALL_KW.search(rhs)
        if not m:
            continue
        rest = rhs[m.end():]
        callee = _callee_token(rest)
        if callee == "asm":
            counts["inline_asm"] += 1
        elif callee is None:
            if "(" not in rest and diagnostics is not None:
                diagnostics.append((lineno, "call instruction without an argument list"))
        elif callee.startswith("@"):
            pass  # direct call, not a site
        else:
            counts[scope.classify_callee(callee, tables)] += 1

    return tally
