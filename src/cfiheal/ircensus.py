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

A call instruction is one whose opcode, the first word of the instruction
after an optional tail/musttail/notail, is call or invoke; an operand named
%call is no call. For call instructions the buckets are tested in the order
virtual, lowered, fp; a callee that is a direct @function reference (even
through a constant bitcast) is no site at all. Only register-to-instruction
chains within one function body are followed; phi, select and integer
round-trips are opaque and classify as fp_calls.

The parser is line-oriented and assumes compiler-emitted textual IR (one
instruction per line). It walks a module's lines once, in order, and holds
only the current function's: module facts (function names, code-pointer
tables, module asm) are gathered on the way, and the few sites that need a
fact found later are settled when the module ends. So a module's lines can
be streamed from its file (``read_ir_lines``). Lines that look like call
sites but defeat the grammar are skipped and reported through the optional
diagnostics sink rather than being silently miscounted.

Each line is parsed once, fast forms first: one regex each matches the
call (through a register or direct), load, getelementptr and store shapes
compilers emit (plain names, flat operands, no quote or bracket where it
could move a comma), and any line they do not match goes to the general
parser, the only fallback, which gives the same result on every line.
"""

from __future__ import annotations

import io
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO


@dataclass(frozen=True, slots=True)
class IrSiteCensus:
    fp_calls: int = 0
    virtual_calls: int = 0
    callback_stores: int = 0
    jt_switch: int = 0
    jt_lowered: int = 0
    inline_asm: int = 0

    def __add__(self, other: "IrSiteCensus") -> "IrSiteCensus":
        return IrSiteCensus.sum_of((self, other))

    def total(self) -> int:
        return sum(_values(self))

    def as_dict(self) -> dict[str, int]:
        return dict(zip(_FIELDS, _values(self)))

    @staticmethod
    def sum_of(censuses: Iterable["IrSiteCensus"]) -> "IrSiteCensus":
        """The field-by-field sum of censuses, in one pass."""
        return IrSiteCensus(*map(sum, zip(*map(_values, censuses))))


_FIELDS = tuple(f.name for f in fields(IrSiteCensus))
_values = attrgetter(*_FIELDS)

_TOKEN = re.compile(r"[%@][-\w.$]+|[%@]\"[^\"]*\"")
_DEFINE = re.compile(r"^define\b[^@]*@([-\w.$]+|\"[^\"]*\")\s*\(")
_DECLARE = re.compile(r"^declare\b[^@]*@([-\w.$]+|\"[^\"]*\")\s*\(")
# Heads of "@name = ..." and "%name = ..." lines; the rest of the line is the right-hand side.
_GLOBAL = re.compile(r"@([-\w.$]+|\"[^\"]*\")\s*=\s*")
_ASSIGN = re.compile(r"%([-\w.$]+|\"[^\"]*\")\s*=\s*")
# A call is recognized by its opcode, at the start of the right-hand side.
_CALL_OP = re.compile(r"(?:(?:tail|musttail|notail)\s+)?(?:call|invoke)\b")
# Every instruction the walk counts starts with one of these.
_SITE_OPS = ("call", "invoke", "tail", "musttail", "notail", "store ", "switch ", "indirectbr ")
_OPENERS = {"(": ")", "[": "]", "{": "}", "<": ">"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}
# What _split_top stops at: a quoted run (to its closing quote or the end), a bracket or a comma.
_SPLIT_STOP = re.compile(r'"[^"]*"?|[,()\[\]{}<>]')
# A top-level piece whose brackets nest one level deep and hold no quote:
# plain text, quoted runs and bracketed groups, up to a depth-zero comma.
_FLAT_PIECE = r'[^",()\[\]{}<>]*(?:(?:"[^"]*"|[(\[{<][^"()\[\]{}<>]*[)\]}>])[^",()\[\]{}<>]*)*'
_FLAT_SECOND = re.compile(_FLAT_PIECE + ",(" + _FLAT_PIECE + r")(?:,|\Z)")
# What _callee_token stops at: a quoted run, a %/@ token, an "asm" word or a bracket.
_CALLEE_STOP = re.compile(r'"[^"]*"?|[%@](?:[-\w.$]+|"[^"]*")|(?<![^\W_])asm(?![\w$.])|[()\[\]{}<>]')
_ARGS_OPEN = re.compile(r"[ \t]*\(")
# The common call tail: plain words, the callee, a flat argument list, then no bracket or quote.
_PLAIN_CALLEE = re.compile(
    r'[^"%@()\[\]{}<>]*([%@][-\w.$]+)[ \t]*\([^"()\[\]{}<>]*\)[^"()\[\]{}<>]*'
)
# Fast forms: one match each for the shapes compilers emit. A line none of
# them matches takes the general path, which gives the same result on it.
# "[%r = ][tail ]call <words> %callee(<flat args>)<flat tail>": the call tail
# is one _PLAIN_CALLEE, whose callee is a register or, for a direct call, an
# @ name. The walk tries it only on lines holding "call" and no "asm".
_FAST_CALL = re.compile(
    r'(?:%[-\w.$]+ = )?(?:tail )?call [^"%@()\[\]{}<>]*'
    r'([%@][-\w.$]+)[ \t]*\([^"()\[\]{}<>]*\)[^"()\[\]{}<>]*'
)
# "load <words>, ptr <token>" and "getelementptr <words> [<n x ty>], ptr <token>",
# then a comma or the end: a flat first piece, and a second piece that is ptr and
# one token, so the token is that piece's last value token.
_FAST_DEF = re.compile(
    r'(load|getelementptr)[^",()\[\]{}<>]*(?:\[[^",()\[\]{}<>]*\][^",()\[\]{}<>]*)?'
    r', ptr ([%@](?:[-\w.$]+|"[^"]*"))(?:,|\Z)'
)
# "store <words> [@name]," : a flat value piece whose only @ token, if any, ends it.
# A quoted name holds no space, so the general path's "volatile " removal leaves it whole.
_FAST_STORE = re.compile(r'store [^"@,()\[\]{}<>]*?(@[-\w.$]+|@"[^" ]*")?,')
# The assignment lines of the scope's pending lines joined by "\n": _ASSIGN at
# each line start, with whitespace that never crosses a line.
_ASSIGNS = re.compile(r'^%([-\w.$]+|"[^"\n]*")[^\S\n]*=[^\S\n]*(.*)', re.M)


def _split_top(text: str) -> list[str]:
    """Split on commas at bracket depth zero; quotes are respected."""
    parts: list[str] = []
    depth = 0
    start = 0
    for m in _SPLIT_STOP.finditer(text):
        ch = text[m.start()]
        if ch == ",":
            if depth == 0:
                parts.append(text[start : m.start()].strip())
                start = m.end()
        elif ch in _OPENERS:
            depth += 1
        elif ch in _CLOSERS:
            depth -= 1
    tail = text[start:].strip()
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


def _callee_token(rest: str) -> str | None:
    """The callee of a call/invoke tail, 'asm' for inline asm, None if direct-less.

    Scans at bracket depth zero for the last %/@ token immediately followed
    by its argument list. Constant-expression callees (bitcast of a direct
    reference) produce no depth-zero token, which is correct: they are
    direct calls.
    """
    if "asm" not in rest:  # then a plain tail's one token before "(" is the callee
        plain = _PLAIN_CALLEE.fullmatch(rest)
        if plain:
            return plain.group(1)
    depth = 0
    callee: str | None = None
    for m in _CALLEE_STOP.finditer(rest):
        ch = rest[m.start()]
        if ch in "%@":
            if depth == 0 and _ARGS_OPEN.match(rest, m.end()):
                callee = m.group()
        elif ch == "a":
            if depth == 0:
                return "asm"
        elif ch in _OPENERS:
            depth += 1
        elif ch in _CLOSERS:
            depth = max(0, depth - 1)
    return callee


def _second_piece(text: str) -> str:
    """_split_top(text)[1], or "" if there is no second piece."""
    flat = _FLAT_SECOND.match(text)
    if flat:
        return flat.group(1).strip()
    pieces = _split_top(text)
    return pieces[1] if len(pieces) >= 2 else ""


def _parse_def(rhs: str) -> tuple[str, str | None]:
    """(kind, operand) of a register's defining instruction.

    The operand of a load is its pointer, that of a getelementptr its base:
    the last value token of the second top-level piece (a constant-expression
    pointer names its first global). Leading getelementptr keywords sit in
    the first piece and so never change the second.
    """
    fast = _FAST_DEF.match(rhs)
    if fast:
        op, token = fast.groups()
        if op == "getelementptr":
            return "gep", token
        if "getelementptr" not in token:  # else the general path takes its first global
            return "load", token
    if rhs.startswith("load"):
        pointer = _second_piece(rhs[len("load") :])
        if "getelementptr" in pointer:
            return "load", _first_global_token(pointer)
        return "load", _last_value_token(pointer)
    if rhs.startswith("getelementptr"):
        return "gep", _last_value_token(_second_piece(rhs[len("getelementptr") :]))
    if rhs.startswith(("bitcast", "addrspacecast")):
        return "alias", _last_value_token(rhs.split(" to ")[0])
    return "opaque", None


def _stored_value(store: str) -> tuple[set[str], bool]:
    """The @ names in a store's value operand, and whether it takes a blockaddress."""
    fast = _FAST_STORE.match(store)
    if fast:
        ref = fast.group(1)
        return ({ref[1:].strip('"')} if ref else set()), False
    pieces = _split_top(store[len("store ") :].replace("volatile ", "", 1))
    value = pieces[0] if pieces else ""
    refs = {t[1:].strip('"') for t in _TOKEN.findall(value) if t.startswith("@")}
    return refs, "blockaddress(" in value.replace(" ", "")


class _FunctionScope:
    """Register definitions of the function body currently being scanned.

    The walk hands the scope each of the body's lines that start with "%".
    Definitions are recorded lazily: a classification first records the lines
    handed since the last one, the call's own line included, so it sees what
    recording every line in order would show, and a definition is parsed
    only when a classification follows it.
    """

    def __init__(self) -> None:
        self.pending: list[str] = []
        self.defs: dict[str, str | tuple[str, str | None]] = {}

    def record(self) -> None:
        """Record the assignments of the pending lines as raw right-hand sides."""
        for name, rhs in _ASSIGNS.findall("\n".join(self.pending)):
            self.defs[name.strip('"')] = rhs
        self.pending.clear()

    def _def(self, reg: str) -> tuple[str, str | None]:
        reg = reg.strip('"')  # %"vf" and %vf name the same register
        found = self.defs.get(reg)
        if found is None:
            return "opaque", None
        if isinstance(found, str):
            found = self.defs[reg] = _parse_def(found)
        return found

    def _resolve(self, token: str | None, hops: int = 8) -> tuple[str | None, str, str | None]:
        """The token reached by following up to `hops` bitcasts, and its definition.

        The definition is ("opaque", None) unless the token reached is a register.
        """
        while token and token.startswith("%"):
            kind, operand = self._def(token[1:])
            if kind != "alias" or not hops:
                return token, kind, operand
            token, hops = operand, hops - 1
        return token, "opaque", None

    def classify_callee(self, callee: str) -> str:
        """The category of an indirect callee register: virtual_calls or fp_calls.

        A callee loaded from a global, directly or through getelementptrs,
        gives that global's name instead, "@" included: the call is
        jt_lowered if the global is a code-pointer table, fp_calls if not.
        """
        token, kind, pointer = self._resolve(callee)
        if not token or not token.startswith("%") or kind != "load":
            return "fp_calls"
        pointer, pkind, pbase = self._resolve(pointer)
        if pointer is None:
            return "fp_calls"
        if pointer.startswith("@"):
            return pointer
        seen_gep = 0
        while pkind == "gep" and seen_gep < 8:
            base, pkind, pbase = self._resolve(pbase)
            if base is None:
                return "fp_calls"
            if base.startswith("@"):
                return base
            seen_gep += 1
        return "virtual_calls" if pkind == "load" else "fp_calls"


def census(
    ir_text: str | Iterable[str], diagnostics: list[tuple[int, str]] | None = None
) -> IrSiteCensus:
    """Whole-module census; see the module docstring for the category rules."""
    return IrSiteCensus.sum_of(census_by_function(ir_text, diagnostics).values())


def census_by_function(
    ir_text: str | Iterable[str], diagnostics: list[tuple[int, str]] | None = None
) -> dict[str, IrSiteCensus]:
    """Per-function census of a module's text or of its lines, as str.splitlines gives them.

    Module-level sites land under the empty name.
    """
    lines = ir_text.splitlines() if isinstance(ir_text, str) else ir_text
    return {name: IrSiteCensus(**counts) for name, counts in _walk(lines, diagnostics).items()}


def read_ir_lines(source: Path | BinaryIO, block_size: int = 1 << 16) -> Iterator[str]:
    """The lines of a file's text as str.splitlines gives them, read a block at a time.

    `source` is the file's path or a binary reader open on it, which is
    closed once read. The text is UTF-8 with undecodable bytes replaced, as
    ``bytes.decode("utf-8", errors="replace")`` gives it. A block is cut
    after its last "\n", which always ends a line; the rest is carried into
    the next block, and a line longer than a block is joined once it ends.
    """
    binary = open(source, "rb") if isinstance(source, (str, os.PathLike)) else source
    with io.TextIOWrapper(binary, encoding="utf-8", errors="replace", newline="") as handle:
        carry: list[str] = []
        while block := handle.read(block_size):
            cut = block.rfind("\n") + 1
            if cut:
                yield from ("".join(carry) + block[:cut]).splitlines()
                carry.clear()
            carry.append(block[cut:])
        yield from "".join(carry).splitlines()


def _walk(
    lines: Iterable[str], diagnostics: list[tuple[int, str]] | None
) -> dict[str, dict[str, int]]:
    """Site counts by category, per function name ('' for module scope), in one pass.

    Module facts (function names, code-pointer tables, module asm) are
    gathered from every line as the walk reads it. A store whose value names
    an @ and a call through a pointer loaded from a global need facts that
    may come later in the module; each is counted at once if the facts read
    so far settle it, and held with its function until the module ends if
    not. Only functions closed by a "}" line count.
    """
    functions: set[str] = set()
    tables: set[str] = set()
    maybe_tables: list[tuple[str, set[str]]] = []  # globals naming no function seen yet
    held: list[tuple[str, list[set[str]], list[str]]] = []  # (function, stores, loads) to settle
    tally: dict[str, dict[str, int]] = {"": dict.fromkeys(_FIELDS, 0)}
    current: str | None = None
    scope = _FunctionScope()
    counts = dict.fromkeys(_FIELDS, 0)
    late_stores: list[set[str]] = []  # names stored, none of them a function yet
    late_loads: list[str] = []  # globals called through, none of them a table yet

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        first = line[0]
        if first == "%":
            if current is None:
                continue
            scope.pending.append(line)
            if "call" in line:
                fast = "asm" not in line and _FAST_CALL.fullmatch(line)
                callee = fast.group(1) if fast else None
                if callee and callee[0] == "@":
                    continue  # direct call, not a site
            elif "invoke" in line or "store " in line or "switch " in line or "indirectbr " in line:
                callee = None
            else:
                continue  # not a site; scope.record reads its assignment if a call needs it
            if callee is None:
                assign = _ASSIGN.match(line)
                body = line[assign.end() :] if assign else line
        elif first == "@":
            # A table's right-hand side refers to a function (an @) or takes a blockaddress(,
            # so a line with neither a "(" nor a second "@" is no table.
            m = ("(" in line or line.find("@", 1) > 0) and _GLOBAL.match(line)
            if m:
                rhs = line[m.end() :]
                if ("constant" in rhs or "global" in rhs) and ("@" in rhs or "(" in rhs):
                    name = m.group(1).strip('"')
                    refs = {t[1:].strip('"') for t in _TOKEN.findall(rhs) if t.startswith("@")}
                    if "blockaddress(" in rhs.replace(" ", "") or (refs & functions):
                        tables.add(name)
                    elif refs:
                        maybe_tables.append((name, refs))
            continue
        elif first == "d":
            m = _DEFINE.match(line)
            if m:
                name = m.group(1).strip('"')
                functions.add(name)
                if current is None and line.endswith("{"):
                    current = name
                    scope = _FunctionScope()
                    counts = dict.fromkeys(_FIELDS, 0)
                    late_stores, late_loads = [], []
            else:
                m = _DECLARE.match(line)
                if m:
                    functions.add(m.group(1).strip('"'))
            continue
        elif first == "m" and line.startswith("module asm"):
            tally[""]["inline_asm"] += 1
            continue
        elif current is None:
            continue
        elif first == "}" and line == "}":
            settled = tally.get(current)
            if settled is None:
                tally[current] = counts
            else:
                for key, count in counts.items():
                    settled[key] += count
            if late_stores or late_loads:
                held.append((current, late_stores, late_loads))
            current = None
            continue
        else:
            body = line  # comments included: no site opcode starts with ";"
            fast = "call " in line and "asm" not in line and _FAST_CALL.fullmatch(line)
            callee = fast.group(1) if fast else None
            if callee and callee[0] == "@":
                continue  # direct call, not a site

        if callee is None:
            if not body.startswith(_SITE_OPS):
                continue
            if body.startswith("switch "):
                counts["jt_switch"] += 1
                continue
            if body.startswith("indirectbr "):
                counts["jt_lowered"] += 1
                continue
            if body.startswith("store "):
                value_refs, blockaddress = _stored_value(body)
                if blockaddress or (value_refs & functions):
                    counts["callback_stores"] += 1
                elif value_refs:
                    late_stores.append(value_refs)
                continue

            m = _CALL_OP.match(body)
            if not m:
                continue
            rest = body[m.end():]
            callee = _callee_token(rest)
            if callee == "asm":
                counts["inline_asm"] += 1
                continue
            if callee is None:
                if "(" not in rest and diagnostics is not None:
                    diagnostics.append((lineno, "call instruction without an argument list"))
                continue
            if callee.startswith("@"):
                continue  # direct call, not a site

        scope.record()
        site = scope.classify_callee(callee)
        if not site.startswith("@"):
            counts[site] += 1
        elif site[1:].strip('"') in tables:
            counts["jt_lowered"] += 1
        else:
            late_loads.append(site[1:].strip('"'))

    tables.update(name for name, refs in maybe_tables if refs & functions)
    for name, stores, loads in held:
        settled = tally[name]
        settled["callback_stores"] += sum(1 for refs in stores if refs & functions)
        for table in loads:
            settled["jt_lowered" if table in tables else "fp_calls"] += 1
    return tally
