"""Escalation ladder: one violation at a time toward a minimal suppression.

Each violation owns an independent ladder position. Rungs, narrowest first:

  0  fun: the function containing the fault PC (the indirect-call check
     itself lives in that function's body)
  1  fun: the function that called it (first unwound return address)
  2  fun: the caller's caller (second unwound return address)
  3  src: the fault function's source file
  4  src: the caller's source file
  5  unresolvable: nothing suppressed the trap

A rung is skipped, never guessed, and records why in skipped_levels:

  identity unavailable    no return address captured, no symbol at the
                          frame's address (a stripped binary), or no debug
                          info for a file rung
  outside the project     a frame in a binary outside the project, which the
                          symbolizer leaves unresolved, or a file rung whose
                          source the symbolizer spells absolute, outside the
                          project; the project's build compiles neither
  link-time name          a fun: rung whose enforcement name ends in
                          ".<digits>" (".__uniq.<n>" aside): a link-time
                          collision suffix, which no compile-time name carries
  no CFI check in scope   the engine's holds_no_check predicate says the
                          rung's entry cannot change the build: an entry
                          turns off only the checks in the bodies it names,
                          and there are none. heal() builds the predicate
                          from the IR census and the binaries' DWARF; the
                          engine asks it only of a rung no reason above skips
  same entry as L<k>      the rung's line is one this violation already
                          tried at rung k, e.g. a caller in the callee's file

Per-entry minimality is the invariant: an entry stays in the final
ignorelist only if the violation it serves still trapped at every narrower
rung that was available.

Function patterns are enforcement names: the symbol table's (mangled, for
C++) spelling with LLVM's ".cfi"/".cfi_jt" clone suffixes and ".llvm.<id>"
promotion suffixes stripped, because compile time ignorelist matching sees
the mangled IR spelling. Link-time collision suffixes such as ".1" are kept
verbatim in names and keys; a fun: entry carrying one can never match at
compile time, so its rung is skipped and a renamed file-local function
climbs straight to its caller's rungs.

A violation is keyed by where its check is in the source: (binary,
enforcement name of the fault function, DWARF file, line of the fault PC).
An ignorelist entry shifts the code after it, so a check that traps again
after a rebuild may do so at a new address; its function, file and line stay.
Without a file and line the key falls back to (binary, static fault address).
A second test tripping the same check merges into the existing violation,
which keeps the first fault address it saw. Two checks on one source line of
one function share a key, as two checks sharing one trap site share an
address.

The ignorelist is computed, never set. A violation's claim is the entry of
the rung it holds: its current rung once tried, while Open or Fixed; an
Unresolvable violation holds none. The list is the distinct claims, so an
entry that no violation holds any more leaves it, and one that two
violations hold stays while either does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

from .ignorelist import FUN_LEVELS, EntryKind, IgnorelistEntry, LadderLevel
from .symbols import Confidence, SymbolInfo
from .tracing import TrapEvent

_CLONE_SUFFIX = re.compile(r"\.(?:cfi(?:_jt)?|llvm\.\d+)$")
# A link-time collision suffix; clang's ".__uniq.<n>" is part of the IR name.
_LINK_TIME_SUFFIX = re.compile(r"(?<!\.__uniq)\.\d+$")


def enforcement_name(function: str) -> str:
    """Mangled IR spelling of a possibly compiler-decorated function name."""
    name = function
    while True:
        stripped = _CLONE_SUFFIX.sub("", name)
        if stripped == name or not stripped:
            return name
        name = stripped


def link_time_suffix(name: str) -> str:
    """The ".<digits>" collision suffix the linker gave `name`, or "" if it has none."""
    found = _LINK_TIME_SUFFIX.search(name)
    return found.group() if found else ""


class Fault(NamedTuple):
    """A symbolized trap: its binary, static fault address and frames (None = unknown)."""

    binary: Path
    static_pc: int
    callee: SymbolInfo | None
    caller: SymbolInfo | None
    callers_caller: SymbolInfo | None

    @property
    def frames(self) -> tuple[SymbolInfo | None, SymbolInfo | None, SymbolInfo | None]:
        """The fault function's frame, then its caller's and its caller's caller's."""
        return self.callee, self.caller, self.callers_caller

    @property
    def key(self) -> tuple[str | int, ...]:
        """The violation identity: the check's source site, else the fault address."""
        callee = self.callee
        if callee is not None and callee.source_file is not None and callee.line is not None:
            return (str(self.binary), enforcement_name(callee.function), callee.source_file, callee.line)
        return (str(self.binary), self.static_pc)


class ViolationStatus(Enum):
    OPEN = "Open"
    FIXED = "Fixed"
    UNRESOLVABLE = "Unresolvable"


@dataclass
class Violation:
    """One distinct CFI policy violation and its ladder state."""

    id: str
    fault: Fault
    trap: TrapEvent
    test_ids: tuple[str, ...]
    ladder_level: LadderLevel = LadderLevel.CALLEE_FUNCTION
    status: ViolationStatus = ViolationStatus.OPEN
    attempted: list[tuple[LadderLevel, IgnorelistEntry]] = field(default_factory=list)
    skipped_levels: list[tuple[LadderLevel, str]] = field(default_factory=list)

    @property
    def claim(self) -> IgnorelistEntry | None:
        """The ignorelist entry this violation holds: its current rung's, once tried."""
        if self.status is ViolationStatus.UNRESOLVABLE or not self.attempted:
            return None
        level, entry = self.attempted[-1]
        return entry if level == self.ladder_level else None


class EscalationEngine:
    """Owns all violations of a run; the ignorelist is their claims."""

    def __init__(
        self,
        holds_no_check: Callable[[Violation, IgnorelistEntry], bool] = lambda v, entry: False,
    ):
        # Whether a violation's rung on an ignorelist entry cannot change the build.
        self.holds_no_check = holds_no_check
        self.violations: dict[tuple[str | int, ...], Violation] = {}

    def all_violations(self) -> list[Violation]:
        return list(self.violations.values())

    def open_violations(self) -> list[Violation]:
        return [v for v in self.all_violations() if v.status is ViolationStatus.OPEN]

    def entries(self) -> list[IgnorelistEntry]:
        """The ignorelist: the violations' distinct claims, sorted by line."""
        claims = {v.claim for v in self.violations.values()} - {None}
        return sorted(claims, key=lambda entry: entry.line)

    def observe(self, trap: TrapEvent, fault: Fault, test_id: str) -> tuple[Violation, bool]:
        """Register a trap; returns (violation, is_new). Duplicates merge."""
        existing = self.violations.get(fault.key)
        if existing is not None:
            if test_id not in existing.test_ids:
                existing.test_ids = existing.test_ids + (test_id,)
            return existing, False
        violation = Violation(f"V{len(self.violations) + 1}", fault, trap, (test_id,))
        self.violations[fault.key] = violation
        return violation, True

    def _scope(
        self, violation: Violation, level: LadderLevel
    ) -> tuple[IgnorelistEntry, None] | tuple[None, str]:
        """The entry the violation asks for at a rung, or the reason the frame gives to skip it.

        Function rungs 0..2 name frames 0..2; file rungs 3..4 name the files of frames 0..1.
        """
        fun = level in FUN_LEVELS
        info = violation.fault.frames[level if fun else level - LadderLevel.CALLEE_SOURCE]
        if info is not None and info.confidence is Confidence.OUTSIDE_PROJECT:
            return None, "outside the project"
        if not fun:
            # The symbolizer spells a project file relative to the project root.
            if info is None or info.source_file is None:
                return None, "identity unavailable"
            if Path(info.source_file).is_absolute():
                return None, "outside the project"
            return IgnorelistEntry(EntryKind.SRC, info.source_file), None
        if info is None:
            return None, "identity unavailable"
        name = enforcement_name(info.function)
        if link_time_suffix(name):
            return None, "link-time name"
        return IgnorelistEntry(EntryKind.FUN, name), None

    def next_scope(self, violation: Violation) -> IgnorelistEntry | None:
        """Advance to the next available rung; None finalizes Unresolvable."""
        if violation.status is not ViolationStatus.OPEN:
            return None
        level = violation.ladder_level
        tried = {entry: tried_level for tried_level, entry in violation.attempted}
        while level < LadderLevel.UNRESOLVABLE:
            entry, reason = self._scope(violation, level)
            if reason is None and self.holds_no_check(violation, entry):
                reason = "no CFI check in scope"
            if reason is None and entry in tried:
                reason = f"same entry as {tried[entry].short}"
            if reason is None:
                violation.ladder_level = level
                violation.attempted.append((level, entry))
                return entry
            violation.skipped_levels.append((level, reason))
            level = LadderLevel(level + 1)
        violation.ladder_level = LadderLevel.UNRESOLVABLE
        violation.status = ViolationStatus.UNRESOLVABLE
        return None

    def record_outcome(self, violation: Violation, trap_recurred: bool) -> Violation:
        """Apply a re-test result to the violation's current rung."""
        if not trap_recurred:
            violation.status = ViolationStatus.FIXED
        elif violation.ladder_level < LadderLevel.CALLER_SOURCE:
            violation.ladder_level = LadderLevel(violation.ladder_level + 1)
        else:
            violation.ladder_level = LadderLevel.UNRESOLVABLE
            violation.status = ViolationStatus.UNRESOLVABLE
        return violation

    def reopen(self, violation: Violation) -> bool:
        """A Fixed violation trapped again: it is Open again and climbs one rung.

        Returns True if the violation is open again, False if the climb made
        it Unresolvable.
        """
        violation.status = ViolationStatus.OPEN
        self.record_outcome(violation, trap_recurred=True)
        return violation.status is ViolationStatus.OPEN

    def counts(self) -> dict[str, int]:
        total = len(self.violations)
        fixed = sum(1 for v in self.violations.values() if v.status is ViolationStatus.FIXED)
        unresolved = sum(
            1 for v in self.violations.values() if v.status is ViolationStatus.UNRESOLVABLE
        )
        return {
            "total": total,
            "fixed": fixed,
            "unresolvable": unresolved,
            "open": total - fixed - unresolved,
        }
