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

  identity unavailable    no return address captured, no debug info for a
                          file rung
  no CFI check in scope   a fun: rung whose function the IR census defines
                          with no checkable site in any definition; an entry
                          turns off only the checks in the named function's
                          body, so it cannot change the build (src: rungs
                          and names the census does not define are tried)
  same entry as L<k>      the rung's line is one this violation already
                          tried at rung k, e.g. a caller in the callee's file

Per-entry minimality is the invariant: an entry stays in the final
ignorelist only if the violation it serves still trapped at every narrower
rung that was available.

Function patterns are enforcement names: LLVM's ".cfi"/".cfi_jt" clone
suffixes and ".llvm.<id>" promotion suffixes are stripped because compile
time ignorelist matching sees the source-level spelling. Link-time collision
suffixes such as ".1" are kept verbatim; they can never match at compile
time, which is precisely what justifies escalating past function rungs for
renamed file-local functions.

A violation is keyed by where its check is in the source: (binary,
enforcement name of the fault function, DWARF file, line of the fault PC).
An ignorelist entry shifts the code after it, so a check that traps again
after a rebuild may do so at a new address; its function, file and line stay.
Without a file and line the key falls back to (binary, static fault address).
A second test tripping the same check merges into the existing violation,
which keeps the first fault address it saw. Two checks on one source line of
one function share a key, as two checks sharing one trap site share an
address.

The ignorelist is derived, never edited. A violation's claim is the rung it
holds: its current rung once tried, while Open or Fixed; an Unresolvable
violation holds none. After every state change the engine sets the store's
entries to the claims, each naming the violations that hold it, so an entry
that no violation holds any more leaves the list, and one that two
violations hold stays while either does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .ignorelist import (
    FUN_LEVELS,
    EntryKind,
    IgnorelistEntry,
    IgnorelistStore,
    LadderLevel,
)
from .symbols import SymbolInfo
from .tracing import TrapEvent

_CLONE_SUFFIX = re.compile(r"\.(?:cfi(?:_jt)?|llvm\.\d+)$")


def enforcement_name(function: str) -> str:
    """Source-level spelling of a possibly compiler-decorated function name."""
    name = function
    while True:
        stripped = _CLONE_SUFFIX.sub("", name)
        if stripped == name or not stripped:
            return name
        name = stripped


ViolationKey = tuple[str | int, ...]


def violation_key(binary: Path, static_fault_pc: int, callee: SymbolInfo | None) -> ViolationKey:
    """A trap's violation identity: its check's source site, else its fault address."""
    if callee is not None and callee.source_file is not None and callee.line is not None:
        return (str(binary), enforcement_name(callee.function), callee.source_file, callee.line)
    return (str(binary), static_fault_pc)


class ViolationStatus(Enum):
    OPEN = "Open"
    FIXED = "Fixed"
    UNRESOLVABLE = "Unresolvable"


@dataclass
class Violation:
    """One distinct CFI policy violation and its ladder state."""

    id: str
    binary: Path
    static_fault_pc: int
    trap: TrapEvent
    callee: SymbolInfo | None
    caller: SymbolInfo | None
    callers_caller: SymbolInfo | None
    test_ids: tuple[str, ...]
    ladder_level: LadderLevel = LadderLevel.CALLEE_FUNCTION
    status: ViolationStatus = ViolationStatus.OPEN
    attempted: list[tuple[LadderLevel, str]] = field(default_factory=list)
    skipped_levels: list[tuple[LadderLevel, str]] = field(default_factory=list)

    @property
    def key(self) -> ViolationKey:
        return violation_key(self.binary, self.static_fault_pc, self.callee)

    @property
    def fixed_level(self) -> LadderLevel | None:
        return self.ladder_level if self.status is ViolationStatus.FIXED else None

    @property
    def claim(self) -> tuple[LadderLevel, str] | None:
        """(rung, ignorelist line) this violation holds: its current rung once tried."""
        if self.status is ViolationStatus.UNRESOLVABLE or not self.attempted:
            return None
        level, line = self.attempted[-1]
        return (level, line) if level == self.ladder_level else None

    @property
    def test_id(self) -> str:
        return self.test_ids[0]


def _relative_file(info: SymbolInfo | None, project_root: Path) -> str | None:
    if info is None or info.source_file is None:
        return None
    path = Path(info.source_file)
    if path.is_absolute():
        try:
            resolved_root = project_root.resolve()
            return str(path.resolve().relative_to(resolved_root))
        except ValueError:
            return str(path)
    return str(path)


class EscalationEngine:
    """Owns all violations of a run; the store's entries are their claims."""

    def __init__(
        self, store: IgnorelistStore, project_root: Path, check_free: frozenset[str] = frozenset()
    ):
        self.store = store
        self.project_root = project_root
        # Function names whose fun: rung cannot change the build.
        self.check_free = check_free
        self.violations: dict[ViolationKey, Violation] = {}

    def all_violations(self) -> list[Violation]:
        return list(self.violations.values())

    def open_violations(self) -> list[Violation]:
        return [v for v in self.all_violations() if v.status is ViolationStatus.OPEN]

    def observe(
        self,
        trap: TrapEvent,
        binary: Path,
        static_fault_pc: int,
        callee: SymbolInfo | None,
        caller: SymbolInfo | None,
        callers_caller: SymbolInfo | None,
        test_id: str,
    ) -> tuple[Violation, bool]:
        """Register a trap; returns (violation, is_new). Duplicates merge."""
        key = violation_key(binary, static_fault_pc, callee)
        existing = self.violations.get(key)
        if existing is not None:
            if test_id not in existing.test_ids:
                existing.test_ids = existing.test_ids + (test_id,)
            return existing, False
        violation = Violation(
            id=f"V{len(self.violations) + 1}",
            binary=binary,
            static_fault_pc=static_fault_pc,
            trap=trap,
            callee=callee,
            caller=caller,
            callers_caller=callers_caller,
            test_ids=(test_id,),
        )
        self.violations[key] = violation
        return violation, True

    def _scope(self, violation: Violation, level: LadderLevel) -> tuple[str, str | None]:
        """(entry kind, pattern) the violation asks for at a rung; pattern None if unknown."""
        if level in FUN_LEVELS:
            # Function rungs 0..2 name the fault frame and its two callers, in order.
            info = (violation.callee, violation.caller, violation.callers_caller)[level]
            return EntryKind.FUN.value, enforcement_name(info.function) if info else None
        info = violation.callee if level is LadderLevel.CALLEE_SOURCE else violation.caller
        return EntryKind.SRC.value, _relative_file(info, self.project_root)

    def _derive_entries(self) -> None:
        """Set the store's entries to the claims, each naming the violations that hold it."""
        entries: dict[tuple[str, str], IgnorelistEntry] = {}
        for violation in self.violations.values():
            if violation.claim is None:
                continue
            level, line = violation.claim
            kind_value, pattern = line.split(":", 1)
            held = entries.get((kind_value, pattern))
            entries[kind_value, pattern] = (
                replace(held, origin_violations=held.origin_violations + (violation.id,))
                if held is not None
                else IgnorelistEntry(EntryKind(kind_value), pattern, (violation.id,), level)
            )
        self.store.entries = entries

    def next_scope(self, violation: Violation) -> IgnorelistEntry | None:
        """Advance to the next available rung; None finalizes Unresolvable."""
        if violation.status is not ViolationStatus.OPEN:
            return None
        level = violation.ladder_level
        tried = {line: tried_level for tried_level, line in violation.attempted}
        while level < LadderLevel.UNRESOLVABLE:
            kind_value, pattern = self._scope(violation, level)
            line = f"{kind_value}:{pattern}"
            if pattern is None:
                reason = "identity unavailable"
            elif level in FUN_LEVELS and pattern in self.check_free:
                reason = "no CFI check in scope"
            elif line in tried:
                reason = f"same entry as {tried[line].short}"
            else:
                violation.ladder_level = level
                violation.attempted.append((level, line))
                self._derive_entries()
                return self.store.entries[kind_value, pattern]
            violation.skipped_levels.append((level, reason))
            level = LadderLevel(level + 1)
        violation.ladder_level = LadderLevel.UNRESOLVABLE
        violation.status = ViolationStatus.UNRESOLVABLE
        self._derive_entries()
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
        self._derive_entries()
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
