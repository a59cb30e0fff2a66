"""Escalation ladder: one violation at a time toward a minimal suppression.

Each violation owns an independent ladder position. Rungs, narrowest first:

  0  fun: the function containing the fault PC (the indirect-call check
     itself lives in that function's body)
  1  fun: the function that called it (first unwound return address)
  2  fun: the caller's caller (second unwound return address)
  3  src: the fault function's source file
  4  src: the caller's source file
  5  unresolvable: nothing suppressed the trap

A rung whose identity is unknown (no return address captured, no debug info
for a file rung) is skipped, never guessed. Per-entry minimality is the
invariant: an entry stays in the final ignorelist only if the violation it
serves still trapped at every narrower rung that was available.

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
address. When two open violations resolve to the same pattern they share
one entry and are re-tested together; outcome bookkeeping keeps a shared
entry alive while any of its claimants still needs it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
    fixed_level: LadderLevel | None = None
    attempted: list[tuple[LadderLevel, str]] = field(default_factory=list)
    skipped_levels: list[tuple[LadderLevel, str]] = field(default_factory=list)

    @property
    def key(self) -> ViolationKey:
        return violation_key(self.binary, self.static_fault_pc, self.callee)

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
    """Owns all violations of a run and their shared ignorelist store."""

    def __init__(self, store: IgnorelistStore, project_root: Path):
        self.store = store
        self.project_root = project_root
        self.violations: dict[ViolationKey, Violation] = {}
        self._pending: dict[ViolationKey, tuple[str, str]] = {}

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

    def _claim(self, violation: Violation, level: LadderLevel) -> tuple[str, str | None]:
        """(entry kind, pattern) the violation asks for at a rung; pattern None if unknown."""
        if level in FUN_LEVELS:
            # Function rungs 0..2 name the fault frame and its two callers, in order.
            info = (violation.callee, violation.caller, violation.callers_caller)[level]
            return EntryKind.FUN.value, enforcement_name(info.function) if info else None
        info = violation.callee if level is LadderLevel.CALLEE_SOURCE else violation.caller
        return EntryKind.SRC.value, _relative_file(info, self.project_root)

    def next_scope(self, violation: Violation) -> IgnorelistEntry | None:
        """Advance to the next available rung; None finalizes Unresolvable."""
        if violation.status is not ViolationStatus.OPEN:
            return None
        level = violation.ladder_level
        while level < LadderLevel.UNRESOLVABLE:
            kind_value, pattern = self._claim(violation, level)
            if pattern is None:
                violation.skipped_levels.append((level, "identity unavailable"))
                level = LadderLevel(level + 1)
                continue
            violation.ladder_level = level
            violation.attempted.append((level, f"{kind_value}:{pattern}"))
            entry = self.store.add(
                IgnorelistEntry(EntryKind(kind_value), pattern, (violation.id,), level)
            )
            self._pending[violation.key] = (kind_value, pattern)
            return entry
        violation.ladder_level = LadderLevel.UNRESOLVABLE
        violation.status = ViolationStatus.UNRESOLVABLE
        self._retire_claims(violation)
        self._pending.pop(violation.key, None)
        return None

    def record_outcome(self, violation: Violation, trap_recurred: bool) -> Violation:
        """Apply a re-test result to the violation's current rung."""
        pending = self._pending.pop(violation.key, None)
        if not trap_recurred:
            violation.status = ViolationStatus.FIXED
            violation.fixed_level = violation.ladder_level
            return violation
        if pending is not None:
            self._release(*pending)
        if violation.ladder_level < LadderLevel.UNRESOLVABLE:
            violation.ladder_level = LadderLevel(violation.ladder_level + 1)
        if violation.ladder_level is LadderLevel.UNRESOLVABLE:
            violation.status = ViolationStatus.UNRESOLVABLE
            self._retire_claims(violation)
        return violation

    def reopen(self, violation: Violation) -> bool:
        """A Fixed violation trapped again: release its entry and climb one rung.

        Returns True if the violation is open again, False if the climb made
        it Unresolvable.
        """
        claim = self._claim(violation, violation.fixed_level)
        violation.status = ViolationStatus.OPEN
        violation.fixed_level = None
        self._release(*claim)
        self.record_outcome(violation, trap_recurred=True)
        return violation.status is ViolationStatus.OPEN

    def _claimants(self, kind_value: str, pattern: str) -> list[Violation]:
        """Violations that still need an entry: fixed at it, or pending on it."""
        holders: list[Violation] = []
        for other in self.all_violations():
            if other.status is ViolationStatus.FIXED and other.fixed_level is not None:
                if self._claim(other, other.fixed_level) == (kind_value, pattern):
                    holders.append(other)
                    continue
            if self._pending.get(other.key) == (kind_value, pattern):
                holders.append(other)
        return holders

    def _release(self, kind_value: str, pattern: str) -> None:
        """Retire an entry unless some violation still claims it."""
        if not self._claimants(kind_value, pattern):
            self.store.retire(EntryKind(kind_value), pattern)

    def _retire_claims(self, violation: Violation) -> None:
        """Drop every entry this violation motivated that nobody else needs."""
        for _, line in violation.attempted:
            self._release(*line.split(":", 1))

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
