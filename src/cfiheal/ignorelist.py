"""Sanitizer ignorelist bookkeeping and its on-disk rendering.

Entry kinds map one-to-one onto ladder rung families: ``fun:`` entries come
from function-granular rungs (0..2), ``src:`` entries from file-granular
rungs (3..4). The rendered file is the exact text handed to the compiler via
-fsanitize-ignorelist=, so rendering is deterministic: active entries only,
sorted by kind then pattern, one entry per line, no comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable


class LadderLevel(IntEnum):
    """Escalation rungs, narrowest scope first."""

    CALLEE_FUNCTION = 0        # fun: the function containing the fault
    CALLER_FUNCTION = 1        # fun: its direct caller
    CALLERS_CALLER_FUNCTION = 2  # fun: the caller's caller
    CALLEE_SOURCE = 3          # src: the fault function's translation unit
    CALLER_SOURCE = 4          # src: the caller's translation unit
    UNRESOLVABLE = 5           # no effective suppression found

    @property
    def short(self) -> str:
        return f"L{int(self)}"


FUN_LEVELS = frozenset(
    {LadderLevel.CALLEE_FUNCTION, LadderLevel.CALLER_FUNCTION, LadderLevel.CALLERS_CALLER_FUNCTION}
)
SRC_LEVELS = frozenset({LadderLevel.CALLEE_SOURCE, LadderLevel.CALLER_SOURCE})


class EntryKind(Enum):
    FUN = "fun"
    SRC = "src"


@dataclass(frozen=True)
class IgnorelistEntry:
    """One suppression line plus the violations that motivated it."""

    kind: EntryKind
    pattern: str
    origin_violations: tuple[str, ...] = ()
    level: LadderLevel = LadderLevel.CALLEE_FUNCTION
    active: bool = True

    def __post_init__(self) -> None:
        if not self.pattern or self.pattern != self.pattern.strip():
            raise ValueError(f"ignorelist pattern must be non-empty and trimmed: {self.pattern!r}")
        # Kind and rung family must agree; a fun: entry cannot claim a src rung.
        if self.kind is EntryKind.FUN and self.level not in FUN_LEVELS:
            raise ValueError(f"fun: entry with non-function level {self.level.short}")
        if self.kind is EntryKind.SRC and self.level not in SRC_LEVELS:
            raise ValueError(f"src: entry with non-source level {self.level.short}")

    @property
    def line(self) -> str:
        return f"{self.kind.value}:{self.pattern}"

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind.value, self.pattern)


def render(entries: Iterable[IgnorelistEntry]) -> str:
    """Render active entries in deterministic order (fun: block, then src:)."""
    active = [e for e in entries if e.active]
    seen: dict[tuple[str, str], IgnorelistEntry] = {}
    for entry in active:
        seen.setdefault(entry.key, entry)
    lines = [e.line for e in sorted(seen.values(), key=lambda e: (e.kind.value, e.pattern))]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def parse(text: str) -> list[IgnorelistEntry]:
    """Parse rendered ignorelist text back into structural entries.

    Parsing recovers kind and pattern only; provenance (origins, exact rung)
    is not stored in the file format, so parsed entries carry the lowest rung
    of the matching family. Blank lines and #-comments are tolerated on input
    even though render never emits them.
    """
    entries: list[IgnorelistEntry] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        prefix, sep, pattern = line.partition(":")
        if not sep or not pattern.strip():
            raise ValueError(f"ignorelist line {lineno}: malformed entry {rawline!r}")
        if prefix == "fun":
            entries.append(IgnorelistEntry(EntryKind.FUN, pattern.strip()))
        elif prefix == "src":
            entries.append(
                IgnorelistEntry(EntryKind.SRC, pattern.strip(), level=LadderLevel.CALLEE_SOURCE)
            )
        else:
            raise ValueError(f"ignorelist line {lineno}: unknown entry kind {prefix!r}")
    return entries


def merge(
    existing: Iterable[IgnorelistEntry], new: Iterable[IgnorelistEntry]
) -> list[IgnorelistEntry]:
    """Union by (kind, pattern); origins accumulate, an active side wins."""
    merged: dict[tuple[str, str], IgnorelistEntry] = {}
    for entry in list(existing) + list(new):
        cur = merged.get(entry.key)
        if cur is None:
            merged[entry.key] = entry
            continue
        origins = cur.origin_violations + tuple(
            v for v in entry.origin_violations if v not in cur.origin_violations
        )
        merged[entry.key] = replace(cur, origin_violations=origins, active=cur.active or entry.active)
    return sorted(merged.values(), key=lambda e: (e.kind.value, e.pattern))


@dataclass
class IgnorelistStore:
    """The live entry set plus its on-disk mirror.

    The file must reflect the active set before any instrumented build; the
    pipeline calls write() after every mutation and before every rebuild.
    """

    path: Path
    entries: dict[tuple[str, str], IgnorelistEntry] = field(default_factory=dict)

    def add(self, entry: IgnorelistEntry) -> IgnorelistEntry:
        cur = self.entries.get(entry.key)
        if cur is not None:
            origins = cur.origin_violations + tuple(
                v for v in entry.origin_violations if v not in cur.origin_violations
            )
            entry = replace(cur, origin_violations=origins, active=True, level=entry.level)
        self.entries[entry.key] = entry
        return entry

    def retire(self, kind: EntryKind, pattern: str) -> None:
        key = (kind.value, pattern)
        cur = self.entries.get(key)
        if cur is not None:
            self.entries[key] = replace(cur, active=False)

    def get(self, kind: EntryKind, pattern: str) -> IgnorelistEntry | None:
        return self.entries.get((kind.value, pattern))

    def active_entries(self) -> list[IgnorelistEntry]:
        return sorted(
            (e for e in self.entries.values() if e.active),
            key=lambda e: (e.kind.value, e.pattern),
        )

    def render(self) -> str:
        return render(self.entries.values())

    def write(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(self.render())
