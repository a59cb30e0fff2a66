"""Sanitizer ignorelist bookkeeping and its on-disk rendering.

Entry kinds map one-to-one onto ladder rung families: ``fun:`` entries come
from function-granular rungs (0..2), ``src:`` entries from file-granular
rungs (3..4). The rendered file is the exact text handed to the compiler via
-fsanitize-ignorelist=, so rendering is deterministic: sorted by kind then
pattern, one entry per line, no duplicates, no comments. No list is stored:
the escalation engine computes it from the rungs its violations hold, so
every entry in it is live.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
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


class EntryKind(Enum):
    FUN = "fun"
    SRC = "src"


@dataclass(frozen=True)
class IgnorelistEntry:
    """One suppression line: its kind and its pattern."""

    kind: EntryKind
    pattern: str

    def __post_init__(self) -> None:
        if not self.pattern or self.pattern != self.pattern.strip():
            raise ValueError(f"ignorelist pattern must be non-empty and trimmed: {self.pattern!r}")

    @property
    def line(self) -> str:
        return f"{self.kind.value}:{self.pattern}"


def render(entries: Iterable[IgnorelistEntry]) -> str:
    """Render entries in deterministic order (fun: block, then src:), each line once."""
    return "".join(line + "\n" for line in sorted({e.line for e in entries}))


def parse(text: str) -> list[IgnorelistEntry]:
    """Parse rendered ignorelist text back into structural entries.

    Blank lines and #-comments are tolerated on input even though render
    never emits them.
    """
    entries: list[IgnorelistEntry] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        prefix, sep, pattern = line.partition(":")
        if not sep or not pattern.strip():
            raise ValueError(f"ignorelist line {lineno}: malformed entry {rawline!r}")
        if prefix not in ("fun", "src"):
            raise ValueError(f"ignorelist line {lineno}: unknown entry kind {prefix!r}")
        entries.append(IgnorelistEntry(EntryKind(prefix), pattern.strip()))
    return entries

