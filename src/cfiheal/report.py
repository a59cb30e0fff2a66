"""Enforcement-coverage accounting and report emission.

Every function in the final binary is exactly one of:

  Protected          hidden visibility, no ignorelist entry covers it
  DefaultVisibility  exported (originally default or patched back to default)
  Ignored            an ignorelist entry suppresses its checks

Ignored wins over DefaultVisibility when both apply. Percentages are
rendered at two decimals with banker's rounding, and the largest component
absorbs the rounding residual so each displayed triple sums to exactly
100.00.

report.json is the canonical artifact (schema_version marks the layout);
report.html is a pure projection of the same dictionary, so the two never
disagree, and rendering the same dictionary twice yields identical bytes.
The projection names no field: every key at every depth shows, in the
order render_json sorts them, and every scalar as its str().
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .ignorelist import EntryKind, IgnorelistEntry
from .repair import replace_file

SCHEMA_VERSION = "1"


class EnforcementStatus(Enum):
    PROTECTED = "Protected"
    DEFAULT_VISIBILITY = "DefaultVisibility"
    IGNORED = "Ignored"


@dataclass(frozen=True)
class FunctionRecord:
    """One defined function, as fed into coverage accounting."""

    name: str
    file: str | None
    call_sites: int
    visibility: str
    patched: bool = False


@dataclass(frozen=True)
class CoverageTriple:
    protected: float
    default_visibility: float
    ignored: float
    counts: tuple[int, int, int]

    def as_dict(self) -> dict:
        return {
            "protected": self.protected,
            "default_visibility": self.default_visibility,
            "ignored": self.ignored,
            "counts": {
                "protected": self.counts[0],
                "default_visibility": self.counts[1],
                "ignored": self.counts[2],
            },
        }


@dataclass(frozen=True)
class CoverageCore:
    per_function: CoverageTriple
    per_call_site: CoverageTriple
    statuses: Mapping[str, EnforcementStatus]


def reconcile_percentages(counts: Sequence[int]) -> tuple[float, ...]:
    """Two-decimal percentages that sum to exactly 100.00.

    Banker's rounding per component; the largest component (ties broken by
    position) absorbs the residual. An empty population yields all zeros.
    """
    total = sum(counts)
    if total == 0:
        return tuple(0.0 for _ in counts)
    hundred = Decimal(100)
    cent = Decimal("0.01")
    raw = [Decimal(c) * hundred / Decimal(total) for c in counts]
    rounded = [r.quantize(cent, rounding=ROUND_HALF_EVEN) for r in raw]
    residual = Decimal("100.00") - sum(rounded)
    if residual:
        largest = max(range(len(counts)), key=lambda i: (counts[i], -i))
        rounded[largest] += residual
    return tuple(float(r) for r in rounded)


def _matches_ignorelist(record: FunctionRecord, entries: Sequence[IgnorelistEntry]) -> bool:
    """Whether an entry names the record's function, or its file as the symbolizer spells it."""
    return any(
        entry.pattern == (record.name if entry.kind is EntryKind.FUN else record.file)
        for entry in entries
    )


def compute_coverage(
    functions: Sequence[FunctionRecord],
    entries: Sequence[IgnorelistEntry],
) -> CoverageCore:
    """Status per function plus reconciled per-function/per-call-site triples."""
    statuses: dict[str, EnforcementStatus] = {}
    fn_counts = [0, 0, 0]
    site_counts = [0, 0, 0]
    for record in functions:
        if _matches_ignorelist(record, entries):
            status = EnforcementStatus.IGNORED
        elif record.patched or record.visibility == "default":
            status = EnforcementStatus.DEFAULT_VISIBILITY
        else:
            status = EnforcementStatus.PROTECTED
        statuses[record.name] = status
        index = {
            EnforcementStatus.PROTECTED: 0,
            EnforcementStatus.DEFAULT_VISIBILITY: 1,
            EnforcementStatus.IGNORED: 2,
        }[status]
        fn_counts[index] += 1
        site_counts[index] += record.call_sites

    fn_pct = reconcile_percentages(fn_counts)
    site_pct = reconcile_percentages(site_counts)
    return CoverageCore(
        per_function=CoverageTriple(*fn_pct, counts=tuple(fn_counts)),
        per_call_site=CoverageTriple(*site_pct, counts=tuple(site_counts)),
        statuses=statuses,
    )


def format_duration(seconds: float) -> str:
    total = int(seconds)
    hours, rem = divmod(total, 3600)
    minutes, secs = divmod(rem, 60)
    return f"{hours:02d}:{minutes:02d}:{secs:02d}"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _project(value: object) -> str:
    """HTML of one report value: a mapping is a table of its sorted keys, a list an ordered list."""
    if isinstance(value, Mapping):
        rows = "".join(
            f"<tr><th>{html.escape(str(key))}</th><td>{_project(value[key])}</td></tr>"
            for key in sorted(value)
        )
        return f"<table>{rows}</table>" if value else "<p>empty</p>"
    if isinstance(value, (list, tuple)):
        items = "".join(f"<li>{_project(item)}</li>" for item in value)
        return f"<ol>{items}</ol>" if value else "<p>none</p>"
    return html.escape(str(value))


def render_html(report: dict) -> str:
    """Deterministic HTML projection of the report dictionary: one section per key, sorted."""
    sections = "".join(
        f"<h2>{html.escape(str(key))}</h2>{_project(report[key])}" for key in sorted(report)
    )
    style = (
        "body{font-family:sans-serif;margin:2em;max-width:70em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "td,th{border:1px solid #999;padding:0.3em 0.7em;text-align:left;vertical-align:top}"
        "th{background:#eee}"
    )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>CFI enforcement report</title><style>{style}</style></head><body>"
        f"<h1>CFI enforcement report</h1>{sections}</body></html>\n"
    )


def emit_report(report: dict, report_dir: Path) -> list[Path]:
    """Write report.json and report.html; returns the paths written."""
    report_dir.mkdir(parents=True, exist_ok=True)
    json_path, html_path = report_dir / "report.json", report_dir / "report.html"
    replace_file(json_path, render_json(report))
    replace_file(html_path, render_html(report))
    return [json_path, html_path]
