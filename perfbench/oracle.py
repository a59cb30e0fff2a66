"""Checks of one finished heal against the generator's oracle.

Every check is counted, none aborts: a failed check lowers the pass share
and is listed by name, so a run always finishes and reports.
"""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path

from gen import CATEGORIES


def _triple_sums_to_100(triple: dict) -> bool:
    parts = (triple["protected"], triple["default_visibility"], triple["ignored"])
    return sum(Decimal(str(p)) for p in parts) == Decimal("100")


def sources_identical(project: Path, pristine: Path, sources: list[str]) -> bool:
    """Every generated source file reads back byte for byte."""
    for rel in sources:
        try:
            if (project / rel).read_bytes() != (pristine / rel).read_bytes():
                return False
        except OSError:
            return False
    return True


def check(spec: dict, report: dict, exit_status: int, reverted_ok: bool) -> dict[str, bool]:
    """Name -> passed, for every oracle check of one heal."""
    final = set(report["ignorelist"])
    minimal = set(spec["minimal_ignorelist"])
    results = {"ignorelist_minimal": final == minimal}
    for key in CATEGORIES:
        results[f"census.{key}"] = report["census"][key] == spec["census"][key]
    site_counts = report["coverage"]["per_call_site"]["counts"]
    results["call_site_denominator"] = sum(site_counts.values()) == spec["call_sites"]
    results["per_function_sums_to_100"] = _triple_sums_to_100(report["coverage"]["per_function"])
    results["per_call_site_sums_to_100"] = _triple_sums_to_100(report["coverage"]["per_call_site"])
    results["exit_status"] = exit_status == spec["exit_status"]
    results["revert_byte_exact"] = reverted_ok
    return results


def ignorelist_mismatch(spec: dict, report: dict) -> int:
    """Size of the symmetric difference between the final and minimal lists."""
    return len(set(report["ignorelist"]) ^ set(spec["minimal_ignorelist"]))


def ignorelist_jaccard(spec: dict, report: dict) -> float:
    """Shared entries over all entries of the final and minimal lists; 1 when both are empty."""
    final, minimal = set(report["ignorelist"]), set(spec["minimal_ignorelist"])
    union = final | minimal
    return len(final & minimal) / len(union) if union else 1.0
