"""Coverage arithmetic, rounding reconciliation, report projections."""

from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from cfiheal.ignorelist import EntryKind, IgnorelistEntry, LadderLevel
from cfiheal.report import (
    EnforcementStatus,
    FunctionRecord,
    compute_coverage,
    emit_report,
    format_duration,
    reconcile_percentages,
    render_html,
    render_json,
)

from conftest import unshown_fields


def dec_sum(values) -> Decimal:
    return sum(Decimal(str(v)) for v in values)


def test_reconcile_published_function_proportions():
    # util-linux-shaped split over 10000 functions.
    assert reconcile_percentages([8629, 1054, 317]) == (86.29, 10.54, 3.17)


def test_reconcile_published_call_site_proportions():
    assert reconcile_percentages([8946, 753, 301]) == (89.46, 7.53, 3.01)


def test_reconcile_residual_lands_on_largest():
    # 1/3 each rounds to 33.33; the first (largest by tie-break) absorbs.
    assert reconcile_percentages([1, 1, 1]) == (33.34, 33.33, 33.33)


def test_reconcile_empty_population():
    assert reconcile_percentages([0, 0, 0]) == (0.0, 0.0, 0.0)


def test_reconcile_single_bucket():
    assert reconcile_percentages([7, 0, 0]) == (100.0, 0.0, 0.0)


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6))
def test_reconcile_sums_to_exactly_one_hundred(counts):
    pct = reconcile_percentages(counts)
    if sum(counts) == 0:
        assert all(p == 0.0 for p in pct)
    else:
        assert dec_sum(pct) == Decimal("100.00")


def fun_entry(pattern: str) -> IgnorelistEntry:
    return IgnorelistEntry(EntryKind.FUN, pattern)


def src_entry(pattern: str) -> IgnorelistEntry:
    return IgnorelistEntry(EntryKind.SRC, pattern)


FUNCTIONS = [
    FunctionRecord("alpha", "lib/a.c", call_sites=10, visibility="hidden"),
    FunctionRecord("beta", "lib/a.c", call_sites=5, visibility="hidden"),
    FunctionRecord("gamma", "lib/b.c", call_sites=2, visibility="default"),
    FunctionRecord("delta", "lib/b.c", call_sites=1, visibility="hidden", patched=True),
    FunctionRecord("nofile", None, call_sites=3, visibility="hidden"),
]


def test_coverage_status_assignment():
    core = compute_coverage(FUNCTIONS, [fun_entry("beta")])
    assert core.statuses == {
        "alpha": EnforcementStatus.PROTECTED,
        "beta": EnforcementStatus.IGNORED,
        "gamma": EnforcementStatus.DEFAULT_VISIBILITY,
        "delta": EnforcementStatus.DEFAULT_VISIBILITY,
        "nofile": EnforcementStatus.PROTECTED,
    }
    assert core.per_function.counts == (2, 2, 1)
    assert core.per_call_site.counts == (13, 3, 5)


def test_ignored_wins_over_default_visibility():
    # gamma is exported AND ignorelisted; Ignored takes precedence.
    core = compute_coverage(FUNCTIONS, [fun_entry("gamma")])
    assert core.statuses["gamma"] is EnforcementStatus.IGNORED


def test_src_entry_matches_its_project_relative_path_only():
    core = compute_coverage(FUNCTIONS, [src_entry("lib/a.c")])
    assert core.statuses["alpha"] is EnforcementStatus.IGNORED
    assert core.statuses["beta"] is EnforcementStatus.IGNORED
    assert core.statuses["gamma"] is EnforcementStatus.DEFAULT_VISIBILITY
    # A record with no file can never match a src entry.
    assert core.statuses["nofile"] is EnforcementStatus.PROTECTED
    # src:a.c names the file a.c at the project root, not lib/a.c.
    core = compute_coverage(FUNCTIONS, [src_entry("a.c")])
    assert core.per_function.counts == (3, 2, 0)


def test_src_entry_ignores_no_file_outside_the_project():
    # The symbolizer spells a file outside the project absolute; that it
    # ends in /src/a.c does not make it the project's src/a.c.
    records = [FunctionRecord("inside", "src/a.c", 1, "hidden"),
               FunctionRecord("outside", "/elsewhere/src/a.c", 1, "hidden")]
    core = compute_coverage(records, [src_entry("src/a.c")])
    assert core.statuses == {"inside": EnforcementStatus.IGNORED,
                             "outside": EnforcementStatus.PROTECTED}


def test_src_entry_exact_path_match():
    core = compute_coverage(FUNCTIONS, [src_entry("lib/b.c")])
    assert core.statuses["delta"] is EnforcementStatus.IGNORED


def test_src_entry_does_not_match_basename_infix():
    # "b.c" must not match "lib/ab.c" style accidental suffixes.
    records = [FunctionRecord("f", "lib/ab.c", 1, "hidden")]
    core = compute_coverage(records, [src_entry("b.c")])
    assert core.statuses["f"] is EnforcementStatus.PROTECTED


def test_coverage_triples_reconcile():
    core = compute_coverage(FUNCTIONS, [fun_entry("beta")])
    fn = core.per_function
    site = core.per_call_site
    assert dec_sum((fn.protected, fn.default_visibility, fn.ignored)) == Decimal("100.00")
    assert dec_sum((site.protected, site.default_visibility, site.ignored)) == Decimal(
        "100.00"
    )
    assert fn.as_dict()["counts"] == {
        "protected": 2,
        "default_visibility": 2,
        "ignored": 1,
    }


def test_format_duration():
    assert format_duration(0) == "00:00:00"
    assert format_duration(61.9) == "00:01:01"
    assert format_duration(3600) == "01:00:00"
    assert format_duration(7322) == "02:02:02"
    assert format_duration(360000) == "100:00:00"


SAMPLE_REPORT = {
    "schema_version": "1",
    "duration": "00:01:05",
    "coverage": {
        "per_function": {
            "protected": 86.29,
            "default_visibility": 10.54,
            "ignored": 3.17,
            "counts": {"protected": 8629, "default_visibility": 1054, "ignored": 317},
        },
        "per_call_site": {
            "protected": 89.46,
            "default_visibility": 7.53,
            "ignored": 3.01,
            "counts": {"protected": 8946, "default_visibility": 753, "ignored": 301},
        },
    },
    "census": {
        "fp_calls": 191,
        "virtual_calls": 20,
        "callback_stores": 1461,
        "jt_switch": 1458,
        "jt_lowered": 25056,
        "inline_asm": 56,
        "total": 28242,
    },
    "tests": {"Pass": 10, "BaselineFailure": 0, "CfiPolicyViolation": 1,
              "FunctionalNonCfi": 0},
    "violations": {
        "total": 1,
        "fixed": 1,
        "unresolvable": 0,
        "by_file": [{"file": "bad.c", "count": 1, "tests": ["t_cb"]}],
        "details": [
            {
                "id": "V1",
                "function": "run_cb",
                "file": "bad.c",
                "status": "Fixed",
                "level": "L0",
                "tests": ["t_cb"],
            }
        ],
    },
    "ignorelist": ["fun:run_cb"],
    "repair": {
        "patches": [
            {"iteration": 1, "symbol": "foo_api", "file": "foo.c", "line": 3}
        ]
    },
}


def test_render_json_deterministic_with_trailing_newline():
    first = render_json(SAMPLE_REPORT)
    second = render_json(SAMPLE_REPORT)
    assert first == second
    assert first.endswith("\n")
    assert '"schema_version": "1"' in first


def test_render_html_projects_the_same_numbers():
    page = render_html(SAMPLE_REPORT)
    assert page == render_html(SAMPLE_REPORT)
    for needle in (
        "86.29",
        "10.54",
        "3.17",
        "89.46",
        "28242",
        "fun:run_cb",
        "run_cb",
        "foo_api",
        "t_cb",
        "00:01:05",
    ):
        assert needle in page
    assert unshown_fields(SAMPLE_REPORT, page) == []
    assert page.endswith("</html>\n")


def test_render_html_escapes_markup():
    hostile = dict(SAMPLE_REPORT)
    hostile = {
        **SAMPLE_REPORT,
        "ignorelist": ["fun:<script>alert(1)</script>"],
    }
    page = render_html(hostile)
    assert "<script>alert(1)</script>" not in page
    assert "&lt;script&gt;" in page


def test_render_html_empty_sections():
    bare = {
        "schema_version": "1",
        "coverage": {},
        "census": {},
        "tests": {},
        "violations": {},
        "ignorelist": [],
        "repair": {},
    }
    page = render_html(bare)
    assert "empty" in page
    assert "none" in page


def test_emit_report_writes_both_formats(tmp_path):
    paths = emit_report(SAMPLE_REPORT, tmp_path / "out")
    assert [p.name for p in paths] == ["report.json", "report.html"]
    assert all(p.exists() for p in paths)
    assert paths[0].read_text() == render_json(SAMPLE_REPORT)
    assert paths[1].read_text() == render_html(SAMPLE_REPORT)
