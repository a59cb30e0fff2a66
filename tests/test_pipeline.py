"""Pipeline orchestration and the command-line entry points."""

import json

import pytest

from cfiheal.pipeline import _run_census, cli_main, heal

from conftest import copy_fixture, make_config, needs_toolchain

CENSUS_IR = """
define i32 @driver(i32 %x) {
entry:
  %slot = alloca i32 (i32)*, align 8
  store i32 (i32)* @work, i32 (i32)** %slot, align 8
  %fp = load i32 (i32)*, i32 (i32)** %slot, align 8
  %r = call i32 %fp(i32 %x)
  ret i32 %r
}
define i32 @work(i32 %x) { ret i32 %x }
"""


def test_census_diagnostics_sidecar_names_file_and_line(tmp_path):
    root = tmp_path / "proj"
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "odd.ll").write_text(
        "define void @f(void ()* %fp) {\nentry:\n  call void %fp\n  ret void\n}\n"
    )
    (root / "clean.ll").write_text(CENSUS_IR)
    reports = tmp_path / "reports"
    reports.mkdir()
    total, _ = _run_census(make_config(root, reports))
    assert total.fp_calls == 1
    sidecar = reports / "ir-census-diagnostics.txt"
    assert sidecar.read_text() == "odd.ll:3: call instruction without an argument list\n"


def write_config(root, report_dir) -> "Path":
    # Relative paths in a config resolve against the invoking cwd, so a
    # config destined for cli_main() spells both directories absolutely.
    cfg_path = root / "cfi.yaml"
    cfg_path.write_text(
        f"project_root: {root}\n"
        "build_cmd: make app\n"
        "test_cmd: sh runtests.sh\n"
        "executables: [app]\n"
        "cfi_variants: [cfi-icall]\n"
        f"report_dir: {report_dir}\n"
        "clean_cmd: make clean\n"
        "extra_compile_flags: [-fuse-ld=lld, -g]\n"
        "test_timeout: 30\n"
    )
    return cfg_path


@needs_toolchain
def test_heal_clean_project(tmp_path):
    root = copy_fixture("hello", tmp_path / "proj")
    reports = tmp_path / "reports"
    result = heal(make_config(root, reports))

    report = result.report
    assert report["schema_version"] == "1"
    assert report["violations"] == {
        "total": 0,
        "fixed": 0,
        "unresolvable": 0,
        "open": 0,
        "by_file": [],
        "details": [],
    }
    assert report["tests"]["total"] == 2
    assert report["tests"]["pass"] == 2
    assert report["ignorelist"] == []
    assert report["repair"]["patches"] == []
    # Everything hidden, nothing ignored: full protection.
    cov = report["coverage"]["per_function"]
    assert cov["protected"] == 100.0
    assert cov["counts"]["ignored"] == 0
    assert report["census"]["total"] >= 0
    assert result.unresolvable == 0

    # Artifacts on disk.
    assert (reports / "report.json").is_file()
    assert (reports / "report.html").is_file()
    state = json.loads((reports / "state.json").read_text())
    assert state["phase"] == "done"
    assert state["report"]["schema_version"] == "1"
    emitted = json.loads((reports / "report.json").read_text())
    assert emitted == report


@needs_toolchain
def test_heal_census_from_project_emitted_ir(tmp_path):
    # A build that also emits textual IR feeds the census; the violating
    # handler and the healthy one each contribute one fp call and one store.
    root = copy_fixture("trap_l0", tmp_path / "proj")
    result = heal(
        make_config(root, tmp_path / "reports", build_cmd="make app ir")
    )
    census = result.report["census"]
    assert census["fp_calls"] == 2
    assert census["callback_stores"] == 2
    assert census["total"] == 4
    assert result.report["violations"]["fixed"] == 1
    assert result.report["ignorelist"] == ["fun:run_cb"]


@needs_toolchain
def test_heal_cli_exit_codes(tmp_path, capsys):
    root = copy_fixture("hello", tmp_path / "proj")
    cfg_path = write_config(root, tmp_path / "reports")
    rc = cli_main(["heal", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 violation(s)" in out
    assert "0 unresolvable" in out


def test_cli_no_command_is_usage_error(capsys):
    assert cli_main([]) == 64
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["obliterate"])
    assert exc.value.code == 64


def test_cli_heal_bad_config(tmp_path, capsys):
    bad = tmp_path / "cfi.yaml"
    bad.write_text("nonsense: [\n")
    assert cli_main(["heal", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_heal_missing_config(tmp_path, capsys):
    assert cli_main(["heal", str(tmp_path / "absent.yaml")]) == 2


def test_cli_census_file(tmp_path, capsys):
    ir = tmp_path / "mod.ll"
    ir.write_text(CENSUS_IR)
    assert cli_main(["census", str(ir)]) == 0
    out = capsys.readouterr().out
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["fp_calls"] == "1"
    assert rows["callback_stores"] == "1"
    assert rows["total"] == "2"


def test_cli_census_directory_recurses(tmp_path, capsys):
    sub = tmp_path / "ir" / "deep"
    sub.mkdir(parents=True)
    (sub / "a.ll").write_text(CENSUS_IR)
    (sub / "b.ll").write_text(CENSUS_IR)
    assert cli_main(["census", str(tmp_path)]) == 0
    rows = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert rows["total"] == "4"


def test_cli_census_no_files(tmp_path, capsys):
    assert cli_main(["census", str(tmp_path)]) == 2
    assert "no .ll files" in capsys.readouterr().err


@needs_toolchain
def test_cli_build_baseline(tmp_path, capsys):
    root = copy_fixture("hello", tmp_path / "proj")
    cfg_path = write_config(root, tmp_path / "reports")
    assert cli_main(["build", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "build succeeded" in out
    assert (root / "app").is_file()


@needs_toolchain
def test_cli_build_cfi_seeds_empty_ignorelist(tmp_path, capsys):
    root = copy_fixture("hello", tmp_path / "proj")
    reports = tmp_path / "reports"
    cfg_path = write_config(root, reports)
    assert cli_main(["build", str(cfg_path), "--mode", "cfi"]) == 0
    assert (reports / "cfi.ignorelist").read_text() == ""
    assert "build succeeded" in capsys.readouterr().out


def test_cli_report_reemits_from_state(tmp_path, capsys):
    report = {"schema_version": "1", "coverage": {}, "census": {},
              "tests": {}, "violations": {}, "ignorelist": [], "repair": {}}
    (tmp_path / "state.json").write_text(
        json.dumps({"phase": "done", "report": report})
    )
    assert cli_main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "report.json" in out and "report.html" in out
    assert json.loads((tmp_path / "report.json").read_text()) == report


def test_cli_report_missing_state(tmp_path, capsys):
    assert cli_main(["report", str(tmp_path)]) == 2
    assert "state.json" in capsys.readouterr().err


def test_cli_report_incomplete_state(tmp_path, capsys):
    (tmp_path / "state.json").write_text(json.dumps({"phase": "building"}))
    assert cli_main(["report", str(tmp_path)]) == 2
    assert "no completed report" in capsys.readouterr().err


def test_cli_revert_with_no_journal(tmp_path, capsys):
    root = copy_fixture("hello", tmp_path / "proj")
    cfg_path = write_config(root, tmp_path / "reports")
    assert cli_main(["heal", str(cfg_path), "--revert"]) == 0
    assert "reverted 0" in capsys.readouterr().out
