"""Config parsing, rendering, and validation."""

import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfiheal.config import (
    CFI_VARIANTS,
    MAX_TEST_TIMEOUT,
    ConfigError,
    ProjectConfig,
    load_config,
    parse_config,
    render_config,
    validate_config,
)
from cfiheal.pipeline import PipelineFailure, cli_main, heal

MINIMAL = """\
project_root: /work/proj
build_cmd: make
test_cmd: sh runtests.sh
executables: [app]
cfi_variants: [cfi-icall]
report_dir: /work/out
"""


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.project_root == Path("/work/proj")
    assert cfg.executables == ("app",)
    assert cfg.cfi_variants == ("cfi-icall",)
    assert cfg.configure_cmd is None
    assert cfg.test_timeout == 120.0
    assert cfg.max_repair_iterations == 64


def test_parse_full_roundtrip():
    cfg = ProjectConfig(
        project_root=Path("/p"),
        build_cmd="make -j2 all",
        test_cmd="./run --tap",
        executables=("bin/a", "bin/b"),
        cfi_variants=("cfi-icall", "cfi-vcall"),
        report_dir=Path("/r"),
        configure_cmd="./configure",
        clean_cmd="make clean",
        extra_compile_flags=("-fuse-ld=lld", "-g"),
        test_timeout=45.5,
        max_repair_iterations=7,
    )
    assert parse_config(render_config(cfg)) == cfg


def test_yaml_error_carries_position():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        parse_config("project_root: [unclosed\nbuild_cmd: x\n")


def test_empty_document_rejected():
    with pytest.raises(ConfigError, match="empty"):
        parse_config("")


def test_non_mapping_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        parse_config("- a\n- b\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration keys: build_command"):
        parse_config(MINIMAL + "build_command: make\n")


@pytest.mark.parametrize(
    ("extra", "named"), [("1: x\nfoo: y\n", "1, foo"), ("null: x\n", "None")]
)
def test_a_key_that_is_not_a_string_is_named_as_unknown(extra, named):
    with pytest.raises(ConfigError, match=f"^unknown configuration keys: {named}$"):
        parse_config(MINIMAL + extra)


def test_missing_keys_listed():
    with pytest.raises(ConfigError, match="missing required keys") as err:
        parse_config("project_root: /p\n")
    msg = str(err.value)
    for key in ("build_cmd", "test_cmd", "executables", "cfi_variants", "report_dir"):
        assert key in msg


def test_unknown_variant_rejected():
    bad = MINIMAL.replace("[cfi-icall]", "[cfi-icall, cfi-bogus]")
    with pytest.raises(ConfigError, match="cfi-bogus"):
        parse_config(bad)


def test_duplicate_variant_rejected():
    bad = MINIMAL.replace("[cfi-icall]", "[cfi-icall, cfi-icall]")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(bad)


def test_wrong_type_rejected():
    with pytest.raises(ConfigError, match="executables"):
        parse_config(MINIMAL.replace("executables: [app]", "executables: app"))
    with pytest.raises(ConfigError, match="test_timeout"):
        parse_config(MINIMAL + "test_timeout: soon\n")
    with pytest.raises(ConfigError, match="at least 1"):
        parse_config(MINIMAL + "max_repair_iterations: 0\n")


@pytest.mark.parametrize(
    ("key", "value"),
    [("project_root", "5"), ("build_cmd", "[make]"), ("test_cmd", "{a: 1}"),
     ("report_dir", "null"), ("clean_cmd", "true")],
)
def test_a_string_key_with_another_type_is_rejected(key, value):
    text = "".join(
        f"{key}: {value}\n" if line.startswith(f"{key}:") else line + "\n"
        for line in MINIMAL.splitlines()
    )
    if key not in MINIMAL:
        text += f"{key}: {value}\n"
    with pytest.raises(ConfigError, match=f"^{key} must be a string, got "):
        parse_config(text)


@pytest.mark.parametrize(
    "value",
    [".nan", ".inf", "-.inf", "1.0e+400", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"],
)
def test_a_timeout_that_is_not_finite_is_rejected(value):
    with pytest.raises(ConfigError, match="^test_timeout must be finite"):
        parse_config(MINIMAL + f"test_timeout: {value}\n")


@pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
def test_a_built_config_with_a_timeout_that_is_not_finite_is_invalid(tmp_path, timeout):
    cfg = ProjectConfig(
        project_root=tmp_path,
        build_cmd="make",
        test_cmd="sh t.sh",
        executables=("app",),
        cfi_variants=("cfi-icall",),
        report_dir=tmp_path / "out",
        test_timeout=timeout,
    )
    assert validate_config(cfg) == [f"test_timeout must be finite, got {timeout}"]
    assert validate_config(replace(cfg, test_timeout=-timeout)) != []
    # heal() refuses it before it takes the lock or writes any state.
    with pytest.raises(PipelineFailure, match="test_timeout"):
        heal(cfg)
    assert not cfg.report_dir.exists()


@pytest.mark.parametrize("value", ["0", "-1", "2147484", "2147484.0", "1.0e+7", "1.0e+10"])
def test_a_timeout_out_of_range_is_rejected(value):
    # 2147483 s is the longest subprocess.run can wait; 2147484 raises OverflowError.
    with pytest.raises(ConfigError, match="^test_timeout must be positive and at most 2147483 "):
        parse_config(MINIMAL + f"test_timeout: {value}\n")


def test_the_longest_timeout_subprocess_can_wait_is_accepted(tmp_path):
    assert parse_config(MINIMAL + "test_timeout: 2147483\n").test_timeout == MAX_TEST_TIMEOUT
    cfg = replace(parse_config(MINIMAL), project_root=tmp_path, test_timeout=MAX_TEST_TIMEOUT)
    assert validate_config(cfg) == []
    assert validate_config(replace(cfg, test_timeout=2147484.0)) == [
        "test_timeout must be positive and at most 2147483 seconds, got 2147484.0"
    ]


def test_relative_directories_resolve_against_the_invoking_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = MINIMAL.replace("/work/proj", "proj").replace("/work/out", "proj/rep")
    cfg = parse_config(text)
    assert (cfg.project_root, cfg.report_dir) == (tmp_path / "proj", tmp_path / "proj" / "rep")
    # A config built in code, or changed by replace(), resolves the same way.
    assert replace(cfg, report_dir=Path("out")).report_dir == tmp_path / "out"
    assert parse_config(render_config(cfg)) == cfg


def test_heal_of_a_config_with_a_nan_timeout_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL + "test_timeout: .nan\n")
    assert cli_main(["heal", str(path)]) == 2
    assert "test_timeout must be finite" in capsys.readouterr().err


def test_the_readme_config_table_lists_the_fields_of_project_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| `(\w+)` \| (yes|no) \|", table, re.MULTILINE)
    assert len(rows) == len(table.splitlines()) - 2  # every row below the header and rule
    assert rows == [
        (f.name, "yes" if f.default is MISSING else "no") for f in fields(ProjectConfig)
    ]


def test_all_seven_variants_accepted():
    listed = ", ".join(CFI_VARIANTS)
    cfg = parse_config(MINIMAL.replace("[cfi-icall]", f"[{listed}]"))
    assert cfg.cfi_variants == CFI_VARIANTS
    assert len(CFI_VARIANTS) == 7


def test_executable_paths_join_root():
    cfg = parse_config(MINIMAL)
    assert cfg.executable_paths() == (Path("/work/proj/app"),)


def test_validate_flags_problems(tmp_path):
    cfg = ProjectConfig(
        project_root=tmp_path / "missing",
        build_cmd="  ",
        test_cmd="",
        executables=(),
        cfi_variants=(),
        report_dir=tmp_path,
        test_timeout=0.0,
    )
    findings = "\n".join(validate_config(cfg))
    for needle in ("project_root", "build_cmd", "test_cmd", "executable", "variant", "timeout"):
        assert needle in findings


def test_validate_clean_config(tmp_path):
    cfg = ProjectConfig(
        project_root=tmp_path,
        build_cmd="make",
        test_cmd="sh t.sh",
        executables=("app",),
        cfi_variants=("cfi-icall",),
        report_dir=tmp_path / "out",
    )
    assert validate_config(cfg) == []


def test_load_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL)
    assert load_config(path) == parse_config(MINIMAL)


_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="\\'\"#{}[]&*?|>%@`,:"),
    min_size=1,
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(
    root=_names,
    build=_names,
    test=_names,
    exes=st.lists(_names, min_size=1, max_size=3),
    variants=st.sets(st.sampled_from(CFI_VARIANTS), min_size=1).map(
        lambda s: tuple(v for v in CFI_VARIANTS if v in s)
    ),
    flags=st.lists(_names, max_size=3),
    timeout=st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
    budget=st.integers(min_value=1, max_value=10_000),
)
def test_roundtrip_property(root, build, test, exes, variants, flags, timeout, budget):
    """render then parse is the identity on well-formed configs."""
    cfg = ProjectConfig(
        project_root=Path("/" + root),
        build_cmd=build,
        test_cmd=test,
        executables=tuple(exes),
        cfi_variants=variants,
        report_dir=Path("/" + root + "-out"),
        extra_compile_flags=tuple(flags),
        test_timeout=timeout,
        max_repair_iterations=budget,
    )
    assert parse_config(render_config(cfg)) == cfg
