"""Flag composition, linker diagnostic parsing, locking, and live builds.

The parser fixtures below are verbatim captures from ld.lld 14 and GNU ld
2.38 failing on small two-library projects; only temp-file hashes were kept
as captured.
"""

import io
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfiheal import build, harness, tracing
from cfiheal.build import (
    LOG_CAP_BYTES,
    TRUNCATION_MARKER,
    BuildKind,
    BuildMode,
    DiagnosticKind,
    OrchestrationError,
    ProjectLock,
    compose_flags,
    parse_diagnostics,
    run_build,
)
from cfiheal.ircensus import read_ir_lines
from cfiheal.tracing import OutcomeKind, TraceOutcome

from conftest import copy_fixture, make_config, needs_toolchain

LLD_UNDEF = """\
ld.lld: error: undefined symbol: bar_helper
>>> referenced by foo.c
>>>               /tmp/foo-60562c.o:(foo_api)
clang: error: linker command failed with exit code 1 (use -v to see invocation)
"""

LLD_UNDEF_HIDDEN = """\
ld.lld: error: undefined hidden symbol: foo_api
>>> referenced by mainh2.c
>>>               mainh2.o:(main)
clang: error: linker command failed with exit code 1 (use -v to see invocation)
"""

LLD_SHLIB = """\
ld.lld: error: undefined symbol: foo_api
>>> referenced by main.c
>>>               /tmp/main-6cc810.o:(main)

ld.lld: error: ./libfoo3.so: undefined reference to bar_helper [--no-allow-shlib-undefined]
clang: error: linker command failed with exit code 1 (use -v to see invocation)
"""

BFD_UNDEF = """\
/usr/bin/ld.bfd: /tmp/foo-be07c3.o: in function `foo_api':
foo.c:(.text+0xf): undefined reference to `bar_helper'
clang: error: linker command failed with exit code 1 (use -v to see invocation)
"""

BFD_DSO = """\
/usr/bin/ld.bfd: /tmp/main-0956cf.o: in function `main':
main.c:(.text+0x15): undefined reference to `foo_api'
/usr/bin/ld.bfd: ./libfoo3.so: undefined reference to `bar_helper'
clang: error: linker command failed with exit code 1 (use -v to see invocation)
"""

BFD_HIDDEN_DSO = """\
/usr/bin/ld.bfd: /tmp/main-fb3890.o: in function `main':
main.c:(.text+0x15): undefined reference to `foo_api'
/usr/bin/ld.bfd: app5: hidden symbol `bar_helper' in barhid.o is referenced by DSO
/usr/bin/ld.bfd: final link failed: bad value
clang: error: linker command failed with exit code 1 (use -v to see invocation)
"""

BFD_HIDDEN_UNDEF = """\
/usr/bin/ld.bfd: mainh2.o: in function `main':
mainh2.c:(.text+0x15): undefined reference to `foo_api'
/usr/bin/ld.bfd: app8: hidden symbol `foo_api' isn't defined
/usr/bin/ld.bfd: final link failed: bad value
clang: error: linker command failed with exit code 1 (use -v to see invocation)
"""

# Bare tool prefix, as emitted when ld.bfd is invoked directly.
BFD_BARE_PREFIX = """\
ld.bfd: nopic.o: in function `main':
mainh2.c:(.text+0x15): undefined reference to `foo_api'
ld.bfd: final link failed: bad value
"""

# GNU ld 12 after `gcc -flto`: the reference names no source file.
BFD_LTO_ARTIFICIAL = """\
/usr/bin/ld: /tmp/ccvPDYNZ.ltrans0.ltrans.o: in function `main':
<artificial>:(.text+0xf): undefined reference to `helper'
collect2: error: ld returned 1 exit status
"""

# Modeled on the documented GNU ld message; not reproducible with this
# toolchain because the hidden-undef form fires first.
GNU_RELOC_HIDDEN = (
    "/usr/bin/ld: obj/hot.o: relocation R_X86_64_PC32 against "
    "hidden symbol `fast_path' can not be used when making a shared object\n"
)


def kinds_and_symbols(text):
    return [(d.kind, d.symbol, d.source_object) for d in parse_diagnostics(text)]


def test_lld_undefined_symbol():
    got = kinds_and_symbols(LLD_UNDEF)
    assert got[0] == (DiagnosticKind.UNDEFINED_REFERENCE, "bar_helper", "foo.c")
    assert got[1][0] is DiagnosticKind.OTHER


def test_lld_undefined_hidden_symbol():
    got = kinds_and_symbols(LLD_UNDEF_HIDDEN)
    assert got[0] == (DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, "foo_api", "mainh2.c")


def test_lld_shlib_undefined():
    got = kinds_and_symbols(LLD_SHLIB)
    assert got[0] == (DiagnosticKind.UNDEFINED_REFERENCE, "foo_api", "main.c")
    assert got[1] == (DiagnosticKind.UNDEFINED_REFERENCE, "bar_helper", "./libfoo3.so")


def test_bfd_undefined_reference():
    got = kinds_and_symbols(BFD_UNDEF)
    assert got[0] == (DiagnosticKind.UNDEFINED_REFERENCE, "bar_helper", "foo.c")


def test_bfd_dso_reference():
    got = kinds_and_symbols(BFD_DSO)
    assert got[0] == (DiagnosticKind.UNDEFINED_REFERENCE, "foo_api", "main.c")
    assert got[1] == (DiagnosticKind.UNDEFINED_REFERENCE, "bar_helper", "./libfoo3.so")


def test_bfd_hidden_referenced_by_dso():
    got = kinds_and_symbols(BFD_HIDDEN_DSO)
    assert (DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, "bar_helper", "barhid.o") in got


def test_bfd_hidden_isnt_defined():
    got = kinds_and_symbols(BFD_HIDDEN_UNDEF)
    assert (DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, "foo_api", None) in got


def test_bare_tool_prefix_not_misattributed():
    got = kinds_and_symbols(BFD_BARE_PREFIX)
    kind, sym, obj = got[0]
    assert (kind, sym) == (DiagnosticKind.UNDEFINED_REFERENCE, "foo_api")
    # `ld.bfd' must never be taken for the referencing object.
    assert obj == "mainh2.c" or obj == "nopic.o"


def test_lto_artificial_falls_back_to_in_function_object():
    got = kinds_and_symbols(BFD_LTO_ARTIFICIAL)
    assert got[0] == (
        DiagnosticKind.UNDEFINED_REFERENCE, "helper", "/tmp/ccvPDYNZ.ltrans0.ltrans.o"
    )


def test_gnu_relocation_against_hidden():
    got = kinds_and_symbols(GNU_RELOC_HIDDEN)
    assert got[0][:2] == (DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, "fast_path")


_HIDDEN, _UNDEF = DiagnosticKind.HIDDEN_SYMBOL_MISMATCH, DiagnosticKind.UNDEFINED_REFERENCE

# One line of each of the parser's rules, in the order of build._RULES.
_ONE_LINE_PER_RULE = [
    ("ld.lld: error: undefined hidden symbol: foo_api", (_HIDDEN, "foo_api", None)),
    ("ld.lld: error: undefined symbol: bar_helper", (_UNDEF, "bar_helper", None)),
    (
        "ld.lld: error: ./libfoo3.so: undefined reference to bar_helper [--no-allow-shlib-undefined]",
        (_UNDEF, "bar_helper", "./libfoo3.so"),
    ),
    (
        "/usr/bin/ld.bfd: app5: hidden symbol `bar_helper' in barhid.o is referenced by DSO",
        (_HIDDEN, "bar_helper", "barhid.o"),
    ),
    (GNU_RELOC_HIDDEN.rstrip(), (_HIDDEN, "fast_path", "obj/hot.o")),
    ("/usr/bin/ld.bfd: app8: hidden symbol `foo_api' isn't defined", (_HIDDEN, "foo_api", None)),
    ("main.c:(.text+0x15): undefined reference to `foo_api'", (_UNDEF, "foo_api", "main.c")),
]


@pytest.mark.parametrize(
    ("index", "line", "expected"),
    [
        pytest.param(i, line, [want], id=f"rule{i}")
        for i, (line, want) in enumerate(_ONE_LINE_PER_RULE)
    ]
    + [
        pytest.param(
            None, "/usr/bin/ld.bfd: /tmp/foo-be07c3.o: in function `foo_api':", [], id="in-function"
        ),
        pytest.param(
            None, "collect2: error: ld returned 1 exit status", [(DiagnosticKind.OTHER, None, None)],
            id="other",
        ),
    ],
)
def test_each_rule_reads_its_line(index, line, expected):
    assert kinds_and_symbols(line) == expected
    first = next((i for i, (pattern, _, _) in enumerate(build._RULES) if pattern.search(line)), None)
    assert first == index


def test_every_rule_has_a_line():
    assert len(_ONE_LINE_PER_RULE) == len(build._RULES)


@pytest.mark.parametrize(
    ("log", "expected"),
    [
        (  # a `>>>' line after a GNU ld diagnostic attributes nothing
            "/usr/bin/ld.bfd: app8: hidden symbol `foo_api' isn't defined\n>>> referenced by main.c\n",
            [(_HIDDEN, "foo_api", None)],
        ),
        (  # an LLD error that names its object takes none from the `>>>' lines
            "ld.lld: error: ./libfoo3.so: undefined reference to bar_helper\n"
            ">>> referenced by main.c\n>>>               main.o:(main)\n",
            [(_UNDEF, "bar_helper", "./libfoo3.so")],
        ),
        (  # the first `>>>' line fills the object; blank lines do not end the wait
            "ld.lld: error: undefined symbol: bar_helper\n\n"
            ">>>               /tmp/foo-60562c.o:(foo_api)\n>>> referenced by foo.c\n",
            [(_UNDEF, "bar_helper", "/tmp/foo-60562c.o")],
        ),
        (  # any other line ends the wait
            "ld.lld: error: undefined symbol: bar_helper\ncc -c a.c\n>>> referenced by foo.c\n",
            [(_UNDEF, "bar_helper", None)],
        ),
        (  # so does the next LLD error, which then takes the `>>>' line itself
            "ld.lld: error: undefined symbol: a\nld.lld: error: undefined hidden symbol: b\n"
            ">>> referenced by b.c\n",
            [(_UNDEF, "a", None), (_HIDDEN, "b", "b.c")],
        ),
    ],
    ids=["after-gnu-ld", "object-known", "first-fills", "other-line-ends", "next-lld-error"],
)
def test_a_continuation_line_fills_only_an_awaited_lld_error(log, expected):
    assert kinds_and_symbols(log) == expected


def test_clean_log_yields_nothing():
    assert parse_diagnostics("cc -c a.c\ncc -o app a.o\n") == []


def test_compose_flags_baseline_is_extras_only():
    assert compose_flags(BuildMode.baseline(), ("-fuse-ld=lld", "-g")) == ["-fuse-ld=lld", "-g"]
    assert compose_flags(BuildMode.baseline()) == []


def test_compose_flags_cfi_exact_order(tmp_path):
    path = tmp_path / "cfi.ignorelist"
    mode = BuildMode.cfi(("cfi-icall", "cfi-vcall"), path)
    assert compose_flags(mode, ("-g",)) == [
        "-flto",
        "-fvisibility=hidden",
        "-fsanitize=cfi-icall,cfi-vcall",
        f"-fsanitize-ignorelist={path}",
        "-fno-omit-frame-pointer",
        "-g",
    ]


def test_buildmode_invariants(tmp_path):
    with pytest.raises(ValueError):
        BuildMode(kind=BuildKind.CFI, variants=(), ignorelist_path=tmp_path / "l")
    with pytest.raises(ValueError):
        BuildMode(kind=BuildKind.BASELINE, variants=("cfi-icall",), ignorelist_path=None)
    with pytest.raises(ValueError):
        BuildMode(kind=BuildKind.CFI, variants=("cfi-icall",), ignorelist_path=None)


def test_nested_lock_in_process_raises(tmp_path):
    # flock conflicts across open files, so the lock is taken once per entry
    # point and a nested acquisition fails as one from another process would.
    with ProjectLock(tmp_path):
        with pytest.raises(OrchestrationError):
            with ProjectLock(tmp_path):
                pass
    with ProjectLock(tmp_path):
        pass


def test_lock_blocks_other_process(tmp_path):
    holder = subprocess.Popen(
        [
            sys.executable,
            "-c",
            textwrap.dedent(
                f"""
                import sys, time
                from pathlib import Path
                from cfiheal.build import ProjectLock
                with ProjectLock(Path({str(tmp_path)!r})):
                    print("held", flush=True)
                    time.sleep(10)
                """
            ),
        ],
        stdout=subprocess.PIPE,
        text=True,
        # The child imports cfiheal from this checkout however pytest was started.
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    try:
        assert holder.stdout.readline().strip() == "held"
        with pytest.raises(OrchestrationError):
            with ProjectLock(tmp_path):
                pass
    finally:
        holder.kill()
        holder.wait()


@needs_toolchain
def test_run_build_baseline(tmp_path):
    root = copy_fixture("hello", tmp_path)
    cfg = make_config(root, tmp_path / "out")
    outcome = run_build(cfg, BuildMode.baseline())
    assert outcome.succeeded
    assert outcome.produced_executables == (root / "app",)
    assert outcome.log_path == tmp_path / "out" / "build-baseline-1.log"
    assert outcome.log_path.exists()
    assert outcome.wall_time > 0
    assert outcome.diagnostics == ()


@needs_toolchain
def test_run_build_cfi_requires_ignorelist_file(tmp_path):
    root = copy_fixture("hello", tmp_path)
    cfg = make_config(root, tmp_path / "out")
    mode = BuildMode.cfi(("cfi-icall",), tmp_path / "out" / "cfi.ignorelist")
    with pytest.raises(OrchestrationError, match="ignorelist"):
        run_build(cfg, mode)


def test_a_cfi_build_without_its_ignorelist_file_names_the_file_to_write(tmp_path):
    # The check comes before any command runs, so no toolchain is needed.
    cfg = make_config(tmp_path, tmp_path / "out")
    missing = tmp_path / "out" / "cfi.ignorelist"
    with pytest.raises(OrchestrationError) as raised:
        run_build(cfg, BuildMode.cfi(("cfi-icall",), missing))
    assert str(raised.value) == (
        f"ignorelist file does not exist: {missing} "
        "(write the ignorelist to that path before building)"
    )


@needs_toolchain
def test_run_build_cfi_injects_flags(tmp_path):
    root = copy_fixture("hello", tmp_path)
    cfg = make_config(root, tmp_path / "out")
    ignorelist = tmp_path / "out" / "cfi.ignorelist"
    ignorelist.parent.mkdir(parents=True)
    ignorelist.write_text("")
    outcome = run_build(cfg, BuildMode.cfi(("cfi-icall",), ignorelist), iteration=3)
    assert outcome.succeeded
    assert outcome.log_path.name == "build-cfi-3.log"
    log = outcome.log_path.read_text()
    assert "-fsanitize=cfi-icall" in log
    assert "-fvisibility=hidden" in log


@needs_toolchain
def test_run_build_reports_missing_executable(tmp_path):
    root = copy_fixture("hello", tmp_path)
    cfg = make_config(root, tmp_path / "out", executables=("app", "app-that-isnt"))
    outcome = run_build(cfg, BuildMode.baseline())
    assert not outcome.succeeded
    assert any(
        d.kind is DiagnosticKind.OTHER and "app-that-isnt" in (d.raw_line or "")
        for d in outcome.diagnostics
    )


@needs_toolchain
def test_run_build_escaping_executable_rejected(tmp_path):
    root = copy_fixture("hello", tmp_path)
    cfg = make_config(root, tmp_path / "out", executables=("../outside",))
    with pytest.raises(OrchestrationError, match="escape"):
        run_build(cfg, BuildMode.baseline())


@needs_toolchain
def test_run_build_caps_log(tmp_path):
    root = copy_fixture("hello", tmp_path)
    spam = "head -c 70000000 /dev/zero | tr '\\0' x"
    cfg = make_config(root, tmp_path / "out", build_cmd=f"{spam}; make app")
    outcome = run_build(cfg, BuildMode.baseline())
    assert outcome.succeeded
    size = outcome.log_path.stat().st_size
    assert size <= LOG_CAP_BYTES + len(TRUNCATION_MARKER) + 2
    assert TRUNCATION_MARKER.strip().encode() in outcome.log_path.read_bytes()[-4096:]


def test_a_log_past_the_cap_is_cut_with_its_marker(tmp_path):
    # The same cap as test_run_build_caps_log, with no compiler.
    root = tmp_path / "project"
    root.mkdir()
    spam = "head -c 70000000 /dev/zero | tr '\\0' x"
    cfg = make_config(root, tmp_path / "out", clean_cmd="", build_cmd=f"{spam}; touch app")
    outcome = run_build(cfg, BuildMode.baseline())
    assert outcome.succeeded
    head = f"$ {cfg.build_cmd}\n".encode()
    assert outcome.log_path.stat().st_size == LOG_CAP_BYTES + len(TRUNCATION_MARKER)
    with outcome.log_path.open("rb") as log:
        assert log.read(len(head) + 3) == head + b"xxx"
        log.seek(-len(TRUNCATION_MARKER) - 3, os.SEEK_END)
        assert log.read() == b"xxx" + TRUNCATION_MARKER.encode()


# 18.8 MB of compile lines, then a GNU ld report, a line that is no UTF-8 and
# ends in "\r\n", and a failed link.
_LOUD_FAILING_LINK = r"""yes "cc -O2 -g -fvisibility=hidden -fno-omit-frame-pointer -Wall -Wextra \
-Iinclude -Ithird_party/include -DNDEBUG -D_FORTIFY_SOURCE=2 -c src/unit.c -o obj/unit.o" |
    head -n 120000
printf '%s\n' "/usr/bin/ld: obj/main.o: in function \`main':" \
    "src/main.c:(.text+0x15): undefined reference to \`missing_api'"
printf 'ld: \377 error: bad \342\202 byte\r\n'
exit 1
"""


def test_a_failed_build_streams_its_log_and_parses_it_from_the_file(tmp_path):
    root = tmp_path / "project"
    root.mkdir()
    (root / "build.sh").write_text(_LOUD_FAILING_LINK)
    cfg = make_config(root, tmp_path / "out", clean_cmd="true", build_cmd="sh build.sh")
    # The log as the whole-log build wrote it: each step's command line, then its output.
    expected = b"".join(
        f"$ {step}\n".encode()
        + subprocess.run(step, shell=True, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT).stdout
        for step in (cfg.clean_cmd, cfg.build_cmd)
    )
    assert len(expected) >= 16_000_000
    tracemalloc.start()
    try:
        outcome = run_build(cfg, BuildMode.baseline())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not outcome.succeeded
    assert outcome.log_path.read_bytes() == expected
    text = expected.decode("utf-8", errors="replace")
    assert list(outcome.diagnostics) == parse_diagnostics(text)
    assert [(d.kind, d.symbol, d.source_object) for d in outcome.diagnostics] == [
        (DiagnosticKind.UNDEFINED_REFERENCE, "missing_api", "src/main.c"),
        (DiagnosticKind.OTHER, None, None),
    ]
    assert peak < 4_000_000


_LOG_PIECES = st.sampled_from([
    b"/usr/bin/ld: obj/a.o: in function `main':\n",
    b"src/a.c:(.text+0x15): undefined reference to `api'\n",
    b"/usr/bin/ld: bin/b: hidden symbol `api' in obj/b.o is referenced by DSO\n",
    b"ld.lld: error: undefined symbol: api\n",
    b">>> referenced by b.c\n",
    b">>>               obj/b.o:(main)\n",
    b"error: ", b"\r\n", b"\r", b"\n", b"\x0c", b"\xc2\x85", b"\xe2\x80\xa8",
    b"\xff", b"\xe2\x82", b"\xe2\x82\xac", b"\xf0\x9f\x98",
])


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(_LOG_PIECES | st.binary(max_size=6), max_size=30),
    block_size=st.integers(1, 12),
)
def test_a_log_read_a_block_at_a_time_parses_as_its_whole_text(pieces, block_size):
    data = b"".join(pieces)
    text = data.decode("utf-8", errors="replace")
    assert list(read_ir_lines(io.BytesIO(data), block_size)) == text.splitlines()
    streamed = build._parse_lines(read_ir_lines(io.BytesIO(data), block_size))
    assert streamed == parse_diagnostics(text)


# ------------------------------------------------- make's jobserver, no clang

# Each step prints the MAKEFLAGS it sees, and whether it is set at all.
_SHOW_MAKEFLAGS = "printf '%s [%s] %s\\n' {step} \"$MAKEFLAGS\" \"${{MAKEFLAGS+set}}\""
_STEPS = ("clean", "configure", "build")


def _makeflags_seen(tmp_path, mode_kind):
    """Run one build whose steps print their MAKEFLAGS; returns what each step saw."""
    root = tmp_path / "project"
    root.mkdir(exist_ok=True)
    cfg = make_config(
        root,
        tmp_path / "out",
        clean_cmd=_SHOW_MAKEFLAGS.format(step="clean"),
        configure_cmd=_SHOW_MAKEFLAGS.format(step="configure"),
        build_cmd=_SHOW_MAKEFLAGS.format(step="build") + " && touch app",
    )
    if mode_kind is BuildKind.BASELINE:
        mode = BuildMode.baseline()
    else:
        ignorelist = tmp_path / "out" / "cfi.ignorelist"
        ignorelist.parent.mkdir(parents=True, exist_ok=True)
        ignorelist.write_text("")
        mode = BuildMode.cfi(("cfi-icall",), ignorelist)
    outcome = run_build(cfg, mode)
    assert outcome.succeeded
    seen = {}
    for line in outcome.log_path.read_text().splitlines():
        step, _, rest = line.partition(" ")
        if step in _STEPS:
            seen[step] = rest
    assert set(seen) == set(_STEPS)
    return seen


@pytest.mark.parametrize("mode_kind", list(BuildKind))
@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
def test_every_step_gets_a_jobserver_sized_by_the_usable_cpus(
    tmp_path, monkeypatch, mode_kind, cpus
):
    monkeypatch.delenv("MAKEFLAGS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    seen = _makeflags_seen(tmp_path, mode_kind)
    assert seen == {step: f"[-j{len(cpus)} -k -Otarget] set" for step in _STEPS}
    assert "MAKEFLAGS" not in os.environ


@pytest.mark.parametrize("mode_kind", list(BuildKind))
@pytest.mark.parametrize("value", ["", "-j1", " -s  --no-print-directory ", "w -- X=1"])
def test_a_makeflags_already_set_passes_through(tmp_path, monkeypatch, mode_kind, value):
    monkeypatch.setenv("MAKEFLAGS", value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    seen = _makeflags_seen(tmp_path, mode_kind)
    assert seen == {step: f"[{value}] set" for step in _STEPS}
    assert os.environ["MAKEFLAGS"] == value


def test_the_tests_get_no_makeflags_from_a_build(tmp_path, monkeypatch):
    monkeypatch.delenv("MAKEFLAGS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    envs = []

    def recording(cmds, timeout, **kwargs):
        # The environment run_traced_many would spawn the tests in.
        envs.append(tracing._env_block(kwargs.get("env")))
        return [TraceOutcome(OutcomeKind.EXITED, 0) for _ in cmds]

    monkeypatch.setattr(harness, "run_traced_many", recording)
    _makeflags_seen(tmp_path, BuildKind.CFI)
    cfg = make_config(tmp_path / "project", tmp_path / "out")
    harness.run_cases(cfg, [harness.TestCase("t", "true")])
    assert len(envs) == 1 and b"MAKEFLAGS" not in envs[0]
