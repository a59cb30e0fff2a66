"""PC correction, frame-pointer unwinding, and live ptrace capture."""

import os
import shlex
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfiheal import tracing
from cfiheal.tracing import (
    MemoryRegion,
    OutcomeKind,
    TraceError,
    TrapSignal,
    correct_pc,
    run_traced,
    run_traced_many,
    unwind_frames,
)

from conftest import linker_map_symbol, needs_linux, reaped, refuse_seize


def test_correct_pc_table():
    assert correct_pc(TrapSignal.ILLEGAL_INSTRUCTION, 0x401234) == 0x401234
    assert correct_pc(TrapSignal.BREAKPOINT_TRAP, 0x401235) == 0x401234


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2**64 - 1))
def test_correct_pc_property(pc):
    assert correct_pc(TrapSignal.ILLEGAL_INSTRUCTION, pc) == pc
    assert correct_pc(TrapSignal.BREAKPOINT_TRAP, pc) == pc - 1


class _Memory:
    def __init__(self, words):
        self.words = dict(words)

    def read(self, addr):
        return self.words.get(addr)


def test_unwind_two_frames():
    # FP0 -> saved FP1 (higher) -> both return slots readable.
    mem = _Memory({0x1000: 0x2000, 0x1008: 0xAAAA, 0x2000: 0, 0x2008: 0xBBBB})
    assert unwind_frames({"rbp": 0x1000}, mem.read) == (0xAAAA, 0xBBBB)


def test_unwind_requires_monotonic_frame_pointers():
    # FP1 below FP0 means a corrupt or foreign frame; stop at depth 1.
    mem = _Memory({0x2000: 0x1000, 0x2008: 0xAAAA, 0x1008: 0xBBBB})
    assert unwind_frames({"rbp": 0x2000}, mem.read) == (0xAAAA,)


def test_unwind_equal_frame_pointer_stops():
    mem = _Memory({0x1000: 0x1000, 0x1008: 0xAAAA})
    assert unwind_frames({"rbp": 0x1000}, mem.read) == (0xAAAA,)


def test_unwind_truncates_on_unreadable_return_slot():
    assert unwind_frames({"rbp": 0x1000}, _Memory({}).read) == ()


def test_unwind_truncates_on_unreadable_saved_fp():
    mem = _Memory({0x1008: 0xAAAA})
    assert unwind_frames({"rbp": 0x1000}, mem.read) == (0xAAAA,)


def test_unwind_truncates_on_unreadable_second_return():
    mem = _Memory({0x1000: 0x2000, 0x1008: 0xAAAA})
    assert unwind_frames({"rbp": 0x1000}, mem.read) == (0xAAAA,)


def test_unwind_zero_fp_yields_nothing():
    assert unwind_frames({"rbp": 0}, _Memory({0x8: 1}).read) == ()
    assert unwind_frames({}, _Memory({}).read) == ()


def test_unwind_depth_never_exceeds_two():
    mem = _Memory(
        {0x1000: 0x2000, 0x1008: 1, 0x2000: 0x3000, 0x2008: 2, 0x3000: 0x4000, 0x3008: 3}
    )
    assert unwind_frames({"rbp": 0x1000}, mem.read) == (1, 2)


def test_memory_region_contains():
    region = MemoryRegion(start=0x1000, end=0x2000, perms="r-xp", offset=0, path=None)
    assert region.contains(0x1000)
    assert region.contains(0x1FFF)
    assert not region.contains(0x2000)


@needs_linux
def test_run_traced_clean_exit(tmp_path):
    outcome = run_traced("echo out; echo err >&2; exit 0", timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.EXITED
    assert outcome.exit_status == 0
    assert outcome.trap is None
    assert outcome.wall_time > 0


@needs_linux
@pytest.mark.parametrize("caller_stdin", ["open", "closed"])
def test_tracee_stdio_is_dev_null(tmp_path, caller_stdin):
    check = 'for fd in 0 1 2; do [ "$(readlink /proc/$$/fd/$fd)" = /dev/null ] || exit 1; done'
    saved = os.dup(0)
    if caller_stdin == "closed":
        os.close(0)
    try:
        outcome = run_traced(check, timeout=10, cwd=tmp_path)
    finally:
        os.dup2(saved, 0)
        os.close(saved)
    assert outcome.kind is OutcomeKind.EXITED and outcome.exit_status == 0


@needs_linux
def test_large_output_does_not_block(tmp_path):
    # Far more than a pipe buffer on each stream.
    cmd = "head -c 300000 /dev/zero; head -c 300000 /dev/zero >&2"
    outcome = run_traced(cmd, timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.EXITED and outcome.exit_status == 0


@needs_linux
def test_run_traced_nonzero_exit(tmp_path):
    outcome = run_traced("exit 7", timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.EXITED
    assert outcome.exit_status == 7


@needs_linux
def test_run_traced_missing_program(tmp_path):
    # The shell looks the program up and reports the miss as exit 127.
    outcome = run_traced("definitely-not-a-real-binary-xyz", timeout=10, cwd=tmp_path)
    assert (outcome.kind, outcome.exit_status) == (OutcomeKind.EXITED, 127)


@needs_linux
def test_run_traced_signalled(tmp_path):
    outcome = run_traced('sh -c "kill -SEGV $$"', timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.SIGNALLED
    assert outcome.term_signal == signal.SIGSEGV


@needs_linux
def test_run_traced_timeout(tmp_path):
    outcome = run_traced("sleep 30", timeout=1.0, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.TIMED_OUT
    assert outcome.wall_time < 10


@needs_linux
def test_ud2_trap_capture(asm_binaries, tmp_path):
    binary, map_path = asm_binaries["ud2"]
    marker = linker_map_symbol(map_path, "trap_marker")
    after_call = linker_map_symbol(map_path, "after_call")

    outcome = run_traced(shlex.quote(str(binary)), timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.TRAPPED
    trap = outcome.trap
    assert trap is not None
    assert trap.signal is TrapSignal.ILLEGAL_INSTRUCTION
    # Static non-PIE binary: runtime addresses equal link-time addresses.
    assert trap.raw_pc == marker
    assert trap.fault_pc == marker
    assert trap.return_addresses == (after_call,)
    assert trap.registers["rip"] == marker
    assert trap.binary is not None and trap.binary.name == "trap"
    assert any(r.contains(marker) and "x" in r.perms for r in trap.memory_map)


@needs_linux
def test_int3_trap_reports_previous_byte(asm_binaries, tmp_path):
    binary, map_path = asm_binaries["int3"]
    marker = linker_map_symbol(map_path, "break_marker")

    outcome = run_traced(shlex.quote(str(binary)), timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.TRAPPED
    trap = outcome.trap
    assert trap is not None
    assert trap.signal is TrapSignal.BREAKPOINT_TRAP
    assert trap.raw_pc == marker + 1
    assert trap.fault_pc == marker


@needs_linux
def test_trap_in_forked_descendant(asm_binaries, tmp_path):
    binary, map_path = asm_binaries["ud2"]
    marker = linker_map_symbol(map_path, "trap_marker")

    outcome = run_traced(f"{binary}", timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.TRAPPED
    assert outcome.trap is not None
    assert outcome.trap.fault_pc == marker


# Commands for the three outcomes the supervisor returns on its own.
_CLEAN = ("exit 0", 10, OutcomeKind.EXITED)
_TRAP = ("kill -ILL $$", 10, OutcomeKind.TRAPPED)
_TIMEOUT = ("sleep 30", 0.5, OutcomeKind.TIMED_OUT)


_CALLER_MASK = {signal.SIGUSR1}


@pytest.fixture
def caller_mask():
    """Give the calling thread a known, non-empty mask; restore it afterwards."""
    before = signal.pthread_sigmask(signal.SIG_SETMASK, _CALLER_MASK)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, before)


def _current_mask():
    return signal.pthread_sigmask(signal.SIG_BLOCK, ())


def _kinds(cmd, timeout, cwd) -> list[OutcomeKind]:
    """The outcome kind of one run_traced, then of each run of a jobs-2 batch of cmd twice."""
    batch = run_traced_many([cmd, cmd], timeout, cwd=cwd, jobs=2)
    return [run_traced(cmd, timeout=timeout, cwd=cwd).kind, *(o.kind for o in batch)]


@needs_linux
@pytest.mark.parametrize("cmd, timeout, kind", [_CLEAN, _TRAP, _TIMEOUT])
def test_run_traced_restores_signal_mask(tmp_path, caller_mask, cmd, timeout, kind):
    assert _kinds(cmd, timeout, tmp_path) == [kind] * 3
    assert _current_mask() == _CALLER_MASK


@needs_linux
def test_run_traced_restores_signal_mask_on_error(tmp_path, caller_mask, monkeypatch):
    refuse_seize(monkeypatch)
    with pytest.raises(TraceError):
        run_traced("exit 0", timeout=10, cwd=tmp_path)
    assert _current_mask() == _CALLER_MASK


@needs_linux
def test_tracee_inherits_caller_signal_mask(tmp_path, caller_mask):
    # The shell execs grep: dash clears the mask of the children it forks.
    blocked = "SigBlk:\t%016x" % (1 << (signal.SIGUSR1 - 1))
    cmd = ["grep", "-qxF", blocked, "/proc/self/status"]
    assert subprocess.run(cmd).returncode == 0
    outcome = run_traced("exec " + shlex.join(cmd), timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.EXITED and outcome.exit_status == 0


@needs_linux
def test_tracee_has_sigpipe_and_sigxfsz_at_default(tmp_path):
    # Python ignores both; subprocess.run restores them, and so must the tracer.
    assert signal.getsignal(signal.SIGPIPE) is signal.SIG_IGN
    outcome = run_traced("grep '^SigIgn:' /proc/$$/status > sigign", timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.EXITED and outcome.exit_status == 0
    ignored = int((tmp_path / "sigign").read_text().split()[1], 16)
    for sig in (signal.SIGPIPE, signal.SIGXFSZ):
        assert not ignored & (1 << (sig - 1)), sig.name


@needs_linux
def test_first_stop_wait_honours_timeout(tmp_path, monkeypatch):
    # The spawned tracee is a sleep in its own session: it never stops itself.
    real_spawn = os.posix_spawn
    spawned = []

    def never_stops(path, argv, env, **kwargs):
        assert kwargs["setsid"]
        spawned.append(real_spawn("/bin/sleep", ["sleep", "30"], env, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(os, "posix_spawn", never_stops)
    outcome = run_traced("true", timeout=0.5, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.TIMED_OUT
    assert outcome.wall_time < 10
    assert len(spawned) == 1 and _dead(spawned[0])


@needs_linux
@pytest.mark.parametrize("cmd, timeout, kind", [_CLEAN, _TRAP, _TIMEOUT])
def test_run_traced_never_forks(tmp_path, monkeypatch, cmd, timeout, kind):
    def no_fork():
        raise AssertionError("run_traced must not fork the calling process")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _kinds(cmd, timeout, tmp_path) == [kind] * 3


@needs_linux
@pytest.mark.parametrize("cmd", ["pwd -P > where"])
def test_cwd_name_is_quoted(tmp_path, cmd):
    odd = tmp_path / "a b'c$d"
    odd.mkdir()
    outcome = run_traced(cmd, timeout=10, cwd=odd)
    assert outcome.kind is OutcomeKind.EXITED and outcome.exit_status == 0
    assert (odd / "where").read_text() == f"{odd.resolve()}\n"


@needs_linux
@pytest.mark.parametrize("cmd", ["exit 0"])
def test_missing_cwd_exits_127(tmp_path, cmd):
    outcome = run_traced(cmd, timeout=10, cwd=tmp_path / "missing")
    assert outcome.kind is OutcomeKind.EXITED and outcome.exit_status == 127


@needs_linux
def test_string_tracee_is_a_session_leader_shell(tmp_path):
    cmd = "cat /proc/$$/stat > stat; cat /proc/$$/cmdline > cmdline"
    outcome = run_traced(cmd, timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.EXITED and outcome.exit_status == 0
    pid, rest = (tmp_path / "stat").read_text().split(" ", 1)
    assert rest.rsplit(")", 1)[1].split()[3] == pid
    cmdline = (tmp_path / "cmdline").read_bytes().split(b"\0")
    assert cmdline[:2] == [b"/bin/sh", b"-c"]
    assert b"kill -STOP $$" in cmdline[2]


@needs_linux
@pytest.mark.parametrize("cmd, timeout, kind", [_CLEAN, _TRAP, _TIMEOUT])
def test_run_traced_never_sleep_polls(tmp_path, monkeypatch, cmd, timeout, kind):
    def no_sleep(seconds):
        raise AssertionError("run_traced must block on SIGCHLD, not sleep-poll")

    monkeypatch.setattr(tracing.time, "sleep", no_sleep)
    assert _kinds(cmd, timeout, tmp_path) == [kind] * 3


@needs_linux
@pytest.mark.parametrize("cmd, timeout, kind", [_CLEAN, _TRAP, _TIMEOUT])
def test_run_traced_starts_no_thread(tmp_path, monkeypatch, cmd, timeout, kind):
    def no_thread(self):
        raise AssertionError("run_traced must not start a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert _kinds(cmd, timeout, tmp_path) == [kind] * 3


def _dead(pid: int) -> bool:
    # A zombie counts as dead: PID 1 in a container may never reap it.
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@needs_linux
@pytest.mark.skipif(not os.access("/usr/bin/setsid", os.X_OK), reason="requires setsid(1)")
@pytest.mark.parametrize(
    "finale, timeout, kind",
    [("kill -ILL $$", 10, OutcomeKind.TRAPPED), ("sleep 30", 1.0, OutcomeKind.TIMED_OUT)],
)
def test_no_process_survives(tmp_path, finale, timeout, kind):
    # The grandchild leaves the tracee's session, so killpg(root) misses it.
    # Each tracee shell names its grandchild's pid file after its own pid.
    cmd = (
        "p=$$; /usr/bin/setsid sh -c \"echo \\$\\$ > grandchild.$p.tmp; "
        "mv grandchild.$p.tmp grandchild.$p.pid; exec sleep 30\" & "
        "while [ ! -s grandchild.$p.pid ]; do sleep 0.01; done; "
        + finale
    )
    assert _kinds(cmd, timeout, tmp_path) == [kind] * 3
    grandchildren = [int(f.read_text()) for f in tmp_path.glob("grandchild.*.pid")]
    assert len(grandchildren) == 3
    assert all(map(_dead, grandchildren))


@needs_linux
def test_concurrent_monitors_keep_their_own_outcomes(tmp_path):
    cmds = {"exit": "sleep 0.3; exit 3", "segv": "sleep 0.3; kill -SEGV $$"}
    outcomes: dict[str, object] = {}
    start = threading.Barrier(len(cmds))

    def monitor(name: str) -> None:
        start.wait(timeout=10)
        outcomes[name] = run_traced(cmds[name], timeout=30, cwd=tmp_path)

    threads = [threading.Thread(target=monitor, args=(name,)) for name in cmds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert outcomes["exit"].kind is OutcomeKind.EXITED
    assert outcomes["exit"].exit_status == 3
    assert outcomes["segv"].kind is OutcomeKind.SIGNALLED
    assert outcomes["segv"].term_signal == signal.SIGSEGV


@needs_linux
def test_monitor_exception_kills_the_tree(tmp_path, monkeypatch):
    def broken_maps(pid):
        raise RuntimeError("maps unreadable")

    monkeypatch.setattr(tracing, "read_memory_maps", broken_maps)
    cmd = (
        "sleep 30 & echo $! > sleeper.pid.tmp; mv sleeper.pid.tmp sleeper.pid; "
        "echo $$ > shell.pid.tmp; mv shell.pid.tmp shell.pid; kill -ILL $$"
    )
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="maps unreadable"):
        run_traced(cmd, timeout=10, cwd=tmp_path)
    assert time.monotonic() - started < 10
    for name in ("sleeper.pid", "shell.pid"):
        assert _dead(int((tmp_path / name).read_text()))


@needs_linux
def test_monitor_exception_kills_every_live_tree(tmp_path, monkeypatch):
    def broken_maps(pid):
        raise RuntimeError("maps unreadable")

    monkeypatch.setattr(tracing, "read_memory_maps", broken_maps)
    # The trapping tree traps only once the waiting tree has written its pids.
    waiting = (
        "sleep 30 & echo $! > waiting.sleeper.tmp; mv waiting.sleeper.tmp waiting.sleeper; "
        "echo $$ > waiting.shell.tmp; mv waiting.shell.tmp waiting.shell; wait"
    )
    trapping = (
        "while [ ! -s waiting.shell ]; do sleep 0.01; done; "
        "sleep 30 & echo $! > trapping.sleeper.tmp; mv trapping.sleeper.tmp trapping.sleeper; "
        "echo $$ > trapping.shell.tmp; mv trapping.shell.tmp trapping.shell; kill -ILL $$"
    )
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="maps unreadable"):
        run_traced_many([waiting, trapping], 10, cwd=tmp_path, jobs=2)
    assert time.monotonic() - started < 10
    for name in ("waiting.sleeper", "waiting.shell", "trapping.sleeper", "trapping.shell"):
        assert _dead(int((tmp_path / name).read_text())), name


@pytest.fixture(scope="module")
def gcc_trap(tmp_path_factory) -> Path:
    """A non-PIE gcc binary whose main executes ud2."""
    if shutil.which("gcc") is None:
        pytest.skip("requires gcc")
    tmp = tmp_path_factory.mktemp("gcc-trap")
    (tmp / "trap.c").write_text("int main(void) { __builtin_trap(); }\n")
    subprocess.run(
        ["gcc", "-O0", "-no-pie", "-fno-omit-frame-pointer", "-o", "trap", "trap.c"],
        cwd=tmp,
        check=True,
        capture_output=True,
    )
    return tmp / "trap"


def _observed(outcome) -> tuple:
    """What a run reports, less its wall time and the addresses ASLR moves."""
    trap = outcome.trap
    return (
        outcome.kind,
        outcome.exit_status,
        outcome.term_signal,
        trap and (trap.signal, trap.fault_pc, len(trap.return_addresses), trap.binary),
    )


_EXITED, _SIGNALLED, _TRAPPED, _TIMED_OUT = (
    OutcomeKind.EXITED, OutcomeKind.SIGNALLED, OutcomeKind.TRAPPED, OutcomeKind.TIMED_OUT
)


@needs_linux
@pytest.mark.parametrize(
    "where, kinds",
    [
        pytest.param(
            "cwd", [_EXITED, _EXITED, _SIGNALLED, _TRAPPED, _TIMED_OUT, _EXITED], id="cwd"
        ),
        pytest.param("missing", [_EXITED] * 6, id="missing-cwd"),
    ],
)
def test_batch_matches_one_run_per_command(tmp_path, gcc_trap, where, kinds):
    cwd = tmp_path if where == "cwd" else tmp_path / where
    cmds = ["exit 0", "exit 7", 'sh -c "kill -SEGV $$"', shlex.quote(str(gcc_trap)), "sleep 30", "true"]
    singles = [_observed(run_traced(cmd, timeout=0.5, cwd=cwd)) for cmd in cmds]
    assert [kind for kind, *_ in singles] == kinds
    for jobs in (1, 2, 3):
        batch = run_traced_many(cmds, 0.5, cwd=cwd, jobs=jobs)
        assert [_observed(outcome) for outcome in batch] == singles, jobs


@needs_linux
def test_timed_out_tree_holds_up_no_other(tmp_path):
    slow, quick, after = run_traced_many(["sleep 30", "exit 0", "exit 3"], 2.0, cwd=tmp_path, jobs=2)
    assert slow.kind is OutcomeKind.TIMED_OUT
    assert (quick.kind, quick.exit_status) == (OutcomeKind.EXITED, 0)
    assert (after.kind, after.exit_status) == (OutcomeKind.EXITED, 3)
    assert quick.wall_time < 1.0 and after.wall_time < 1.0


@needs_linux
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_batch_never_exceeds_jobs_live_roots(tmp_path, monkeypatch, jobs):
    real_spawn = tracing._spawn_traced
    roots, live_at_spawn = [], []

    def counting(cmd, env, kit):
        live_at_spawn.append(sum(not _dead(pid) for pid in roots))
        roots.append(real_spawn(cmd, env, kit))
        return roots[-1]

    monkeypatch.setattr(tracing, "_spawn_traced", counting)
    outcomes = run_traced_many(["sleep 0.1"] * 6, 10, cwd=tmp_path, jobs=jobs)
    assert [(o.kind, o.exit_status) for o in outcomes] == [(OutcomeKind.EXITED, 0)] * 6
    # Every slot fills, and a root is spawned only into a free one.
    assert max(live_at_spawn) == jobs - 1


def test_batch_needs_a_job():
    with pytest.raises(ValueError, match="jobs"):
        run_traced_many(["true"], 10, jobs=0)


def _marked(marker: str) -> list[int]:
    """Live processes whose command line holds `marker`."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            cmdline = (entry / "cmdline").read_bytes() if entry.name.isdigit() else b""
        except OSError:
            continue
        if marker.encode() in cmdline and not _dead(int(entry.name)):
            found.append(int(entry.name))
    return found


@needs_linux
@pytest.mark.skipif(not os.access("/usr/bin/setsid", os.X_OK), reason="requires setsid(1)")
def test_trap_drains_forks_in_flight(tmp_path, monkeypatch):
    # The loop leaves the root's session, so killpg(root) misses it, and it
    # forks without pause, so at the trap a fork the monitor has not yet seen
    # is often in flight. One tracee at a time keeps the process count small.
    # A long drain cap turns a wait on a tracee that will not report (a stop
    # already consumed, a blocked vfork parent) into a slow run.
    monkeypatch.setattr(tracing, "_DRAIN_CAP", 5.0)
    marker = f"cfiheal-drain-{os.getpid()}-{time.monotonic_ns()}"
    cmd = f"/usr/bin/setsid sh -c ': {marker}; while :; do /bin/true; done' & sleep 0.05; kill -ILL $$"
    leaks, walls = [], []
    for _ in range(20):
        outcome = run_traced(cmd, timeout=10, cwd=tmp_path)
        walls.append(outcome.wall_time)
        assert outcome.kind is OutcomeKind.TRAPPED
        left = _marked(marker)
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        leaks.append(len(left))
    assert leaks == [0] * 20
    assert max(walls) < 2.0


@needs_linux
def test_trap_drain_stops_each_thread(tmp_path, monkeypatch):
    # A process-directed SIGSTOP stops one thread of a process; the drain
    # signals each thread, so it does not wait out its cap on a spinning one.
    monkeypatch.setattr(tracing, "_DRAIN_CAP", 5.0)
    script = (
        "import signal, threading, time\n"
        "def spin():\n"
        "    while True:\n"
        "        pass\n"
        "for _ in range(2):\n"
        "    threading.Thread(target=spin, daemon=True).start()\n"
        "time.sleep(0.05)\n"
        "signal.pthread_kill(threading.main_thread().ident, signal.SIGILL)\n"
    )
    outcome = run_traced(shlex.join([sys.executable, "-c", script]), timeout=10, cwd=tmp_path)
    assert outcome.kind is OutcomeKind.TRAPPED
    assert outcome.wall_time < 2.0


@needs_linux
def test_two_exec_test_costs_at_most_ten_wait_statuses(tmp_path, monkeypatch):
    # One stop for the shell's own SIGSTOP, a vfork event, the child's first
    # stop and a SIGCHLD stop per command, and three exits.
    real_waitpid = os.waitpid
    counts = []

    def counting(pid, options):
        wpid, status = real_waitpid(pid, options)
        counts[-1] += wpid != 0
        return wpid, status

    monkeypatch.setattr(os, "waitpid", counting)
    for _ in range(5):
        counts.append(0)
        outcome = run_traced("/bin/true && /bin/true", timeout=10, cwd=tmp_path)
        assert (outcome.kind, outcome.exit_status) == (OutcomeKind.EXITED, 0)
    assert max(counts) <= 10, counts


@needs_linux
def test_reaped_tree_is_not_killed(tmp_path, monkeypatch):
    # Nothing is left after a clean exit, and the root's reaped pid may by now
    # name another process group.
    kills = []
    monkeypatch.setattr(os, "killpg", lambda *args: kills.append(("killpg", *args)))
    monkeypatch.setattr(os, "kill", lambda *args: kills.append(("kill", *args)))
    single = run_traced("/bin/true && /bin/true", timeout=10, cwd=tmp_path)
    batch = run_traced_many(["exit 0", "exit 3", "true"], 10, cwd=tmp_path, jobs=2)
    assert [(o.kind, o.exit_status) for o in (single, *batch)] == [
        (OutcomeKind.EXITED, 0), (OutcomeKind.EXITED, 0), (OutcomeKind.EXITED, 3), (OutcomeKind.EXITED, 0)
    ]
    assert kills == []


@needs_linux
def test_a_root_that_cannot_be_seized_is_killed_and_raises(tmp_path, monkeypatch):
    refused = refuse_seize(monkeypatch)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, set())
    with pytest.raises(TraceError, match="PTRACE_SEIZE failed"):
        run_traced("exit 0", timeout=10, cwd=tmp_path)
    with pytest.raises(TraceError, match="PTRACE_SEIZE failed"):
        run_traced_many(["exit 0", "true", "exit 3"], 10, cwd=tmp_path, jobs=2)
    # The batch stops at its first refusal; every refused shell was killed and reaped.
    assert len(refused) == 2 and all(map(reaped, refused))
    assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == mask


@needs_linux
@pytest.mark.parametrize("cmd", ["exit 0"])
def test_a_root_that_exited_before_its_seize_gives_its_exit_status(tmp_path, monkeypatch, cmd):
    refused = refuse_seize(monkeypatch, exited_first=True)
    outcome = run_traced(cmd, timeout=10, cwd=tmp_path / "missing")
    assert (outcome.kind, outcome.exit_status) == (OutcomeKind.EXITED, 127)
    assert len(refused) == 1 and reaped(refused[0])
