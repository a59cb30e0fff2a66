"""Trap forensics: supervise a test process tree and capture CFI traps.

CFI violations on x86_64 execute ud2 and raise SIGILL in the faulting task.
The monitor never forks itself. It spawns the command with posix_spawn as a
session-leader /bin/sh that stops itself before the command, seizes that
shell with PTRACE_SEIZE while it is stopped, resumes it with PTRACE_CONT
from the ptrace-stop the seize leaves it in (no SIGCONT, so no
signal-delivery stop and no group-stop-end stop), follows every descendant
(fork/vfork/clone/exec), and converts the first SIGILL or genuine SIGTRAP
stop anywhere in the tree into a TrapEvent carrying the corrected fault PC,
up to two frame-pointer-unwound return addresses, a register snapshot, and
the faulting task's memory map. The tracee tree is terminated after the trap;
execution never resumes past a violation. The tracee's stdin, stdout and
stderr are one read-write /dev/null descriptor: no output is read or kept, so
no tracee blocks on a full pipe and the monitor runs no thread of its own.

Program-counter correction is trap-flavor specific: SIGILL stops report the
faulting instruction address directly, while SIGTRAP from an int3 byte
reports the address after the trap instruction, so one byte is subtracted.

Unwinding walks saved frame pointers only (no call-frame metadata): the
return address lives at [FP + 8] and the caller's frame pointer at [FP].
The walk is bounded at depth two and truncates on any failed memory read or
non-monotonic frame chain, so instrumented builds must keep frame pointers.

One monitor in the calling thread supervises a batch of commands, up to
`jobs` tracee trees at a time (run_traced_many; run_traced is the batch of
one). Every pid of every live tree maps to the tree that owns it, so all
ptrace requests for a tree are issued from that one control context, and
each tree keeps its own deadline, counted from its own spawn, its own first
trap and its own kill. Outcomes come back in input order. The monitor
sleeps until something happens: while a batch runs, SIGCHLD is blocked in
the calling thread only, and when a drain of every live tree's pids finds
nothing it waits in sigtimedwait for the next SIGCHLD, up to the nearest
deadline. Because each sleep follows a full drain, a wake-up consumed while
killing one tree cannot hide another tree's status. The caller's mask is
restored on return, and every tracee is spawned with it, so tested programs
see the caller's mask. SIGCHLD is process-directed, so a library caller's
other thread may take a wake-up meant for this monitor; each wait is
therefore capped at _WAKE_CAP seconds, after which the monitor drains again.

A fork the monitor has not yet drained leaves a child it does not know, which
killpg(root) misses if its parent left the root's process group. So before
the kill each running tracee gets SIGSTOP, and each fork, vfork or clone event
drained meanwhile adds its child, until every tracee is in a ptrace-stop,
dead, or a vfork parent blocked on a child that has not exec'd.

Concurrent monitors in one process stay isolated because each drains only its
own PIDs with WNOHANG|WUNTRACED|__WALL (never waitpid(-1)); a SIGCHLD one
of them takes costs the others at most one capped wait, never a lost status.
"""

from __future__ import annotations

import ctypes
import os
import re
import shlex
import shutil
import signal
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

PTRACE_PEEKTEXT = 1
PTRACE_PEEKDATA = 2
PTRACE_CONT = 7
PTRACE_KILL = 8
PTRACE_GETREGS = 12
PTRACE_GETEVENTMSG = 0x4201
PTRACE_SEIZE = 0x4206

PTRACE_O_TRACEFORK = 0x2
PTRACE_O_TRACEVFORK = 0x4
PTRACE_O_TRACECLONE = 0x8
PTRACE_O_TRACEEXEC = 0x10
PTRACE_O_EXITKILL = 0x100000

PTRACE_EVENT_FORK = 1
PTRACE_EVENT_VFORK = 2
PTRACE_EVENT_CLONE = 3
PTRACE_EVENT_EXEC = 4

_FOLLOW_OPTIONS = (
    PTRACE_O_TRACEFORK
    | PTRACE_O_TRACEVFORK
    | PTRACE_O_TRACECLONE
    | PTRACE_O_TRACEEXEC
    | PTRACE_O_EXITKILL
)

_WALL = 0x40000000
_SYS_TKILL = 200  # x86_64: a thread-directed signal, so each thread stops
_WORD_MASK = (1 << 64) - 1

# Longest single wait for SIGCHLD, in seconds: bounds the delay when another
# thread took the wake-up.
_WAKE_CAP = 0.05

# Longest wait, in seconds, for the tree to stop before the kill. Past it a
# tracee that would not stop is killed anyway, and a fork in flight may escape.
_DRAIN_CAP = 0.25

# x86_64 user_regs_struct, in kernel declaration order.
_REG_FIELDS = (
    "r15", "r14", "r13", "r12", "rbp", "rbx", "r11", "r10",
    "r9", "r8", "rax", "rcx", "rdx", "rsi", "rdi", "orig_rax",
    "rip", "cs", "eflags", "rsp", "ss", "fs_base", "gs_base",
    "ds", "es", "fs", "gs",
)


class _UserRegs(ctypes.Structure):
    _fields_ = [(name, ctypes.c_ulonglong) for name in _REG_FIELDS]


_libc = ctypes.CDLL("libc.so.6", use_errno=True)
_libc.ptrace.restype = ctypes.c_long
_libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
_libc.syscall.restype = ctypes.c_long
_libc.syscall.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_long]


class TraceError(RuntimeError):
    """The monitor itself failed (not the tracee)."""


class PtraceError(OSError):
    def __init__(self, request: int, pid: int, errno_: int):
        super().__init__(errno_, os.strerror(errno_))
        self.request = request
        self.pid = pid


def _ptrace(request: int, pid: int, addr, data) -> int:
    ctypes.set_errno(0)
    result = _libc.ptrace(request, pid, addr, data)
    if result == -1:
        err = ctypes.get_errno()
        if err:
            raise PtraceError(request, pid, err)
    return result


def peek_word(pid: int, addr: int) -> int | None:
    """One 64-bit word of tracee memory; None on any fault.

    Reads that straddle into an unmapped page fail whole rather than being
    reassembled from partial bytes.
    """
    try:
        value = _ptrace(PTRACE_PEEKDATA, pid, ctypes.c_void_p(addr), None)
    except PtraceError:
        return None
    return value & _WORD_MASK


class TrapSignal(Enum):
    ILLEGAL_INSTRUCTION = signal.SIGILL
    BREAKPOINT_TRAP = signal.SIGTRAP


class OutcomeKind(Enum):
    EXITED = "Exited"
    TRAPPED = "Trapped"
    TIMED_OUT = "TimedOut"
    SIGNALLED = "Signalled"


@dataclass(frozen=True)
class MemoryRegion:
    start: int
    end: int
    perms: str
    offset: int
    path: str | None

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


@dataclass(frozen=True)
class TrapEvent:
    signal: TrapSignal
    raw_pc: int
    fault_pc: int
    return_addresses: tuple[int, ...]
    registers: Mapping[str, int]
    binary: Path | None
    memory_map: tuple[MemoryRegion, ...]


@dataclass(frozen=True)
class TraceOutcome:
    kind: OutcomeKind
    exit_status: int | None = None
    term_signal: int | None = None
    trap: TrapEvent | None = None
    wall_time: float = 0.0


def correct_pc(trap_signal: TrapSignal, raw_pc: int) -> int:
    """Fault PC from the reported PC: SIGILL is direct, int3 reports PC+1."""
    if trap_signal is TrapSignal.BREAKPOINT_TRAP:
        return raw_pc - 1
    return raw_pc


def unwind_frames(
    registers: Mapping[str, int], read_word: Callable[[int], int | None]
) -> tuple[int, ...]:
    """Up to two return addresses via saved frame pointers.

    ret0 = mem[FP0 + 8]; FP1 = mem[FP0]; ret1 = mem[FP1 + 8] is included only
    when FP1 > FP0 (stack grows down, so an outer frame sits higher) and both
    reads succeed. Any failure truncates the result rather than raising.
    """
    fp0 = registers.get("rbp", 0)
    if not fp0:
        return ()
    ret0 = read_word(fp0 + 8)
    if ret0 is None:
        return ()
    fp1 = read_word(fp0)
    if fp1 is None or fp1 <= fp0:
        return (ret0,)
    ret1 = read_word(fp1 + 8)
    if ret1 is None:
        return (ret0,)
    return (ret0, ret1)


_MAPS_LINE = re.compile(
    r"^([0-9a-f]+)-([0-9a-f]+)\s+(\S+)\s+([0-9a-f]+)\s+\S+\s+\d+\s*(.*)$"
)


def read_memory_maps(pid: int) -> tuple[MemoryRegion, ...]:
    regions: list[MemoryRegion] = []
    try:
        text = Path(f"/proc/{pid}/maps").read_text()
    except OSError as exc:
        raise TraceError(f"cannot read memory map of pid {pid}: {exc}") from exc
    for line in text.splitlines():
        m = _MAPS_LINE.match(line)
        if not m:
            continue
        regions.append(
            MemoryRegion(
                start=int(m.group(1), 16),
                end=int(m.group(2), 16),
                perms=m.group(3),
                offset=int(m.group(4), 16),
                path=m.group(5) or None,
            )
        )
    return tuple(regions)


def region_for(regions: Sequence[MemoryRegion], addr: int) -> MemoryRegion | None:
    for region in regions:
        if region.contains(addr):
            return region
    return None


def _spawn_traced(
    cmd: str | Sequence[str],
    cwd: Path | None,
    env: dict | None,
    caller_mask: set[signal.Signals],
) -> int:
    """Spawn the tracee shell, which stops itself before the command; returns its pid.

    The shell is a session leader with `caller_mask` as its signal mask,
    SIGPIPE and SIGXFSZ at their default actions (Python ignores them), and
    /dev/null as fds 0-2. It changes to `cwd` (exit 127 on failure), sends
    itself SIGSTOP, then runs a string command or execs a list command.
    """
    prefix = ""
    if cwd is not None:
        prefix = f"cd -P -- {shlex.quote(str(Path(cwd).absolute()))} || exit 127\n"
    if isinstance(cmd, str):
        argv = ["/bin/sh", "-c", f"{prefix}kill -STOP $$\n{cmd}"]
    else:
        if not cmd:
            raise TraceError("empty command")
        program = cmd[0]
        if os.sep not in program:
            program = shutil.which(program, path=(env or os.environ).get("PATH", os.defpath))
        if program is None or not os.access(os.path.join(cwd or "", program), os.X_OK):
            raise TraceError(f"command not executable: {cmd[0]}")
        argv = ["/bin/sh", "-c", f'{prefix}kill -STOP $$\nexec "$@"', "sh", *cmd]
    null_fd = os.open(os.devnull, os.O_RDWR)
    try:
        return os.posix_spawn(
            "/bin/sh",
            argv,
            os.environ if env is None else env,
            file_actions=[(os.POSIX_SPAWN_DUP2, null_fd, fd) for fd in (0, 1, 2)],
            setsid=True,
            setsigmask=caller_mask,
            setsigdef=(signal.SIGPIPE, signal.SIGXFSZ),
        )
    finally:
        os.close(null_fd)


def _wait_own(pids: Iterable[int], deadline: float) -> list[tuple[int, int | None]]:
    """Drain `pids` only, sleeping on SIGCHLD between empty drains.

    Returns the (pid, status) pairs of the first non-empty drain, with status
    None for a pid that is no longer a waitable child, or [] if `deadline`
    passes first. The stop of a child not yet traced is reported too.
    SIGCHLD must be blocked in the calling thread.
    """
    while True:
        ready: list[tuple[int, int | None]] = []
        for pid in pids:
            try:
                wpid, status = os.waitpid(pid, os.WNOHANG | os.WUNTRACED | _WALL)
            except ChildProcessError:
                ready.append((pid, None))
                continue
            if wpid == pid:
                ready.append((pid, status))
        left = deadline - time.monotonic()
        if ready or left <= 0:
            return ready
        signal.sigtimedwait((signal.SIGCHLD,), min(left, _WAKE_CAP))


def _event_of(status: int) -> int:
    return (status >> 16) & 0xFF


class _Tree:
    """The live tracees of one command, as far as the monitor has drained them."""

    def __init__(self, index: int, root: int, started: float, timeout: float):
        self.index = index  # the command's place in the batch
        self.root = root
        self.started = started
        self.deadline = started + timeout
        # False until the root's first stop, where the monitor seizes it.
        self.seized = False
        self.pids = {root}
        # In a ptrace-stop whose status was consumed and that was not resumed.
        self.stopped: set[int] = set()
        # vfork child -> its parent, blocked until the child execs or exits.
        self.vfork_parent: dict[int, int] = {}

    def note(self, pid: int, status: int | None) -> bool:
        """Book one wait status of `pid`; True if it left `pid` in a ptrace-stop."""
        if status is None or not os.WIFSTOPPED(status):
            self.pids.discard(pid)
            self.stopped.discard(pid)
            self.vfork_parent.pop(pid, None)
            return False
        self.stopped.add(pid)
        event = _event_of(status)
        if event == PTRACE_EVENT_EXEC:
            self.vfork_parent.pop(pid, None)
        elif event in (PTRACE_EVENT_FORK, PTRACE_EVENT_VFORK, PTRACE_EVENT_CLONE):
            msg = ctypes.c_ulong()
            try:
                _ptrace(PTRACE_GETEVENTMSG, pid, None, ctypes.byref(msg))
            except PtraceError:  # killed since the stop: its death comes next
                return True
            self.pids.add(msg.value)
            if event == PTRACE_EVENT_VFORK:
                self.vfork_parent[msg.value] = pid
        return True

    def resume(self, pid: int, sig: int = 0) -> None:
        self.stopped.discard(pid)
        _ptrace(PTRACE_CONT, pid, None, ctypes.c_void_p(sig))


def _settle(tree: _Tree, waiting: Callable[[], set[int]], cap: float) -> None:
    """Book the statuses of the pids `waiting()` names until none or `cap` seconds."""
    deadline = time.monotonic() + cap
    while (pids := waiting()) and (ready := _wait_own(pids, deadline)):
        for pid, status in ready:
            tree.note(pid, status)


def _slay_tree(tree: _Tree) -> None:
    """Stop the tree and drain the forks it reports, then kill and reap it."""
    for pid in tree.pids - tree.stopped:
        _libc.syscall(_SYS_TKILL, pid, signal.SIGSTOP)
    _settle(tree, lambda: tree.pids - tree.stopped - set(tree.vfork_parent.values()), _DRAIN_CAP)
    try:
        os.killpg(tree.root, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for pid in tree.pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    _settle(tree, lambda: tree.pids, 2.0)


def _ended(status: int) -> dict:
    """TraceOutcome fields for the exit or death status of the root."""
    if os.WIFEXITED(status):
        return {"kind": OutcomeKind.EXITED, "exit_status": os.WEXITSTATUS(status)}
    return {"kind": OutcomeKind.SIGNALLED, "term_signal": os.WTERMSIG(status)}


def _capture_trap(pid: int, stop_signal: int) -> TrapEvent:
    trap_sig = TrapSignal(stop_signal)
    regs_struct = _UserRegs()
    _ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs_struct))
    registers = {name: int(getattr(regs_struct, name)) for name in _REG_FIELDS}
    raw_pc = registers["rip"]
    fault_pc = correct_pc(trap_sig, raw_pc)
    regions = read_memory_maps(pid)
    frames = unwind_frames(registers, lambda addr: peek_word(pid, addr))
    home = region_for(regions, fault_pc)
    return TrapEvent(
        signal=trap_sig,
        raw_pc=raw_pc,
        fault_pc=fault_pc,
        return_addresses=frames,
        registers=registers,
        binary=Path(home.path) if home and home.path else None,
        memory_map=regions,
    )


def run_traced(
    cmd: str | Sequence[str],
    timeout: float,
    *,
    cwd: Path | None = None,
    env: dict | None = None,
) -> TraceOutcome:
    """Run a command under trap supervision; first qualifying trap wins.

    A string command runs in a spawned /bin/sh; a sequence is exec'd from it.
    A cwd the shell cannot enter gives EXITED with status 127.
    Stdin, stdout and stderr are /dev/null; no output is kept. Timeout kills
    the entire tree and covers the wait for the tracee's first stop. SIGCHLD
    is blocked in the calling thread while the call runs; the tracee starts
    with the caller's mask, which is restored on every exit. The call starts
    no thread. It is the batch of one of run_traced_many.
    """
    return run_traced_many([cmd], timeout, cwd=cwd, env=env)[0]


def run_traced_many(
    cmds: Sequence[str | Sequence[str]],
    timeout: float,
    *,
    cwd: Path | None = None,
    env: dict | None = None,
    jobs: int = 1,
) -> list[TraceOutcome]:
    """Run each command as run_traced does, up to `jobs` at once; outcomes in input order.

    One monitor in the calling thread supervises every live tree. Each tree
    keeps its own deadline, counted from its own spawn, its own first trap
    and its own stop-then-kill; a tree that ends frees its slot for the next
    command. SIGCHLD is blocked once for the whole batch. If the monitor
    raises, every live tree is killed before the exception propagates.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    outcomes: list[TraceOutcome | None] = [None] * len(cmds)
    live: list[_Tree] = []

    def finish(tree: _Tree, kind: OutcomeKind, **kw) -> None:
        _slay_tree(tree)
        outcomes[tree.index] = TraceOutcome(
            kind=kind, wall_time=time.monotonic() - tree.started, **kw
        )
        live.remove(tree)

    caller_mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGCHLD,))
    spawned = 0
    try:
        while True:
            while len(live) < jobs and spawned < len(cmds):
                started = time.monotonic()
                root = _spawn_traced(cmds[spawned], cwd, env, caller_mask)
                live.append(_Tree(spawned, root, started, timeout))
                spawned += 1
            if not live:
                return outcomes
            now = time.monotonic()
            overdue = [tree for tree in live if now >= tree.deadline]
            for tree in overdue:
                finish(tree, OutcomeKind.TIMED_OUT)
            if overdue:
                continue
            # One drain covers every live tree, and the wait inside it starts
            # only after that drain: a wake-up one tree's kill consumed cannot
            # hide another tree's status.
            owner = {pid: tree for tree in live for pid in tree.pids}
            ready = _wait_own(owner, min(tree.deadline for tree in live))
            # Book the whole drain before acting on it: the statuses after a
            # trap are consumed too, and the kill must know their children.
            booked = [(owner[pid], pid, status) for pid, status in ready]
            stops = [tree.note(pid, status) for tree, pid, status in booked]
            for (tree, pid, status), is_stop in zip(booked, stops):
                if tree in live and (ended := _act(tree, pid, status, is_stop)):
                    finish(tree, **ended)
    except BaseException:
        # Lost root, a failed ptrace request, an error while capturing a trap,
        # KeyboardInterrupt: leave no tracee behind.
        for tree in live:
            _slay_tree(tree)
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, caller_mask)


def _act(tree: _Tree, pid: int, status: int | None, is_stop: bool) -> dict | None:
    """Act on one booked wait status; the outcome fields if it ends the tree's run."""
    if not tree.seized:
        # First stop: the shell's own SIGSTOP, before the command (or its exit,
        # if the cd failed). Seize it there; its ptrace-stop comes next, and
        # PTRACE_CONT from that stop runs the command. No SIGCONT is sent.
        if status is None:
            raise TraceError("tracee vanished before first stop")
        if not is_stop:
            return _ended(status)
        _ptrace(PTRACE_SEIZE, pid, None, ctypes.c_void_p(_FOLLOW_OPTIONS))
        tree.seized = True
        return None
    if not is_stop:
        if pid != tree.root:
            return None
        if status is None:
            raise TraceError("lost the root tracee without a wait status")
        return _ended(status)
    stop_signal = os.WSTOPSIG(status)
    try:
        if _event_of(status) or stop_signal == signal.SIGSTOP:
            # An event, a new descendant's auto-attach stop, or a job-control
            # stop, which this monitor suppresses.
            tree.resume(pid)
        elif stop_signal in (signal.SIGILL, signal.SIGTRAP):
            return {"kind": OutcomeKind.TRAPPED, "trap": _capture_trap(pid, stop_signal)}
        else:
            tree.resume(pid, stop_signal)
    except PtraceError:
        # The task died between the wait and the request; the next drain will
        # reap it.
        pass
    return None
