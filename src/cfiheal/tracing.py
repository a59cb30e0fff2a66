"""Trap forensics: supervise a test process tree and capture CFI traps.

CFI violations on x86_64 execute ud2 and raise SIGILL in the faulting task.
The monitor never forks itself. It spawns the command with posix_spawn as a
session-leader /bin/sh that stops itself before the command, and seizes that
shell with PTRACE_SEIZE as soon as posix_spawn returns. The shell's own
SIGSTOP then arrives as one signal-delivery stop, which the monitor
suppresses; a shell that stopped before the seize reports one
PTRACE_EVENT_STOP instead, and PTRACE_CONT from it runs the command (no
SIGCONT is ever sent). A shell the seize fails on is killed and reaped at
once: one that had already exited gives its exit status, and a live one,
which the host does not let this process trace, raises TraceError. The
monitor follows every descendant through its fork, vfork and clone events,
but not its execs, and converts the first SIGILL or genuine SIGTRAP stop
anywhere in the tree into a TrapEvent carrying the corrected fault PC, up
to two frame-pointer-unwound return addresses, a register snapshot, and the
faulting task's memory map. The tracee tree is terminated after the trap;
execution never resumes past a violation. The tracee's stdin, stdout and
stderr are one read-write /dev/null descriptor: no output is read or kept,
so no tracee blocks on a full pipe and the monitor runs no thread of its
own.

Program-counter correction is trap-flavor specific: SIGILL stops report the
faulting instruction address directly, while SIGTRAP from an int3 byte
reports the address after the trap instruction, so one byte is subtracted.

Unwinding walks saved frame pointers only (no call-frame metadata): the
return address lives at [FP + 8] and the caller's frame pointer at [FP].
The walk is bounded at depth two and truncates on any failed memory read or
non-monotonic frame chain, so instrumented builds must keep frame pointers.

One monitor in the calling thread supervises a batch of commands, up to
`jobs` tracee trees at a time (run_traced_many; run_traced is the batch of
one). Every pid of every live tree maps to the tree that owns it, a map kept
as events add pids and deaths remove them, so all ptrace requests for a tree
are issued from that one control context, and each tree keeps its own
deadline, counted from its own spawn, its own first trap and its own kill.
Outcomes come back in input order. The batch builds what its spawns share
once: the shell's cd/kill -STOP prefix, the /dev/null descriptor with its
file actions, and the environment, encoded to bytes. The monitor sleeps
until something happens: while a batch runs, SIGCHLD is blocked in the
calling thread only, and the monitor waits in sigtimedwait for the next
SIGCHLD, up to the nearest deadline, then drains every live tree's pids.
Each sleep follows such a drain, so a wake-up consumed while killing one
tree cannot hide another tree's status, and a status that arrives after a
drain leaves SIGCHLD pending for the next sleep. A pid a fork event adds is
drained at once: its first stop's SIGCHLD may have come with its parent's.
The caller's mask is
restored on return, and every tracee is spawned with it, so tested programs
see the caller's mask. SIGCHLD is process-directed, so a library caller's
other thread may take a wake-up meant for this monitor; each wait is
therefore capped at _WAKE_CAP seconds, after which the monitor drains again.

A fork the monitor has not yet drained leaves a child it does not know, which
killpg(root) misses if its parent left the root's process group. So before
the kill each running tracee gets SIGSTOP, and each fork, vfork or clone event
drained meanwhile adds its child, until every tracee is in a ptrace-stop,
dead, or a vfork parent still blocked on its child. Exec is not followed, so
that last case is decided at kill time: a parent is blocked while its live
vfork child still shares its memory (kcmp KCMP_VM), that is, has not exec'd.
A tree whose every pid was reaped is neither stopped nor killed: its root's
pid may already name another process group.

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

PTRACE_PEEKDATA = 2
PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_GETEVENTMSG = 0x4201
PTRACE_SEIZE = 0x4206

PTRACE_O_TRACEFORK = 0x2
PTRACE_O_TRACEVFORK = 0x4
PTRACE_O_TRACECLONE = 0x8
PTRACE_O_EXITKILL = 0x100000

PTRACE_EVENT_FORK = 1
PTRACE_EVENT_VFORK = 2
PTRACE_EVENT_CLONE = 3
_FORK_EVENTS = frozenset((PTRACE_EVENT_FORK, PTRACE_EVENT_VFORK, PTRACE_EVENT_CLONE))

# Exec is not followed: a seized tracee gets no SIGTRAP after execve, and the
# exec event's one former use, the vfork check, is made at kill time.
_FOLLOW_OPTIONS = PTRACE_O_TRACEFORK | PTRACE_O_TRACEVFORK | PTRACE_O_TRACECLONE | PTRACE_O_EXITKILL

_WALL = 0x40000000
_WAIT_FLAGS = os.WNOHANG | os.WUNTRACED | _WALL
_SIGCHLD = (signal.SIGCHLD,)
# Python ignores both; a tracee starts with them at their default actions.
_SIGDEF = (signal.SIGPIPE, signal.SIGXFSZ)
_SYS_TKILL = 200  # x86_64: a thread-directed signal, so each thread stops
_SYS_KCMP = 312  # x86_64
_KCMP_VM = 1
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
# A second handle on syscall(2), declared with kcmp's five arguments.
_kcmp = _libc["syscall"]
_kcmp.restype = ctypes.c_long
_kcmp.argtypes = [ctypes.c_long] * 6


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


class _SpawnKit:
    """What every spawn of one batch shares: the shell's prefix, /dev/null as fds 0-2, the mask."""

    def __init__(self, cwd: Path | None, caller_mask: set[signal.Signals]):
        prefix = ""
        if cwd is not None:
            prefix = f"cd -P -- {shlex.quote(str(Path(cwd).absolute()))} || exit 127\n"
        self.prefix = prefix + "kill -STOP $$\n"
        self.caller_mask = caller_mask
        self.null_fd = os.open(os.devnull, os.O_RDWR)
        self.file_actions = [(os.POSIX_SPAWN_DUP2, self.null_fd, fd) for fd in (0, 1, 2)]

    def close(self) -> None:
        os.close(self.null_fd)


def _env_block(env: Mapping[str, str] | None) -> dict[bytes, bytes]:
    """The tracee environment as bytes, which posix_spawn passes on without encoding."""
    if env is None:
        return dict(os.environb)
    return {os.fsencode(key): os.fsencode(value) for key, value in env.items()}


def _spawn_traced(
    cmd: str | Sequence[str],
    cwd: Path | None,
    env: Mapping[bytes, bytes],
    kit: _SpawnKit,
) -> int:
    """Spawn the tracee shell, which stops itself before the command; returns its pid.

    The shell is a session leader with the caller's signal mask, SIGPIPE and
    SIGXFSZ at their default actions, /dev/null as fds 0-2 and `env` as its
    environment. It changes to `cwd` (exit 127 on failure), sends itself
    SIGSTOP, then runs a string command or execs a list command, which must
    be executable, found on the PATH of `env` (os.defpath without one).
    """
    if isinstance(cmd, str):
        argv = ["/bin/sh", "-c", kit.prefix + cmd]
    else:
        if not cmd:
            raise TraceError("empty command")
        program = cmd[0]
        if os.sep not in program:
            path = env.get(b"PATH")
            program = shutil.which(program, path=os.defpath if path is None else os.fsdecode(path))
        if program is None or not os.access(os.path.join(cwd or "", program), os.X_OK):
            raise TraceError(f"command not executable: {cmd[0]}")
        argv = ["/bin/sh", "-c", kit.prefix + 'exec "$@"', "sh", *cmd]
    return os.posix_spawn(
        "/bin/sh",
        argv,
        env,
        file_actions=kit.file_actions,
        setsid=True,
        setsigmask=kit.caller_mask,
        setsigdef=_SIGDEF,
    )


def _drain(pids: Iterable[int]) -> list[tuple[int, int | None]]:
    """The (pid, status) pairs `pids` have ready, status None for a pid no longer a waitable child.

    The stop of a child not yet traced is reported too.
    """
    ready: list[tuple[int, int | None]] = []
    for pid in pids:
        try:
            wpid, status = os.waitpid(pid, _WAIT_FLAGS)
        except ChildProcessError:
            ready.append((pid, None))
            continue
        if wpid:
            ready.append((pid, status))
    return ready


def _wait_own(pids: Iterable[int], deadline: float) -> list[tuple[int, int | None]]:
    """Drain `pids` only, sleeping on SIGCHLD between empty drains.

    Returns the first non-empty drain, or [] if `deadline` passes first.
    SIGCHLD must be blocked in the calling thread.
    """
    while True:
        ready = _drain(pids)
        left = deadline - time.monotonic()
        if ready or left <= 0:
            return ready
        signal.sigtimedwait(_SIGCHLD, min(left, _WAKE_CAP))


def _event_of(status: int) -> int:
    return (status >> 16) & 0xFF


def _stopped(status: int | None) -> bool:
    """Whether a drained status is a stop, which leaves its task in a ptrace-stop once seized."""
    return status is not None and os.WIFSTOPPED(status)


class _Tree:
    """The live tracees of one command, as far as the monitor has drained them."""

    def __init__(
        self, index: int, root: int, started: float, timeout: float, owner: dict[int, _Tree]
    ):
        self.index = index  # the command's place in the batch
        self.root = root
        self.started = started
        self.deadline = started + timeout
        self.pids = {root}
        # The monitor's pid -> tree map, which this tree keeps for its own pids.
        self.owner = owner
        owner[root] = self
        # In a ptrace-stop whose status was consumed and that was not resumed.
        self.stopped: set[int] = set()
        # vfork child -> its parent, while the child lives.
        self.vfork_parent: dict[int, int] = {}

    def seize(self) -> dict | None:
        """Seize the root right after its spawn; the outcome fields if it exited first.

        A failed seize is decided here: the root is killed and reaped. One
        that had already exited, as when it could not enter its cwd, gives
        its exit status; one the kill ended could not be traced, and
        TraceError is raised.
        """
        try:
            _ptrace(PTRACE_SEIZE, self.root, None, ctypes.c_void_p(_FOLLOW_OPTIONS))
        except PtraceError as exc:
            os.kill(self.root, signal.SIGKILL)
            _, status = os.waitpid(self.root, 0)
            self.note(self.root, status)
            if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
                raise TraceError(f"cannot trace the command: PTRACE_SEIZE failed: {exc}") from exc
            return _ended(status)
        return None

    def note(self, pid: int, status: int | None) -> int:
        """Book one wait status of `pid`; the pid of the child it adds, or 0."""
        if not _stopped(status):
            self.pids.discard(pid)
            self.owner.pop(pid, None)
            self.stopped.discard(pid)
            self.vfork_parent.pop(pid, None)
            return 0
        self.stopped.add(pid)
        event = _event_of(status)
        if event not in _FORK_EVENTS:
            return 0
        msg = ctypes.c_ulong()
        if _libc.ptrace(PTRACE_GETEVENTMSG, pid, None, ctypes.byref(msg)) == -1:
            return 0  # killed since the stop: its death comes next
        child = msg.value
        self.pids.add(child)
        self.owner[child] = self
        if event == PTRACE_EVENT_VFORK:
            self.vfork_parent[child] = pid
        return child

    def resume(self, pid: int, sig: int = 0) -> None:
        """PTRACE_CONT, delivering `sig`; a task that died since its stop is reaped by a later drain."""
        self.stopped.discard(pid)
        _libc.ptrace(PTRACE_CONT, pid, None, sig)

    def blocked_in_vfork(self) -> set[int]:
        """Parents whose vfork child still shares their memory: they cannot stop until it execs."""
        return {
            parent
            for child, parent in self.vfork_parent.items()
            if _kcmp(_SYS_KCMP, child, parent, _KCMP_VM, 0, 0) == 0
        }

    def forget(self) -> None:
        """Drop the pids left unreaped from the monitor's map."""
        for pid in self.pids:
            self.owner.pop(pid, None)


def _settle(tree: _Tree, waiting: Callable[[], set[int]], cap: float) -> None:
    """Book the statuses of the pids `waiting()` names until none or `cap` seconds."""
    deadline = time.monotonic() + cap
    while (pids := waiting()) and (ready := _wait_own(pids, deadline)):
        for pid, status in ready:
            tree.note(pid, status)


def _slay_tree(tree: _Tree) -> None:
    """Stop the tree and drain the forks it reports, then kill and reap it.

    A tree with no pid left is skipped: its root's pid was reaped, so a
    killpg(root) could reach a process group that reuses it.
    """
    if not tree.pids:
        return
    for pid in tree.pids - tree.stopped:
        _libc.syscall(_SYS_TKILL, pid, signal.SIGSTOP)
    _settle(tree, lambda: tree.pids - tree.stopped - tree.blocked_in_vfork(), _DRAIN_CAP)
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
    owner: dict[int, _Tree] = {}

    def finish(tree: _Tree, kind: OutcomeKind, **kw) -> None:
        _slay_tree(tree)
        tree.forget()
        outcomes[tree.index] = TraceOutcome(
            kind=kind, wall_time=time.monotonic() - tree.started, **kw
        )
        live.remove(tree)

    spawn_env = _env_block(env)
    caller_mask = signal.pthread_sigmask(signal.SIG_BLOCK, _SIGCHLD)
    kit = None
    spawned = 0
    # True while a kill may have consumed wake-ups since the last drain of
    # every live tree: the monitor drains before it sleeps again.
    due = False
    try:
        kit = _SpawnKit(cwd, caller_mask)
        while True:
            while len(live) < jobs and spawned < len(cmds):
                started = time.monotonic()
                root = _spawn_traced(cmds[spawned], cwd, spawn_env, kit)
                live.append(_Tree(spawned, root, started, timeout, owner))
                spawned += 1
                if ended := live[-1].seize():
                    finish(live[-1], **ended)
            if not live:
                return outcomes
            now = time.monotonic()
            nearest = min(tree.deadline for tree in live)
            if now >= nearest:
                for tree in [tree for tree in live if now >= tree.deadline]:
                    finish(tree, OutcomeKind.TIMED_OUT)
                due = True
                continue
            # Sleep, then drain every live tree. A status that comes after
            # its pid was drained leaves SIGCHLD pending, so the next sleep
            # returns at once; only a kill, which waits on SIGCHLD itself,
            # makes a drain due before the sleep.
            if not due:
                signal.sigtimedwait(_SIGCHLD, min(nearest - now, _WAKE_CAP))
            due = False
            ready = _drain(owner)
            while ready:
                # Book the whole drain before acting on it: the statuses after
                # a trap are consumed too, and the kill must know their children.
                booked = [(owner[pid], pid, status) for pid, status in ready]
                adopted = [child for tree, pid, status in booked if (child := tree.note(pid, status))]
                for tree, pid, status in booked:
                    if tree in live and (ended := _act(tree, pid, status)):
                        finish(tree, **ended)
                        due = True
                # A fork event adds a pid the drain did not cover, and the
                # SIGCHLD of that child's first stop may have come with its
                # parent's: drain the new pids (of trees still live) before sleeping.
                ready = _drain([pid for pid in adopted if pid in owner])
    except BaseException:
        # Lost root, a failed ptrace request, an error while capturing a trap,
        # KeyboardInterrupt: leave no tracee behind.
        for tree in live:
            _slay_tree(tree)
        raise
    finally:
        if kit is not None:
            kit.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, caller_mask)


def _act(tree: _Tree, pid: int, status: int | None) -> dict | None:
    """Act on one booked wait status; the outcome fields if it ends the tree's run."""
    if not _stopped(status):
        if pid != tree.root:
            return None
        if status is None:
            raise TraceError("lost the root tracee without a wait status")
        return _ended(status)
    stop_signal = os.WSTOPSIG(status)
    if _event_of(status) or stop_signal == signal.SIGSTOP:
        # An event, a new descendant's first stop, or a job-control stop (the
        # shell's own SIGSTOP among them), which this monitor suppresses.
        tree.resume(pid)
    elif stop_signal in (signal.SIGILL, signal.SIGTRAP):
        try:
            return {"kind": OutcomeKind.TRAPPED, "trap": _capture_trap(pid, stop_signal)}
        except PtraceError:
            pass  # the task died since the wait; the next drain reaps it
    else:
        tree.resume(pid, stop_signal)
    return None
