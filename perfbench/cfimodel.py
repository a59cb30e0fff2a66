"""gcc-backed stand-in for clang's forward-edge CFI checks.

Usage (as CC/CXX of a generated project):

    python3 cfimodel.py cc  <compiler arguments...>
    python3 cfimodel.py c++ <compiler arguments...>

Generated sources guard each modelled indirect call with a macro named
``CFI_OFF_<kind>__<function>``, where ``<kind>`` is ``icall`` or ``vcall`` and
``<function>`` is the IR name of the function that holds the check (the
mangled name for C++). The macro is 1 when the check is switched off. This
wrapper decides each macro from the compiler arguments, following clang's
special-case-list rules
(https://clang.llvm.org/docs/SanitizerSpecialCaseList.html):

- a check is on only in a build that passes ``-fsanitize=cfi-<kind>``, so a
  baseline build (no ``-fsanitize``) has every check off;
- ``fun:<glob>`` switches off the checks of a function whose IR (mangled)
  name matches the glob;
- ``src:<glob>`` switches off the checks of a translation unit whose path, as
  passed to the compiler, matches the glob.

An enabled check that fails executes ``__builtin_trap()`` (``ud2``, SIGILL),
which is what a CFI violation looks like to the tracer.

The wrapper drops ``-fsanitize=*``, ``-fsanitize-ignorelist=*``, ``-flto`` and
``-O*``, keeps every other flag, and compiles at ``-O0 -g`` with frame
pointers: at ``-O1`` and above gcc can place the trap before the frame set-up
or in a ``.cold`` part, and the frame-pointer unwinder then names the wrong
caller. ``-pipe`` only saves gcc's temporary files.
"""

from __future__ import annotations

import fnmatch
import os
import re
import sys

GUARD = re.compile(r"\bCFI_OFF_(icall|vcall)__(\w+)")
SOURCE_SUFFIXES = (".c", ".cc", ".cpp", ".cxx", ".C")
COMPILERS = {"cc": "gcc", "c++": "g++"}


def read_ignorelist(path: str) -> tuple[list[str], list[str]]:
    """The fun: and src: globs of a special-case list."""
    fun: list[str] = []
    src: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("["):
                continue
            kind, _, pattern = line.partition(":")
            pattern = pattern.strip()
            if kind == "fun":
                fun.append(pattern)
            elif kind == "src":
                src.append(pattern)
    return fun, src


def guard_defines(
    sources: list[str], variants: set[str], fun: list[str], src: list[str]
) -> list[str]:
    """-D flags giving every guard macro found in the sources its value."""
    defines: list[str] = []
    for path in sources:
        with open(path, errors="replace") as fh:
            text = fh.read()
        file_off = any(fnmatch.fnmatchcase(path, glob) for glob in src)
        for kind, name in sorted(set(GUARD.findall(text))):
            off = (
                f"cfi-{kind}" not in variants
                or file_off
                or any(fnmatch.fnmatchcase(name, glob) for glob in fun)
            )
            defines.append(f"-DCFI_OFF_{kind}__{name}={int(off)}")
    return defines


def translate(argv: list[str]) -> list[str]:
    """The gcc command line for one wrapped compiler invocation."""
    if not argv or argv[0] not in COMPILERS:
        raise SystemExit("usage: cfimodel.py cc|c++ <compiler arguments...>")
    kept: list[str] = []
    variants: set[str] = set()
    ignorelist: str | None = None
    for arg in argv[1:]:
        if arg.startswith("-fsanitize-ignorelist="):
            ignorelist = arg.split("=", 1)[1]
        elif arg.startswith("-fsanitize="):
            variants.update(v for v in arg.split("=", 1)[1].split(",") if v)
        elif arg == "-flto" or arg.startswith("-flto="):
            continue
        elif re.fullmatch(r"-O\w*", arg):
            continue
        else:
            kept.append(arg)
    fun, src = read_ignorelist(ignorelist) if ignorelist else ([], [])
    sources = [a for a in kept if a.endswith(SOURCE_SUFFIXES) and not a.startswith("-")]
    defines = guard_defines(sources, variants, fun, src)
    return [COMPILERS[argv[0]], *kept, "-pipe", "-O0", "-g", "-fno-omit-frame-pointer", *defines]


def main() -> None:
    command = translate(sys.argv[1:])
    os.execvp(command[0], command)


if __name__ == "__main__":
    main()
