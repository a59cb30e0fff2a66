"""Layer microbenchmarks that need no clang; writes BENCH_<label>.json.

The only layer so far is the symbolizer. For each target binary it times, on
a fresh ``Symbolizer`` each repeat:

- ``function_boundaries``: the full span list, with the disassembly heuristic;
- ``resolve_symtab_hit``: one ``resolve`` at the start of a symbol-table
  function, the cost of a trap address that never needs the heuristic.

Targets are ``libstdc++.so.6`` (found through ``g++ -print-file-name``) and
the C++ symbolizer fixture of the test suite, built with
``g++ -g -O0 -fno-omit-frame-pointer``. Each result also counts the
subprocesses the operation started, by program.

Run from the repository root, stdlib only:

    python3 bench/run.py                  # writes BENCH_symbols.json
    python3 bench/run.py --repeat 3 --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cfiheal import symbols  # noqa: E402
from cfiheal.elf import ElfFile  # noqa: E402

CXX_FIXTURE = ROOT / "tests" / "fixtures" / "symbolizer" / "sample.cpp"


class _SpawnCounter:
    """Counts the programs symbols.py starts through subprocess.run."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.real = subprocess.run

    def __call__(self, argv, *args, **kwargs):
        self.counts[Path(argv[0]).name] += 1
        return self.real(argv, *args, **kwargs)


def _targets(tmp: Path) -> list[tuple[str, Path]]:
    targets = []
    libstdcxx = subprocess.run(
        ["g++", "-print-file-name=libstdc++.so.6"], capture_output=True, text=True
    ).stdout.strip()
    if libstdcxx and os.path.isabs(libstdcxx) and os.path.exists(libstdcxx):
        real = Path(os.path.realpath(libstdcxx))
        targets.append((real.name, real))
    fixture = tmp / "sample-cxx"
    subprocess.run(
        ["g++", "-g", "-O0", "-fno-omit-frame-pointer", "-o", str(fixture), str(CXX_FIXTURE)],
        check=True,
        capture_output=True,
    )
    targets.append((f"{CXX_FIXTURE.relative_to(ROOT)} (g++ -O0 -g)", fixture))
    return targets


def _symtab_probe(binary: Path) -> int:
    """Start of the median-address sized function symbol."""
    starts = sorted({s.value for s in ElfFile(binary).function_symbols() if s.size > 0})
    return starts[len(starts) // 2]


def _time(op, repeat: int) -> tuple[list[float], Counter]:
    counter = _SpawnCounter()
    symbols.subprocess.run = counter
    try:
        times = []
        for _ in range(repeat):
            started = time.perf_counter()
            op(symbols.Symbolizer())
            times.append(time.perf_counter() - started)
    finally:
        symbols.subprocess.run = counter.real
    return times, counter.counts


def bench_symbols(repeat: int) -> list[dict]:
    results = []
    with tempfile.TemporaryDirectory(prefix="bench-symbols-") as tmp:
        for target, binary in _targets(Path(tmp)):
            probe = _symtab_probe(binary)
            ops = {
                "function_boundaries": lambda s: s.function_boundaries(binary),
                "resolve_symtab_hit": lambda s: s.resolve(binary, probe),
            }
            spans = symbols.Symbolizer().function_boundaries(binary)
            for op, call in ops.items():
                times, spawns = _time(call, repeat)
                results.append(
                    {
                        "target": target,
                        "mb": round(binary.stat().st_size / 1e6, 3),
                        "spans": len(spans),
                        "op": op,
                        "median_s": round(statistics.median(times), 4),
                        "min_s": round(min(times), 4),
                        "max_s": round(max(times), 4),
                        "spawns_per_call": {k: v / repeat for k, v in sorted(spawns.items())},
                    }
                )
    return results


def _host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "system": f"{platform.system()} {platform.machine()}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per operation")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_symbols.json")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    report = {
        "label": "symbols",
        "host": _host(),
        "repeat": args.repeat,
        "results": bench_symbols(args.repeat),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for r in report["results"]:
        print(f"{r['target']}: {r['op']} median {r['median_s']:.4f} s, spawns {r['spawns_per_call']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
