"""The committed BENCH_symbols.json against a fresh run of the symbols layer of bench/run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ("g++", "make", "addr2line", "llvm-dwarfdump")


def _rows(path: Path) -> list[tuple[str, str, list[str]]]:
    """(target, op, programs started) of each row of a BENCH_symbols.json."""
    return [
        (row["target"], row["op"], sorted(row["spawns_per_call"]))
        for row in json.loads(path.read_text())["results"]
    ]


@pytest.mark.skipif(
    any(shutil.which(tool) is None for tool in TOOLS), reason=f"requires {', '.join(TOOLS)}"
)
def test_committed_symbols_bench_matches_a_fresh_run(tmp_path):
    out = tmp_path / "symbols.json"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--layer", "symbols", "--repeat", "1",
         "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=600,
    )
    # Same rows, and each row starts the same programs: a file edited by hand
    # after the symbolizer changed what it starts no longer matches.
    assert _rows(ROOT / "BENCH_symbols.json") == _rows(out)
