"""The linker and repair layers of bench/run.py, run once each.

Each layer checks that it found every symbol it planted, and exits non-zero
when it did not.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_layer(layer: str, out: Path) -> list[dict]:
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--layer", layer, "--repeat", "1",
         "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=600,
    )
    return json.loads(out.read_text())["results"]


def test_the_linker_layer_parses_every_planted_failure(tmp_path):
    rows = _run_layer("linker", tmp_path / "linker.json")
    assert [row["op"] for row in rows] == [
        "parse_diagnostics", "run_build (a step printing the log, then failing)"
    ]


@pytest.mark.skipif(shutil.which("make") is None, reason="requires make")
def test_the_repair_layer_patches_every_planted_symbol(tmp_path):
    rows = _run_layer("repair", tmp_path / "repair.json")
    assert [(row["op"], row.get("patches"), row.get("symbols")) for row in rows] == [
        ("repair_until_buildable (one pass)", 1000, None),
        ("cross_dso_scan", None, 28),
    ]
