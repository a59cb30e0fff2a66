"""Smoke test of the tracer layer of bench/run.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import needs_linux

ROOT = Path(__file__).resolve().parent.parent


@needs_linux
def test_tracer_bench_writes_every_row(tmp_path):
    out = tmp_path / "tracer.json"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--layer", "tracer", "--repeat", "1",
         "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=600,
    )
    report = json.loads(out.read_text())
    assert report["label"] == "tracer" and report["repeat"] == 1
    cpus = len(os.sched_getaffinity(0))
    batches = [f"run_traced_many jobs={jobs}" for jobs in sorted({1, cpus})]
    traced = ["run_traced", *batches, f"run_cases 130 tests jobs={cpus}"]
    expected = [
        ("/bin/true", "run_traced"),
        ("/bin/true", "subprocess.run"),
        ("2-exec shell test", "run_traced"),
        ("2-exec shell test", "subprocess.run"),
        *(("2-exec shell test", op) for op in traced[1:]),
    ]
    rows = report["results"]
    assert [(row["target"], row["op"]) for row in rows] == expected
    for row in rows:
        assert row["median_ms"] > 0 and row["cpu_ms_per_call"] >= 0, row
        assert row["threads_per_call"] == 0, row
        per_status = row["target"] == "2-exec shell test" and row["op"] in traced
        assert ("wait_statuses_per_call" in row) is per_status, row
        assert ("cpu_us_per_status" in row) is per_status, row
        if per_status:
            assert 0 < row["wait_statuses_per_call"] <= 10, row
