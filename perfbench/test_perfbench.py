"""Checks of the benchmark itself: ``python3 -m pytest perfbench -q``.

Each test runs ``run.py`` the way it is meant to be run, in a subprocess,
so a test takes seconds to a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def bench(cwd, workload, seed, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["verify-mid", "verify-wide"])
def test_traced_counts_repeat_exactly(workload):
    runs = [result(bench(ROOT, workload, 11, trace=1)) for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in run["metrics"].items() if m["unit"] in ("count", "B")}
        for run in runs
    ]
    assert counts[0] == counts[1]
    assert all(run["correct"] and run["failed"] == 0 for run in runs)
    assert counts[0]["offline.extract_trace.calls"] > 0


def test_wrong_output_counts_as_failed(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    pins_path = tmp_path / "perfbench" / "pins" / "verify.json"
    pins = json.loads(pins_path.read_text())
    rows = pins["12,4,50"]["seeds"]
    for seed, row in rows.items():
        fields = row.split(",")
        fields[3] = str(int(fields[3]) + 1)  # opt
        rows[seed] = ",".join(fields)
    pins_path.write_text(json.dumps(pins))
    out = result(bench(tmp_path, "verify-mid", 3, trace=0))
    assert not out["correct"]
    assert out["failed"] == 3 and out["attempted"] == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench(tmp_path, "verify-mid", 1, trace=0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
