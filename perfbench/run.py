"""The kserver benchmark.

    python3 perfbench/run.py --workload verify-mid --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; kserver is imported from ``src/``.  Each
workload runs in fresh processes, one after another, with no threads:
``SETUP_RUNS`` processes that only import kserver and generate the inputs,
then one process that does the same and runs timed passes over the inputs
in a closed loop, as many as ``--seconds`` asks for (``worker.pass_count``).
Outputs are compared with the pins.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run (see ``tracer.py``).
The last line of standard output is the result as one JSON object; the
lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 4
DEADLINE_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its last output line."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left before the deadline")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker timed out after {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise ChildFailed(f"worker exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(args.seed)]
    setups = [child([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_RUNS)]
    out = child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(out["setup_s"])

    print(f"workload {workload}, seed {args.seed}: {out['instances']} instances per pass; "
          f"{out['passes']} untraced passes, each with cold caches "
          f"(configuration_space.cache_clear)")
    notes = {}
    if args.trace:
        metrics = out["layers"]
        print(f"  {out['traced_passes']} traced passes; spans in {out['spans']}")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (out["run_s"], "s"),
            "instance_s.p50": (out["instance_p50"], "s"),
            "instance_s.max": (out["instance_max"], "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }
        notes = {
            "setup_s": f"(median of {len(setups)} fresh processes)",
            "run_s": f"(median of {out['passes']} passes)",
            "instance_s.p50": f"(per instance: median over passes; {out['samples']} samples)",
            "instance_s.max": "(slowest instance)",
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    failed_frac = out["failed"] / out["attempted"]
    print(f"  {'failed_frac':<40} {failed_frac:>14.6g} {'':<6} ({out['failed']} of {out['attempted']})")
    for problem in out["problems"]:
        print(f"  MISMATCH {problem}")
    return {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kserver" / "__init__.py").is_file():
        print(f"error: no kserver sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result = run_workload(args, args.workload, monotonic() + DEADLINE_S)
    except ChildFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
