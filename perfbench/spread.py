"""Run the benchmark over several seeds and report the spread of each
end-to-end metric; optionally record the result, with one traced run per
workload, as a baseline.

    python3 perfbench/spread.py --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/BASELINE.json

Spread is the distance between the first and third quartile of a metric's
values (``statistics.quantiles(values, n=4)``) as a share of their median.
Runs are sequential, as the benchmark's own runs are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    """Where the numbers were measured."""
    sys.path.insert(0, str(ROOT / "src"))
    from kserver import harness, workfunction

    def getconf(name):
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        value = done.stdout.strip()
        return int(value) if value.isdigit() else None

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_cache_bytes": {
            "l1d": getconf("LEVEL1_DCACHE_SIZE"),
            "l2": getconf("LEVEL2_CACHE_SIZE"),
            "l3": getconf("LEVEL3_CACHE_SIZE"),
        },
        "configuration_space_cache": workfunction.configuration_space.cache_info().maxsize,
        "c1b_sample_cap": harness.C1B_SAMPLE_CAP,
    }


def run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", help="also make one traced run per workload and write "
                        "everything, with the environment, to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"environment": environment(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = []
        for seed in args.seeds:
            result = run(workload, seed, spec["run_seconds"])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: outputs do not match the pins")
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + "  ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {name:<16} median {median:.5g}  spread {spread:.3f}  bound {bound}  {flag}")
        report["workloads"][workload] = {"seeds": args.seeds, "runs": runs, "summary": summary}
        if args.out:  # the baseline also keeps one traced run's layer metrics
            traced = run(workload, args.seeds[0], spec["run_seconds"], trace=1)
            report["workloads"][workload]["traced"] = {
                "seed": args.seeds[0],
                "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
            }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
