"""Regenerate the benchmark's pinned pools: ``python3 perfbench/pin.py``.

Run it from the root of the repository, at the commit whose outputs the
benchmark should accept.  It writes ``pins/verify.json``: for each shape
of ``workloads.WORKLOADS``, the first instance seeds (counting from 1, as
many as ``POOL_SIZE`` asks) whose anchored sequence has exactly the
shape's length, each with its CSV-schema fields.

Every pinned instance must pass all nine checks and the ratio check; a
failure stops the script, because the benchmark only runs workloads on
which no operation fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kserver import harness  # noqa: E402
from kserver.workfunction import configuration_space  # noqa: E402

import workloads  # noqa: E402

POOL_SIZE = {"12,4,50": 12}
DEFAULT_POOL_SIZE = 5


def pin_verify() -> None:
    shapes = {shape.key: shape for picks in workloads.WORKLOADS.values() for shape, _ in picks}
    out = {}
    for key, shape in shapes.items():
        want = POOL_SIZE.get(key, DEFAULT_POOL_SIZE)
        seeds = {}
        seed = 0
        while len(seeds) < want:
            seed += 1
            configuration_space.cache_clear()  # a space at n=16 holds tens of MB
            inst = harness.generate_instance(shape.n, shape.k, shape.rho_len, seed)
            anchor = harness.compute_anchor(inst, harness.resolve_alpha(workloads.ALPHA, inst.k), workloads.BETA)
            if len(inst.requests) + len(anchor.requests) != shape.rounds:
                continue
            start = perf_counter()
            row = workloads.serve_verify(harness, inst)
            elapsed = perf_counter() - start
            if workloads.row_failed(row, row):
                raise SystemExit(f"{key} seed {seed} does not pass: {row}")
            seeds[str(seed)] = row
            print(f"{key} seed {seed}: {elapsed:.2f} s  {row}", flush=True)
        out[key] = {"rounds": shape.rounds, "seeds": seeds}
    with open(workloads.PINS, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    pin_verify()
