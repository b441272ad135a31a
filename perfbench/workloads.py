"""Workloads of the kserver benchmark: what runs, how inputs follow the seed,
and how outputs are checked against the pins.

Every instance a run can draw comes from a pinned pool (``pins/verify.json``,
written by ``pin.py``), so each output can be compared with the value the
program produced when the pool was pinned, whatever the seed.  The seed
only chooses which pool members a run uses, and it chooses among inputs
of equal work: on a shared 2-vCPU x86-64 host, repeats of one input
already varied by 15-30%, so the inputs must not add to that.  A pool
holds uniform instances of one shape (n, k, |rho|) whose anchored
sequence has exactly the same length, since ``verify``'s work grows with
that length.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

PINS = Path(__file__).resolve().parent / "pins" / "verify.json"

# the CLI defaults of `kserver verify`
ALPHA = "2k-1"
BETA = 0
Q = 3


@dataclass(frozen=True)
class Shape:
    """Uniform instances of one size; ``rounds`` is the anchored length
    (base plus anchor requests, first beta attempt) shared by the pool."""

    n: int
    k: int
    rho_len: int
    rounds: int

    @property
    def key(self) -> str:
        return f"{self.n},{self.k},{self.rho_len}"


# workload -> (shape, instances drawn per pass)
WORKLOADS = {
    "verify-mid": ((Shape(12, 4, 50, 1398), 3),),
    "verify-wide": (
        (Shape(16, 6, 4, 442), 1),
        (Shape(15, 8, 4, 780), 1),
    ),
}

# nominal seconds of one untraced pass on the 2-vCPU x86-64 host the
# baseline was measured on; ``worker.pass_count`` turns --seconds into a
# fixed number of passes with it
PASS_S = {"verify-mid": 9.0, "verify-wide": 16.0}


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def verify_row(check_ids, report, ratio) -> str:
    """The CSV-schema fields of one instance after n, k and |rho|."""
    values = report.values
    fields = [
        report.cycles, report.min_gap, report.beta_used,
        values["opt"], values["alg"], values["opt_rho_sigma"], values["alg_rho_sigma"],
        *(report.check(cid).status for cid in check_ids),
        "pass" if ratio.passed else "fail",
    ]
    return ",".join(str(v) for v in fields)


def row_failed(row: str, pinned: str | None) -> bool:
    """A row fails when it differs from its pin or any status is not pass."""
    fields = row.split(",")
    return row != pinned or "fail" in fields or "inconclusive" in fields


def serve_verify(harness, inst) -> str:
    """One instance as `kserver verify` handles it; returns its CSV fields."""
    alpha = harness.resolve_alpha(ALPHA, inst.k)
    report = harness.verify_anchored_properties(inst, alpha, BETA, Q)
    ratio = harness.measure_strict_ratio(inst)
    return verify_row(harness.CHECK_IDS, report, ratio)


class Plan:
    """The instances one run uses, chosen from the pools by the seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}, expected one of {tuple(WORKLOADS)}")
        self.workload = workload
        self.pins = load_pins()
        rng = random.Random(seed)
        self.picks = []  # (shape, instance seed)
        for shape, count in WORKLOADS[workload]:
            pool = sorted(int(s) for s in self.pins[shape.key]["seeds"])
            self.picks.extend((shape, s) for s in rng.sample(pool, count))

    def set_up(self, harness) -> list:
        """What a user pays before the first check: instance generation."""
        return [
            harness.generate_instance(shape.n, shape.k, shape.rho_len, seed)
            for shape, seed in self.picks
        ]

    def expected(self) -> list[str]:
        """The pinned output of each instance of a pass."""
        return [self.pins[shape.key]["seeds"][str(seed)] for shape, seed in self.picks]


def run_pass(serve, harness, inputs) -> tuple[list[str], list[float]]:
    """One pass over the inputs, one instance after another; returns each
    instance's output and wall time."""
    outputs, times = [], []
    for item in inputs:
        start = perf_counter()
        outputs.append(serve(harness, item))
        times.append(perf_counter() - start)
    return outputs, times


class Checker:
    """Compares outputs with the pins; counts instances attempted and failed."""

    def __init__(self, plan: Plan):
        self.expected = plan.expected()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outputs: list[str]) -> None:
        for got, pinned in zip(outputs, self.expected, strict=True):
            self.attempted += 1
            if row_failed(got, pinned):
                self.failed += 1
                self.problems.append(f"got {got!r}, pinned {pinned!r}")
