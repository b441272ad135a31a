"""The benchmark serves each instance through ``perfbench/workloads.py``
and compares its row with the value pinned in ``perfbench/pins/verify.json``.
A refactor that breaks a call the benchmark makes, or changes a pinned
row, must fail here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from kserver import harness

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_pinned_row_is_reproduced(workloads):
    for key, pool in workloads.load_pins().items():
        n, k, rho_len = map(int, key.split(","))
        for seed, pinned in pool["seeds"].items():
            inst = harness.generate_instance(n, k, rho_len, int(seed))
            assert workloads.serve_verify(harness, inst) == pinned, (key, seed)
