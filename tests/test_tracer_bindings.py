"""The benchmark's layer tracer replaces functions by name in the modules
that bind them (``perfbench/tracer.py``).  A refactor that drops or moves
one of those bindings would make traced benchmark runs crash, so every
name the tracer wraps must stay bound where it wraps it."""

import importlib.util
from pathlib import Path

import pytest

from kserver import harness, offline, workfunction

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = {"harness": harness, "offline": offline, "workfunction": workfunction}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_are_bound(tracer):
    wrapped = [(attr, owners) for _, attr, owners, _ in tracer.FUNCTIONS]
    wrapped += [(attr, owners) for _, attr, owners in tracer.COUNTED]
    for attr, owners in wrapped:
        for owner in owners:
            assert attr in MODULES[owner].__dict__, f"{owner}.{attr}"


def test_wrapped_methods_are_defined_on_the_class(tracer):
    for _, attr in tracer.METHODS:
        assert attr in workfunction.ConfigurationSpace.__dict__, attr


def test_count_hooks_read_real_results(tracer):
    # the hooks run only in traced benchmark runs; here each reads a real
    # result of the layer it counts, so a change to what those results
    # hold (a space, its size and k, a history's length) shows in tier-1
    from collections import Counter
    from math import comb

    from kserver import Instance, compute_anchor, generate_instance, opt_cost

    inst = generate_instance(6, 3, 5, seed=2)
    configs = comb(6, 3)
    before = workfunction.initial_work_vector(inst.metric, inst.initial)
    counts = Counter()
    tracer._count_update(counts, (before, 4), workfunction.update_work_vector(before, 4))
    assert counts == {"workfunction.update.computed_bytes": 8 * configs * (7 * 3 + 1)}

    base = offline.work_vector_history(inst)
    anchor = compute_anchor(inst, opt_cost(base[-1]), 5, 0)
    anchored = Instance.build(inst.metric, inst.k, inst.initial, inst.requests + anchor.requests)
    history = offline.work_vector_history(anchored, base)
    assert len(history.rows) < len(history)  # the fold stopped at a fixed point
    for result, rounds in ((base, 5), (history, 5 + 3 * anchor.cycles)):
        counts = Counter()
        tracer._count_history(counts, (anchored, base), result)
        assert counts == {"offline.history.computed_bytes": 8 * (rounds + 1) * configs}

    counts = Counter()
    tracer._count_anchor(counts, (inst, opt_cost(base[-1]), 5, 0), anchor)
    assert counts == {"anchor.rounds": 3 * anchor.cycles}
