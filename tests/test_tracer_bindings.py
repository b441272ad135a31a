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
