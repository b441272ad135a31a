"""Layer tracing from the benchmark's own code.

Nothing under ``src/`` is instrumented.  Instead, while a ``Tracer`` is
installed, the public functions of each layer are replaced, in every
module that binds them, by wrappers that record a span (name, start, end,
enclosing span) and count calls.  A layer's self time is its spans'
durations minus the parts their child spans cover.

Layers are the kserver modules; ``distance_vector`` and ``transitions``
are methods of ``ConfigurationSpace`` and are wrapped on the class.
``metric.matching`` only counts calls: a span per matching would cost as
much as a small matching itself.
"""

from __future__ import annotations

import functools
import statistics
import weakref
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _count_update(counts, args, result):
    # computed, not measured: bytes read and written by the three numpy
    # passes of one update over S configurations with k slots each --
    # gather (targets and gathered values read, S*k written), add (two
    # S*k reads, one write), row minimum (S*k read, S written)
    space = result.space
    counts["workfunction.update.computed_bytes"] += 8 * len(space) * (7 * space.k + 1)


def _count_history(counts, args, result):
    # computed: one int64 entry per configuration per stored vector
    counts["offline.history.computed_bytes"] += 8 * len(result) * len(result[-1].space)


def _count_anchor(counts, args, result):
    counts["anchor.rounds"] += len(result.requests)


# (span name, function, modules that bind it, count hook)
FUNCTIONS = (
    ("harness.verify", "verify_anchored_properties", ("harness",), None),
    ("harness.ratio", "measure_strict_ratio", ("harness",), None),
    ("harness.generate", "generate_instance", ("harness",), None),
    ("anchor.compute", "compute_anchor", ("harness",), _count_anchor),
    ("offline.history", "work_vector_history", ("harness",), _count_history),
    ("offline.extract_trace", "extract_trace", ("harness",), None),
    ("workfunction.run_wfa", "run_wfa", ("harness",), None),
    ("workfunction.update", "update_work_vector", ("workfunction", "offline", "harness"), _count_update),
)

# (span name, ConfigurationSpace method)
METHODS = (
    ("workfunction.transitions", "transitions"),
    ("metric.distance_vector", "distance_vector"),
)

# (counter, function, modules that bind it)
COUNTED = (
    ("metric.matching.calls", "matching_cost", ("workfunction",)),
    ("metric.matching.calls", "matching_assignment", ("offline",)),
)

SELF_TIMES = (
    "offline.extract_trace", "offline.history", "workfunction.update",
    "workfunction.transitions", "workfunction.run_wfa", "metric.distance_vector",
    "anchor.compute", "harness.verify", "harness.ratio", "harness.generate",
    "harness.request",
)
COUNTS = (
    "offline.extract_trace.calls", "offline.history.computed_bytes",
    "workfunction.update.calls", "workfunction.update.computed_bytes",
    "workfunction.transitions.builds", "metric.distance_vector.calls",
    "metric.matching.calls", "anchor.compute.calls", "anchor.rounds",
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory as flat arrays
    (a pass can make millions of spans)."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # index of the enclosing span, -1 at the top
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._built: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def span(self, name: str, fn, hook=None):
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self.names):
            self.names.append(name)
        codes, starts, ends, parents = self.code, self.start, self.end, self.parent
        stack, counts, calls = self._stack, self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _transitions_hook(self, counts, args, result):
        space, request = args
        built = self._built.setdefault(space, set())
        if request not in built:
            built.add(request)
            counts["workfunction.transitions.builds"] += 1

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function; returns an undo callable."""
        from kserver import harness, offline, workfunction

        modules = {"harness": harness, "offline": offline, "workfunction": workfunction}
        saved = []

        def replace(owner, attr, wrapper):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        for name, attr, owners, hook in FUNCTIONS:
            wrapper = self.span(name, getattr(modules[owners[0]], attr), hook)
            for owner in owners:
                replace(modules[owner], attr, wrapper)
        space = workfunction.ConfigurationSpace
        for name, attr in METHODS:
            hook = self._transitions_hook if attr == "transitions" else None
            replace(space, attr, self.span(name, space.__dict__[attr], hook))
        for name, attr, owners in COUNTED:
            wrapper = self.counter(name, getattr(modules[owners[0]], attr))
            for owner in owners:
                replace(modules[owner], attr, wrapper)

        def undo():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return undo

    def _arrays(self):
        code = np.frombuffer(self.code, dtype=np.uint16)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return code, duration, parent

    def self_times(self) -> dict[str, float]:
        code, duration, parent = self._arrays()
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(code))
        totals = np.bincount(code, weights=duration - covered, minlength=len(self.names))
        return defaultdict(float, zip(self.names, totals.tolist()))

    def coverage(self) -> float:
        """Share of verify time spent inside the layers it calls."""
        code, duration, parent = self._arrays()
        is_verify = code == self._codes["harness.verify"]
        nested = parent >= 0
        inside = duration[nested][is_verify[parent[nested]]].sum()
        return float(inside / duration[is_verify].sum())

    def write(self, path) -> None:
        """All spans, one row each, to a compressed numpy archive.  ``root``
        is the index of the top-level span a span belongs to: spans of one
        verify instance share it."""
        code, _, parent = self._arrays()
        root = np.where(parent >= 0, parent, np.arange(len(code)))
        while not np.array_equal(root[root], root):
            root = root[root]
        np.savez_compressed(
            path, names=np.array(self.names), code=code, parent=parent, root=root,
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )


def layer_metrics(tracers: list[Tracer], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Per-layer metrics of one run: self times are medians over its traced
    passes, counts those of one pass (they must agree across passes)."""
    metrics = {}
    selfs = [t.self_times() for t in tracers]
    for name in SELF_TIMES:
        metrics[name + ".self_s"] = (statistics.median(s[name] for s in selfs), "s")
    counts = tracers[0].counts
    for name in COUNTS:
        metrics[name] = (counts[name], "B" if name.endswith("bytes") else "count")
    calls = counts["workfunction.transitions.calls"]
    metrics["workfunction.transitions.hit_ratio"] = (1 - counts["workfunction.transitions.builds"] / calls, "ratio")
    metrics["traced.overhead"] = (statistics.median(traced_s) / statistics.median(untraced_s), "ratio")
    metrics["traced.coverage"] = (statistics.median(t.coverage() for t in tracers), "ratio")
    return metrics
