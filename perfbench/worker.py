"""One benchmark process: a set-up only, or a set-up followed by timed passes.

``run.py`` starts this script in a fresh interpreter, so the import of
kserver is cold and ``ru_maxrss`` is the peak of this workload alone.
The last line of standard output is a JSON object for ``run.py``.

Each pass starts with cold caches, as a fresh ``kserver verify`` process
would: ``configuration_space.cache_clear()`` drops every configuration
space, and with it their transition tables and distance vectors.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench-out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def pass_count(workload: str, seconds: float) -> int:
    """Untraced passes per run: the odd number nearest to ``seconds`` over
    the workload's nominal pass time, at least one.  It depends on nothing
    measured, so every run of one ``seconds`` reports a median of the same
    number of passes."""
    ratio = seconds / workloads.PASS_S[workload]
    return 2 * max(0, round((ratio - 1) / 2)) + 1


def timed_passes(plan, harness, inputs, passes: int, trace: bool):
    """Closed loop of ``passes`` passes, one at a time.  Traced runs
    alternate untraced and traced passes, as many of each, so the two can
    be compared for the tracing overhead."""
    from kserver.workfunction import configuration_space

    if trace:
        from tracer import Tracer  # after set-up: it imports numpy

    checker = workloads.Checker(plan)
    cycle = (False, True) if trace else (False,)
    done = {False: [], True: []}  # traced -> [(seconds, instance times, tracer)]
    for traced in cycle * passes:
        configuration_space.cache_clear()
        gc.collect()
        tracer = Tracer() if traced else None
        undo = tracer.install() if traced else None
        try:
            serve = workloads.serve_verify
            pass_inputs = inputs
            if traced:
                serve = tracer.span("harness.request", serve)
                pass_inputs = plan.set_up(harness)  # traced, outside the pass time
            start = perf_counter()
            outputs, times = workloads.run_pass(serve, harness, pass_inputs)
            elapsed = perf_counter() - start
        finally:
            if undo is not None:
                undo()
        checker.check(outputs)
        done[traced].append((elapsed, times, tracer))
    return checker, done


def main(argv=None) -> int:
    args = parse_args(argv)
    plan = workloads.Plan(args.workload, args.seed)
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    from kserver import harness

    inputs = plan.set_up(harness)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = pass_count(args.workload, args.seconds)
    checker, done = timed_passes(plan, harness, inputs, passes, bool(args.trace))
    untraced = done[False]
    # per instance: median over passes; then the median and the slowest instance
    per_instance = [statistics.median(ts) for ts in zip(*(times for _, times, _ in untraced))]
    out = {
        "setup_s": setup_s,
        "instances": len(inputs),
        "passes": len(untraced),
        "run_s": statistics.median(elapsed for elapsed, _, _ in untraced),
        "instance_p50": statistics.median(per_instance),
        "instance_max": max(per_instance),
        "samples": sum(len(times) for _, times, _ in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checker.attempted,
        "failed": checker.failed,
    }
    if args.trace:
        from tracer import layer_metrics

        traced = done[True]
        tracers = [tracer for _, _, tracer in traced]
        if any(tracer.counts != tracers[0].counts for tracer in tracers[1:]):
            checker.problems.append("traced counts differ between passes of one run")
        out["traced_passes"] = len(traced)
        out["layers"] = layer_metrics(
            tracers, [e for e, _, _ in traced], [e for e, _, _ in untraced]
        )
        SPANS_DIR.mkdir(exist_ok=True)
        out["spans"] = str(SPANS_DIR.relative_to(ROOT) / f"spans-{args.workload}-seed{args.seed}.npz")
        tracers[-1].write(ROOT / out["spans"])
    out["problems"] = checker.problems[:20]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
