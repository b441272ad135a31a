"""Exact offline optimum, trace extraction, and the enumeration oracle.

The optimum over a served sequence is the minimum work-vector entry; the
optimum constrained to end in a given configuration is that entry.  A
cost-realizing execution is reconstructed by backtracking through the
per-round work vectors and then rescheduled lazily, so the emitted trace
makes only forced moves except for final-round relocations into the
target configuration.  ``first_start_visits`` does the same for many
targets at once, keeping only where each trace first revisits the start.

``oracle_opt`` is the independent ground truth: it enumerates all k^T
assignments of servers to requests, simulates each lazy execution
directly from the distance matrix, and never touches the work-function
recurrence.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .execution import ExecutionTrace, Move, Round
from .metric import (
    Configuration,
    InputError,
    Instance,
    canonical_configuration,
    matching_assignment,
    matching_cost,
)
from .workfunction import (
    WorkVector,
    initial_work_vector,
    update_work_vector,
)

ORACLE_SCHEDULE_LIMIT = 10_000_000


class OracleGuardExceeded(RuntimeError):
    """Raised instead of silently truncating an oversized enumeration."""


def opt_cost(vector: WorkVector) -> int:
    """Optimal cost of the served prefix, free choice of final configuration."""
    return int(vector.values.min())


def opt_cost_to(vector: WorkVector, config) -> int:
    """Optimal cost of the served prefix ending exactly in ``config``."""
    return vector.value(config)


def work_vector_history(inst: Instance) -> list[WorkVector]:
    """Work vectors after each prefix of the request sequence, start included."""
    history = [initial_work_vector(inst.metric, inst.initial)]
    for request in inst.requests:
        history.append(update_work_vector(history[-1], request))
    return history


def extract_trace(
    history: list[WorkVector], inst: Instance, target: Configuration | None = None
) -> ExecutionTrace:
    """Cost-realizing execution ending in ``target``, from stored vectors.

    Backtracking recovers, per round, which server position the optimal
    plan leaves behind; ties take the smallest point identifier so traces
    are reproducible.  The plan is then replayed lazily: each server
    defers its planned hops until it actually serves, and outstanding hops
    are folded into the final-round relocation (servers already on needed
    target points stay put, the rest move by a minimum-weight matching).
    The result is lazy except for that final relocation, and its total
    cost equals the work-vector entry of ``target`` exactly.
    """
    final = history[-1]
    space = final.space
    if target is None:
        target = final.argmin_config()
    else:
        target = canonical_configuration(target, inst.metric.n)
        if target not in space.index:
            raise InputError(f"{target} is not a configuration of this space")
    requests = inst.requests
    rounds_total = len(requests)
    if rounds_total == 0:
        if target != inst.initial:
            raise InputError(
                "an empty request sequence has no final round to relocate in; "
                "target must be the initial configuration"
            )
        return ExecutionTrace(inst.initial, (), 0)

    dist = inst.metric.dist
    index = space.index

    # plan[t] = configuration of the cost-realizing plan after round t;
    # leave[t] = position the serving server moves on to at round t
    plan: list[Configuration] = [None] * (rounds_total + 1)
    leave: list[int] = [0] * (rounds_total + 1)
    plan[rounds_total] = target
    for t in range(rounds_total, 0, -1):
        request = requests[t - 1]
        here = plan[t]
        want = int(history[t].values[index[here]])
        prev_values = history[t - 1].values
        found = False
        if request in here:
            # only the stay-put term survives for covered requests
            if int(prev_values[index[here]]) == want:
                plan[t - 1], leave[t] = here, request
                found = True
        else:
            for j, z in enumerate(here):
                swapped = tuple(sorted(here[:j] + here[j + 1 :] + (request,)))
                if int(prev_values[index[swapped]]) + dist[request][z] == want:
                    plan[t - 1], leave[t] = swapped, z
                    found = True
                    break
        if not found:
            raise RuntimeError(f"backtracking found no predecessor at round {t}")

    # replay: plan positions move eagerly, actual positions lag lazily
    plan_pos = list(matching_assignment(inst.initial, plan[0], inst.metric))
    lazy_pos = list(inst.initial)
    rounds = []
    total = 0
    for t in range(1, rounds_total + 1):
        request = requests[t - 1]
        sid = plan_pos.index(request)
        moves = []
        if lazy_pos[sid] != request:
            cost = dist[lazy_pos[sid]][request]
            moves.append(Move(lazy_pos[sid], request, cost))
            total += cost
            lazy_pos[sid] = request
        plan_pos[sid] = leave[t]
        if t == rounds_total:
            relocation, cost = _final_relocation(lazy_pos, target, inst.metric)
            moves.extend(relocation)
            total += cost
        rounds.append(Round(request, tuple(moves), tuple(sorted(lazy_pos))))

    expected = int(final.values[index[target]])
    if total != expected:
        raise RuntimeError(
            f"extracted trace costs {total}, work vector says {expected}"
        )
    return ExecutionTrace(inst.initial, tuple(rounds), total)


def first_start_visits(
    history: list[WorkVector], inst: Instance, ranks: Sequence[int], base_len: int
) -> np.ndarray:
    """For each target rank, the first round t in [base_len, T) at whose end
    its extracted execution stands on the start configuration, else -1.

    Gives, for all targets at once, the traces ``extract_trace`` builds one
    at a time.  A backward pass over the stored vectors picks every
    target's predecessor per round (first matching transition slot, which
    is the smallest leave point) and records the point the serving server
    leaves for.  A forward pass replays all plans lazily on (targets, k)
    position arrays.  As in ``extract_trace``, each trace's cost, final
    relocation included, must equal its work-vector entry exactly.
    """
    final = history[-1]
    space = final.space
    requests = inst.requests
    cur = np.array(ranks, dtype=np.intp)
    rows = np.arange(cur.size)

    # leave[t - 1] = point the serving server moves on to at round t
    leave = np.empty((len(requests), cur.size), dtype=space.slots.dtype)
    for t in range(len(requests), 0, -1):
        request = requests[t - 1]
        targets, costs = space.transitions(request)
        prev = targets[:, cur]
        match = history[t - 1].values[prev] + costs[:, cur] == history[t].values[cur]
        slot = match.argmax(axis=0)
        if not match[slot, rows].all():
            raise RuntimeError(f"backtracking found no predecessor at round {t}")
        # a covered request keeps the plan: all its slots point back at it
        leave[t - 1] = np.where(prev[0] == cur, request, space.slots[slot, cur])
        cur = prev[slot, rows]

    # replay: plan positions move eagerly, actual positions lag lazily
    plans, which = np.unique(cur, return_inverse=True)
    plan_pos = np.array(
        [matching_assignment(inst.initial, space.configs[p], inst.metric) for p in plans],
        dtype=np.intp,
    )[which]
    lazy_pos = np.tile(np.array(inst.initial, dtype=np.intp), (cur.size, 1))
    start = np.array(inst.initial)
    dist = inst.metric.matrix
    cost = np.zeros(cur.size, dtype=np.int64)
    first = np.full(cur.size, -1, dtype=np.intp)
    for t, request in enumerate(requests):
        if t >= base_len:
            on_start = (np.sort(lazy_pos, axis=1) == start).all(axis=1)
            first[(first < 0) & on_start] = t
        sid = (plan_pos == request).argmax(axis=1)
        cost += dist[lazy_pos[rows, sid], request]
        lazy_pos[rows, sid] = request
        plan_pos[rows, sid] = leave[t]

    for i, rank in enumerate(ranks):
        _, relocation = _final_relocation(lazy_pos[i].tolist(), space.configs[rank], inst.metric)
        total = int(cost[i]) + relocation
        expected = int(final.values[rank])
        if total != expected:
            raise RuntimeError(
                f"extracted trace costs {total}, work vector says {expected}"
            )
    return first


def _final_relocation(lazy_pos: list[int], target: Configuration, metric):
    """Move lagging servers onto the target configuration, mutating lazy_pos.

    Servers already standing on still-needed target points are pinned at
    zero cost; the remainder are matched minimum-weight.
    """
    needed = list(target)
    movers = []
    for sid in range(len(lazy_pos)):
        if lazy_pos[sid] in needed:
            needed.remove(lazy_pos[sid])
        else:
            movers.append(sid)
    moves = []
    cost_total = 0
    if movers:
        assigned = matching_assignment(
            tuple(lazy_pos[s] for s in movers), tuple(needed), metric
        )
        for sid, destination in zip(movers, assigned):
            cost = metric.dist[lazy_pos[sid]][destination]
            moves.append(Move(lazy_pos[sid], destination, cost))
            cost_total += cost
            lazy_pos[sid] = destination
    return moves, cost_total


def opt_trace(inst: Instance, target: Configuration | None = None) -> ExecutionTrace:
    """Optimal execution trace; defaults to the cheapest final configuration
    (smallest rank among ties)."""
    return extract_trace(work_vector_history(inst), inst, target)


def oracle_schedule_costs(inst: Instance) -> dict[tuple[int, ...], int]:
    """Cheapest cost per final position multiset over all lazy schedules.

    A schedule assigns one server to each request; its cost is the sum of
    the serving moves.  All k^T schedules are enumerated (guarded), so this
    is an exhaustive ground truth independent of the work-function engine.
    """
    count = inst.k ** len(inst.requests)
    if count > ORACLE_SCHEDULE_LIMIT:
        raise OracleGuardExceeded(
            f"{inst.k}^{len(inst.requests)} = {count} schedules exceed the "
            f"enumeration guard of {ORACLE_SCHEDULE_LIMIT}"
        )
    dist = inst.metric.dist
    k = inst.k
    requests = inst.requests
    best: dict[tuple[int, ...], int] = {}
    positions = list(inst.initial)

    def descend(depth: int, cost: int) -> None:
        if depth == len(requests):
            key = tuple(sorted(positions))
            if cost < best.get(key, cost + 1):
                best[key] = cost
            return
        request = requests[depth]
        for sid in range(k):
            old = positions[sid]
            positions[sid] = request
            descend(depth + 1, cost + dist[old][request])
            positions[sid] = old

    descend(0, 0)
    return best


def oracle_opt(inst: Instance, target: Configuration | None = None) -> int:
    """Brute-force optimum; with ``target``, adds the final relocation cost."""
    costs = oracle_schedule_costs(inst)
    if target is None:
        return min(costs.values())
    target = canonical_configuration(target, inst.metric.n)
    if len(target) != inst.k:
        raise InputError(f"target has {len(target)} points, expected k={inst.k}")
    return min(
        cost + matching_cost(finals, target, inst.metric)
        for finals, cost in costs.items()
    )


def oracle_work_vector(inst: Instance) -> dict[Configuration, int]:
    """Brute-force value for every ending configuration, one enumeration."""
    costs = oracle_schedule_costs(inst)
    out = {}
    for config in itertools.combinations(range(inst.metric.n), inst.k):
        out[config] = min(
            cost + matching_cost(finals, config, inst.metric)
            for finals, cost in costs.items()
        )
    return out
