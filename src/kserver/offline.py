"""Exact offline optimum, trace extraction, and the enumeration oracle.

The optimum over a served sequence is the minimum work-vector entry; the
optimum constrained to end in a given configuration is that entry.  A
cost-realizing execution is reconstructed by backtracking through the
per-round work vectors and then rescheduled lazily, so the emitted trace
makes only forced moves except for final-round relocations into the
target configuration.  There is one backtrack, ``_backtrack``, over the
configuration space's transition tables and for any number of targets,
and one lazy replay of a plan, ``_replay``, with two callers:
``extract_trace`` materializes the rounds of one target's trace, and
``first_start_visits`` replays many targets at once and keeps only
where each trace first revisits the start.  The latter prices every
target's final relocation in one batched subset DP
(``metric.matching_costs``, a minimum matching per column, in the
space's dtype), since under the triangle inequality the relocation
costs exactly a minimum matching.  The start's alignment to each first
plan and ``extract_trace``'s relocation moves come from
``matching_assignment``, which reads a bijection off the same DP's
layers in Python integers.  Targets that share a plan share its
work: the backtrack walks each round's distinct ranks once, and once
every target's rank agrees it walks one rank with scalar reads (a
one-target walk from its first round) and keeps those rounds' leave
points as one list, which the batched replay hands to ``_replay`` in
Python ints.  Only the rounds where targets differ run on arrays, one
row per distinct rank.

The per-round vectors are a ``History``: one row per stored vector, the
array the fold returned, never copied, in the space's dtype (int16 on
small weights) until a fold widens it.  ``work_vector_history``
folds an anchor onto a base history, sharing its rows, only until a row
equals the row k before it.  The anchor's requests are all start points,
so once the backtrack finds its plan on the start inside the anchor, the
plan holds the start at zero cost back to the anchor's first round: the
backtrack and the replay skip those rounds.

``oracle_opt`` is the independent ground truth: it enumerates all k^T
assignments of servers to requests, simulates each lazy execution
directly from the distance matrix, and never touches the work-function
recurrence.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
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
    matching_costs,
)
from .workfunction import (
    History,
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


def work_vector_history(
    inst: Instance, base: History | None = None, first: WorkVector | None = None
) -> History:
    """Work vectors after each prefix of the request sequence, the vector
    before the first request included.

    Without ``base``, every request is folded from ``first`` (by default
    the start's distance vector), and the history has no periodic tail.
    ``base`` is the history of the first requests; its rows are reused, and
    the requests after them must be whole cycles over the start
    configuration: an anchor.  The anchor is folded only until a row
    equals the row k before it, the base's last or a later one, since
    every later row then repeats the one k before it; if that never
    happens, to its end.
    """
    requests = inst.requests
    if base is None:
        if first is None:
            first = initial_work_vector(inst.metric, inst.initial)
        vectors = itertools.accumulate(requests, update_work_vector, initial=first)
        rows = tuple(vector.values for vector in vectors)
        length = len(requests)
        return History(first.space, rows, length, length, len(rows))

    base_len, k = base.length, len(inst.initial)
    cycles, rest = divmod(len(requests) - base_len, k)
    repeating = base.periodic_from < len(base.rows)
    if repeating or cycles < 0 or rest or requests[base_len:] != inst.initial * cycles:
        raise InputError("the requests after the base history must be whole cycles over the start")
    rows, vector = list(base.rows), base[-1]
    for request in requests[base_len:]:
        vector = update_work_vector(vector, request)
        row, earlier = vector.values, len(rows) - k
        # one entry first: a row that differs there costs no pass over the arrays
        if earlier >= base_len and row.item(-1) == rows[earlier].item(-1):
            if np.array_equal(row, rows[earlier]):
                break  # the period starts at row earlier, and this row is not stored
        rows.append(row)
    else:
        earlier = len(rows)  # no row repeats
    return replace(
        base, rows=tuple(rows), length=len(requests), base_len=base_len, periodic_from=earlier
    )


def extract_trace(
    history: History, inst: Instance, target: Configuration | None = None
) -> ExecutionTrace:
    """Cost-realizing execution ending in ``target``, from stored vectors.

    The one-target case of ``_backtrack``, which recovers, per round, which
    point the optimal plan's serving server moves on to; ties take the
    smallest point identifier so traces are reproducible.  The plan is then
    replayed lazily: each server defers its planned hops until it actually
    serves, and outstanding hops are folded into the final-round relocation
    (servers already on needed target points stay put, the rest move by a
    minimum-weight matching).  The result is lazy except for that final
    relocation, and its total cost equals the work-vector entry of
    ``target`` exactly; a plan that misses a request or a cost that
    differs raises ``RuntimeError``.

    On an anchored history the backtrack and the replay skip the anchor
    rounds in which the plan stands on the start.
    """
    final = history[-1]
    space = final.space
    if target is None:
        rank = int(np.argmin(final.values))
        target = space.config(rank)
    else:
        target = canonical_configuration(target, inst.metric.n)
        rank = space.rank(target)
    requests = inst.requests
    if not requests:
        if target != inst.initial:
            raise InputError(
                "an empty request sequence has no final round to relocate in; "
                "target must be the initial configuration"
            )
        return ExecutionTrace(inst.initial, (), 0)

    first, shared, _, held_to = _backtrack(history, inst, [rank])
    plan = list(matching_assignment(inst.initial, space.config(first[0]), inst.metric))
    rounds, lazy, total = _replay(history, inst, plan, shared, held_to, target)
    relocation, cost = _final_relocation(lazy, target, inst.metric)
    last = rounds[-1]
    rounds[-1] = Round(last.request, last.moves + tuple(relocation), tuple(sorted(lazy)))
    total += cost

    expected = int(final.values[rank])
    if total != expected:
        raise RuntimeError(
            f"extracted trace ending in {target} costs {total}, work vector says {expected}"
        )
    return ExecutionTrace(inst.initial, tuple(rounds), total)


def _replay(
    history: History, inst: Instance, plan: list[int], leave: list[int],
    held_to: int, target: Configuration,
) -> tuple[list[Round], list[int], int]:
    """Replay one backtracked plan lazily over rounds [0, len(leave)):
    ``(rounds, lazy, cost)``.

    ``plan`` holds the plan's positions, server by server as the start's,
    and moves eagerly: it is advanced in place, the server serving round
    t + 1 moving on to ``leave[t]``.  The actual positions, ``lazy``,
    lag until a server serves.  Each round becomes a ``Round`` of its
    serving move (none when the server already stands on the request) and
    the sorted lazy positions, and ``cost`` sums the moves.  A plan that
    misses a request raises ``RuntimeError`` naming ``target``.

    The plan stands on the start over the anchor rounds [base_len,
    ``held_to``) (see ``_backtrack``).  Each server serves its own start
    point during the first anchor cycle, so the lazy servers catch up, and
    the later rounds up to ``held_to`` are empty moves on the start,
    appended as references to one cycle of such rounds.
    """
    requests = inst.requests
    dist = inst.metric.dist
    caught_up = history.base_len + inst.k
    lazy = list(inst.initial)
    rounds = []
    cost = 0
    t = 0
    while t < len(leave):
        if t == caught_up and t < held_to and lazy == plan:
            cycle = [Round(request, (), inst.initial) for request in inst.initial]
            rounds.extend(itertools.islice(itertools.cycle(cycle), held_to - t))
            t = held_to
            continue
        request = requests[t]
        if request not in plan:
            raise RuntimeError(
                f"the plan ending in {target} does not cover request {request} at round {t + 1}"
            )
        sid = plan.index(request)
        moves = ()
        if lazy[sid] != request:
            moves = (Move(lazy[sid], request, dist[lazy[sid]][request]),)
            cost += moves[0].cost
            lazy[sid] = request
        plan[sid] = leave[t]
        rounds.append(Round(request, moves, tuple(sorted(lazy))))
        t += 1
    return rounds, lazy, cost


def _backtrack(
    history: History, inst: Instance, ranks: Sequence[int]
) -> tuple[list[int], list[int], list[tuple[np.ndarray, np.ndarray]], int]:
    """The backward pass behind every extracted trace, for many targets at
    once: ``(first, shared, steps, held_to)``.

    Walking back from each target rank, every round takes the first
    transition slot whose predecessor value plus move cost gives the
    current value, which is the smallest leave point.  A target that holds
    the request has no column in the request's tables: it is held, keeping
    its rank, and its value must equal its predecessor's.  A round's leave
    point is the point its serving server moves on to (the request itself
    when it is held, since the plan then stays put).

    The walk is deterministic, so a plan's rank after a round fixes every
    earlier step: targets whose walks meet share them.  So each round
    walks only the distinct ranks, the nodes of that round; the nodes
    after the last round are the targets as given.  ``steps`` holds, for
    each round from ``len(shared) + 1`` on, two arrays over the nodes
    after it: each node's leave point, and its parent, the index of its
    predecessor among the nodes before the round.  ``first`` lists the
    ranks of the nodes before the first request.  Nodes are walked on
    arrays while more than one remains.  From the round where one node
    remains, that node is every target's plan, and it is walked with
    scalar reads (its column, its value and the slots in order until one
    matches): ``first`` has its one rank, ``shared[t]`` is every target's
    leave point at round t + 1, and the steps start at round
    ``len(shared) + 1``.  A one-target walk is scalar from its last round
    and has no step.

    The start holds every anchor request, so its entry is copied from
    round ``history.base_len`` on.  Once the shared rank is the start at
    some round t > base_len, every step down to base_len holds it: those
    leave points are the requests, and ``held_to`` is that t (0 if there
    is none).  The jump is taken only if every stored row from base_len on
    has the same start entry; otherwise the rounds are walked one by one.
    """
    space = history.space
    slots, swaps = space.slots, space.swaps
    requests = inst.requests
    nodes = np.array(ranks, dtype=np.intp)
    seen = np.empty(len(space), dtype=np.intp)
    steps = []  # from the last round down
    t = len(requests)
    while t > 0 and nodes.size > 1:
        request = requests[t - 1]
        covered, costs, _, column = space.transitions(request)
        before, after = history.values(t - 1), history.values(t)
        col = column[nodes]
        held = col < 0  # covered: the plan keeps its configuration
        # a held node keeps its rank at zero cost in every slot
        prev = np.where(held, nodes, covered.take(swaps.take(col, axis=1)))
        match = before[prev] + np.where(held, 0, costs.take(col, axis=1)) == after[nodes]
        slot = match.argmax(axis=0)
        across = np.arange(nodes.size)
        if not match[slot, across].all():
            raise RuntimeError(f"backtracking found no predecessor at round {t}")
        leave = np.where(held, request, slots[slot, nodes])
        nodes, parent = _distinct(prev[slot, across], seen)
        steps.append((leave, parent))
        t -= 1
    steps.reverse()
    if nodes.size > 1:  # the plans may differ from the first request on
        return nodes.tolist(), [], steps, 0

    # every earlier step is shared: walk one rank for all
    shared = [0] * t
    rank = int(nodes[0])
    base_len = history.base_len
    start = space.rank(inst.initial)
    steady = t > base_len and len({row[start] for row in history.rows[base_len:]}) == 1
    held_to = 0
    while t > 0:
        if steady and rank == start and t > base_len:
            shared[base_len:t] = requests[base_len:t]
            held_to, t = t, base_len
            continue
        request = requests[t - 1]
        covered, costs, _, column = space.transitions(request)
        before, after = history.values(t - 1), history.values(t)
        col = column[rank]
        value = after[rank]
        if col < 0:  # covered
            found = before[rank] == value
            shared[t - 1] = request
        else:
            found = False
            for j in range(space.k):
                prev = covered[swaps[j, col]]
                if before[prev] + costs[j, col] == value:
                    shared[t - 1] = int(slots[j, rank])
                    found, rank = True, int(prev)
                    break
        if not found:
            raise RuntimeError(f"backtracking found no predecessor at round {t}")
        t -= 1
    return [rank], shared, steps, held_to


def _distinct(ranks: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of ``ranks``, and each entry's index among them,
    without a sort: ``seen``, scratch over every rank, keeps one position
    per rank (the last written)."""
    order = np.arange(ranks.size)
    seen[ranks] = order
    kept = seen[ranks]
    distinct = kept == order
    index = np.cumsum(distinct) - 1
    return ranks[distinct], index[kept]


def first_start_visits(
    history: History, inst: Instance, ranks: Sequence[int], base_len: int
) -> np.ndarray:
    """For each target rank, the first round t in [base_len, T) at whose end
    its extracted execution stands on the start configuration, else -1.

    Gives, for all targets at once, the traces ``extract_trace`` builds one
    at a time: one ``_backtrack`` over every target, then a forward pass
    that replays its nodes lazily.  Over the rounds where every target
    shares its first plan and its leave points, ``shared``, one plan stands
    for all of them and is replayed by ``_replay``, as ``extract_trace``'s
    one plan is, and its first visit is read off the rounds.  From round
    ``len(shared)`` on, the state of each node (its plan and lazy
    positions, its cost and, unless the shared replay found the visit
    every target inherits, its first visit) is one row of arrays, widened
    at each round to the next round's nodes through their parents and
    advanced by their leave points; the last round's nodes are the
    targets.  As in ``extract_trace``, each plan must cover every request
    and each trace's cost, final relocation included, must equal its
    work-vector entry exactly; either failure raises, naming the first
    such target in the order given.  The relocation costs all come from
    one batched subset DP, ``matching_costs`` from the lazy positions to
    the targets in the space's dtype: by ``_final_relocation``'s lemma
    that is what ``extract_trace`` pays.

    The anchor rounds ``_replay`` skips all lie in the shared rounds, so
    only the one plan ever skips.
    """
    final = history[-1]
    space = final.space
    requests = inst.requests
    ranks = np.asarray(ranks, dtype=np.intp)
    first, shared, steps, held_to = _backtrack(history, inst, ranks)
    aligned = [
        list(matching_assignment(inst.initial, space.config(p), inst.metric)) for p in first
    ]
    shared_to = len(shared)
    lazy, cost, visit = list(inst.initial), 0, -1
    if shared:
        # rounds [0, shared_to) in Python ints; aligned[0] is advanced in place
        rounds, lazy, cost = _replay(
            history, inst, aligned[0], shared, held_to, space.config(ranks[0])
        )
        # the positions at the end of round t > 0 are rounds[t - 1]'s; round 0 is the start
        visits = (
            t for t in range(base_len, shared_to) if t == 0 or rounds[t - 1].config == inst.initial
        )
        visit = next(visits, -1)

    # then one row per node.  No round is skipped here: the backward pass
    # jumps only on the shared rank, so held_to <= shared_to
    plan_pos = np.array(aligned, dtype=np.intp)
    lazy_pos = np.array([lazy], dtype=np.intp).repeat(len(first), axis=0)
    # exact: every partial cost is at most the target's work value
    cost = np.full(len(first), cost, dtype=np.int64)
    visited = np.full(len(first), visit, dtype=np.intp)
    bit = np.left_shift(1, np.arange(inst.n), dtype=np.int32)
    start_mask = bit[list(inst.initial)].sum()
    matrix = inst.metric.matrix
    for t, (leave, parent) in enumerate(steps, start=shared_to):
        if visit < 0:  # no visit every target inherits: each node keeps its own
            if t >= base_len:
                # stacked servers cover fewer than k bits, so never the start's mask
                on_start = np.bitwise_or.reduce(bit[lazy_pos], axis=1) == start_mask
                visited[(visited < 0) & on_start] = t
            visited = visited[parent]
        plan_pos = plan_pos.take(parent, axis=0)
        lazy_pos = lazy_pos.take(parent, axis=0)
        cost = cost.take(parent)
        request = requests[t]
        serving = plan_pos == request
        # each node's serving server, as an index into its flattened row
        at = serving.argmax(axis=1)
        at += np.arange(0, at.size * inst.k, inst.k)
        covered = serving.ravel().take(at)
        if not covered.all():
            target = ranks[_first_target(steps, t - shared_to, ~covered)]
            raise RuntimeError(
                f"the plan ending in {space.config(target)} "
                f"does not cover request {request} at round {t + 1}"
            )
        lazy = lazy_pos.ravel()  # views: both tables are fresh and contiguous
        cost += matrix[:, request].take(lazy.take(at))
        lazy[at] = request
        plan_pos.ravel()[at] = leave

    total = cost + matching_costs(matrix.astype(space.dtype), lazy_pos.T, space.slots[:, ranks])
    expected = final.values[ranks]
    wrong = np.flatnonzero(total != expected)
    if wrong.size:
        i = wrong[0]
        raise RuntimeError(
            f"extracted trace ending in {space.config(ranks[i])} costs {total[i]}, "
            f"work vector says {expected[i]}"
        )
    return visited if visit < 0 else np.full(len(ranks), visit, dtype=np.intp)


def _first_target(steps: list, s: int, marked: np.ndarray) -> int:
    """The index of the first target, in the order given, whose plan takes
    a node that ``marked`` flags among the nodes after ``steps[s]``."""
    node = np.arange(steps[-1][1].size)  # the nodes after the last round
    for _, parent in steps[:s:-1]:
        node = parent[node]
    return int(marked[node].argmax())


def _final_relocation(lazy_pos: list[int], target: Configuration, metric):
    """Move lagging servers onto the target configuration, mutating lazy_pos.

    Servers already standing on still-needed target points are pinned at
    zero cost; the remainder are matched minimum-weight.  On a metric the
    total is the minimum matching cost from lazy_pos to the target: if a
    minimal bijection sends no server standing on target point p to p,
    it sends one of them to some q and a server at some x to p, and
    swapping those two destinations costs d(x, q) <= d(x, p) + d(p, q),
    no more.  Each swap pins p and unpins nothing, so some minimal
    bijection pins one server on every target point that has one, which
    is the pinning here.
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


def opt_trace(inst: Instance) -> ExecutionTrace:
    """Optimal execution trace, ending in the cheapest final configuration
    (smallest rank among ties)."""
    return extract_trace(work_vector_history(inst), inst)


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
