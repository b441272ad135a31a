import dataclasses
import itertools

import numpy as np
import pytest

from kserver import offline
from kserver import (
    InputError,
    OracleGuardExceeded,
    final_work_vector,
    generate_instance,
    initial_work_vector,
    opt_cost,
    opt_trace,
    oracle_opt,
    update_work_vector,
    work_vector_history,
)
from kserver.anchor import compute_anchor
from kserver.execution import ExecutionTrace, Move, Round
from kserver.metric import matching_assignment, matching_cost, random_metric
from kserver.rng import SplitMix64
from kserver.workfunction import History
from kserver.offline import (
    _final_relocation,
    extract_trace,
    first_start_visits,
    oracle_schedule_costs,
    oracle_work_vector,
)
from trace_checks import trace_violations
from vector_checks import all_configs, vector_pairs


def small_instance(seed, n_max=5, k_max=3, len_max=6):
    stream = SplitMix64(seed)
    n = stream.randint(2, n_max)
    k = stream.randint(1, min(k_max, n))
    rho_len = stream.randint(0, len_max)
    return generate_instance(n, k, rho_len, seed)


def loop_extract_trace(history, inst, target):
    """Reference: backtrack one target through the stored vectors, trying
    each server of the plan's configuration one swapped tuple at a time
    (the smallest leave point first), then replay the plan lazily."""
    requests = inst.requests
    rank = history[-1].space.rank
    dist = inst.metric.dist
    if not requests:
        return ExecutionTrace(inst.initial, (), 0)
    # plan[t] = configuration of the plan after round t; leave[t] = the
    # point the serving server moves on to at round t
    plan = [None] * len(requests) + [target]
    leave = [None] * (len(requests) + 1)
    for t in range(len(requests), 0, -1):
        request, here = requests[t - 1], plan[t]
        want = int(history.values(t)[rank(here)])
        prev_values = history.values(t - 1)
        if request in here:
            # only the stay-put term survives for covered requests
            if int(prev_values[rank(here)]) == want:
                plan[t - 1], leave[t] = here, request
        else:
            for j, z in enumerate(here):
                swapped = tuple(sorted(here[:j] + here[j + 1 :] + (request,)))
                if int(prev_values[rank(swapped)]) + dist[request][z] == want:
                    plan[t - 1], leave[t] = swapped, z
                    break
        assert plan[t - 1] is not None, f"no predecessor at round {t}"

    plan_pos = list(matching_assignment(inst.initial, plan[0], inst.metric))
    lazy_pos = list(inst.initial)
    rounds = []
    total = 0
    for t, request in enumerate(requests, start=1):
        sid = plan_pos.index(request)
        moves = []
        if lazy_pos[sid] != request:
            moves.append(Move(lazy_pos[sid], request, dist[lazy_pos[sid]][request]))
            total += moves[-1].cost
            lazy_pos[sid] = request
        plan_pos[sid] = leave[t]
        if t == len(requests):
            relocation, cost = _final_relocation(lazy_pos, target, inst.metric)
            moves.extend(relocation)
            total += cost
        rounds.append(Round(request, tuple(moves), tuple(sorted(lazy_pos))))
    return ExecutionTrace(inst.initial, tuple(rounds), total)


class TestOptCost:
    def test_empty(self, m3):
        assert opt_cost(initial_work_vector(m3, (0, 1))) == 0

    def test_single_request(self, m3_instance):
        assert opt_cost(final_work_vector(m3_instance)) == 2

    def test_two_requests(self, m3_instance):
        inst = dataclasses.replace(m3_instance, requests=(2, 1))
        assert opt_cost(final_work_vector(inst)) == 3
        assert oracle_opt(inst) == 3

    def test_monotone_over_prefixes(self):
        inst = generate_instance(5, 2, 8, seed=77)
        history = work_vector_history(inst)
        costs = [opt_cost(w) for w in history]
        assert costs == sorted(costs)


class TestConstrainedOpt:
    """The optimum ending in a given configuration is that entry of the
    work vector, ``vector.value(config)``."""

    def test_start_at_zero(self, m3):
        assert initial_work_vector(m3, (0, 1)).value((0, 1)) == 0

    def test_m3_values(self, m3_instance):
        w = final_work_vector(m3_instance)
        assert w.value((0, 1)) == 4
        assert w.value((1, 2)) == 3
        assert oracle_opt(m3_instance, (0, 1)) == 4
        assert oracle_opt(m3_instance, (1, 2)) == 3


class TestOptTrace:
    def test_empty_to_start(self, m3_instance):
        empty = dataclasses.replace(m3_instance, requests=())
        trace = opt_trace(empty)
        assert trace.rounds == () and trace.total_cost == 0
        assert extract_trace(work_vector_history(empty), empty, (0, 1)).total_cost == 0

    def test_empty_to_other_target_rejected(self, m3_instance):
        empty = dataclasses.replace(m3_instance, requests=())
        with pytest.raises(InputError, match="target must be the initial configuration"):
            extract_trace(work_vector_history(empty), empty, (0, 2))

    def test_m3_default_target(self, m3_instance):
        trace = opt_trace(m3_instance)
        assert trace.total_cost == 2
        assert trace.rounds[0].moves == (Move(1, 2, 2),)
        assert trace.rounds[0].config == (0, 2)

    def test_m3_forced_return(self, m3_instance):
        trace = extract_trace(work_vector_history(m3_instance), m3_instance, (0, 1))
        assert trace.total_cost == 4
        assert trace.rounds[0].moves == (Move(1, 2, 2), Move(2, 1, 2))
        assert trace.rounds[0].config == (0, 1)

    def test_realizes_work_vector_entry_for_every_target(self):
        for seed in (3, 14, 59):
            inst = small_instance(seed)
            history = work_vector_history(inst)
            final = history[-1]
            if not inst.requests:
                continue
            for target in all_configs(final.space):
                trace = extract_trace(history, inst, target)
                assert trace.total_cost == final.value(target)
                assert trace.config_after(len(inst.requests)) == target

    def test_traces_are_x_lazy(self):
        for seed in (8, 21, 34):
            inst = small_instance(seed)
            if not inst.requests:
                continue
            history = work_vector_history(inst)
            for target in all_configs(history.space):
                trace = extract_trace(history, inst, target)
                assert trace_violations(trace, inst.metric, x_lazy=True) == []

    def test_deterministic(self, m3_instance):
        inst = dataclasses.replace(m3_instance, requests=(2, 0, 1, 2))
        assert opt_trace(inst) == opt_trace(inst)

    def test_default_target_is_smallest_rank_argmin(self, uniform3):
        from kserver import Instance

        inst = Instance.build(uniform3, 2, (0, 1), ())
        # every configuration containing a start point has equal cost 0? no:
        # with no requests the unique zero is the start itself
        assert opt_trace(inst).config_after(0) == (0, 1)


class TestOracle:
    def test_empty(self, m3_instance):
        assert oracle_opt(dataclasses.replace(m3_instance, requests=())) == 0

    def test_single_request(self, m3_instance):
        # two schedules: serve from 0 (cost 3) or from 1 (cost 2)
        assert oracle_opt(m3_instance) == 2

    def test_with_target(self, m3_instance):
        assert oracle_opt(m3_instance, (0, 1)) == 4

    def test_target_size_checked(self, m3_instance):
        with pytest.raises(InputError):
            oracle_opt(m3_instance, (0,))

    def test_guard_refuses_loudly(self, m3_instance):
        huge = dataclasses.replace(m3_instance, requests=(0,) * 24)
        with pytest.raises(OracleGuardExceeded):
            oracle_opt(huge)

    def test_schedule_costs_keys_are_position_multisets(self, m3_instance):
        costs = oracle_schedule_costs(m3_instance)
        assert costs == {(1, 2): 3, (0, 2): 2}

    def test_agrees_with_dp_everywhere(self):
        for seed in range(100, 160):
            inst = small_instance(seed)
            w = final_work_vector(inst)
            oracle = oracle_work_vector(inst)
            for cfg, value in vector_pairs(w):
                assert value == oracle[cfg], (seed, cfg)


EXTRACT_MODELS = ("uniform", "roundrobin_k_plus_1", "greedy_adversary")


@pytest.mark.parametrize("weights", [(1, 9), (1, 1), (1, 1000)])
def test_extract_trace_equals_the_loop(weights):
    # every target, on the full fold of a base sequence and on anchors of
    # one, two and m cycles folded onto it until their rows repeat; the
    # reference reads every vector of the anchored sequence folded in full
    repeated = 0
    for model, seed in itertools.product(EXTRACT_MODELS, range(1, 7)):
        n, k = (5, 2) if seed % 2 == 0 else (6, 3)
        inst = generate_instance(n, k, 8, seed, request_model=model, weight_range=weights)
        base = work_vector_history(inst)
        cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * k - 1, 0).cycles
        pairs = [(inst, base, base)]
        for m in (1, 2, cycles):
            anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * m)
            history = work_vector_history(anchored, base)
            repeated += history.periodic_from < len(history.rows)
            pairs.append((anchored, history, work_vector_history(anchored)))
        for served, history, full in pairs:
            for target in all_configs(history.space):
                got = extract_trace(history, served, target)
                assert got == loop_extract_trace(full, served, target), (model, seed, target)
    assert repeated >= 18  # every m-cycle anchor, at least


def test_history_shape(m3_instance):
    inst = dataclasses.replace(m3_instance, requests=(2, 0, 1))
    history = work_vector_history(inst)
    assert len(history) == 4
    for t, w in enumerate(history):
        prefix = final_work_vector(dataclasses.replace(inst, requests=inst.requests[:t]))
        assert (w.values == prefix.values).all(), t


def test_histories_share_the_vectors(monkeypatch):
    # no row is copied: the base history stores the arrays its initial
    # vector and its updates return, and an anchored history stores the
    # base history's own rows.  The initial vector's entries are the cached
    # int16 distance vector itself
    returned = []
    initial, update = offline.initial_work_vector, offline.update_work_vector

    def recorded(fold):
        def wrapper(*args):
            returned.append(fold(*args))
            return returned[-1]
        return wrapper

    monkeypatch.setattr(offline, "initial_work_vector", recorded(initial))
    monkeypatch.setattr(offline, "update_work_vector", recorded(update))
    inst = generate_instance(6, 3, 8, seed=4)
    base = work_vector_history(inst)
    assert all(row is vector.values for row, vector in zip(base.rows, returned, strict=True))
    assert base.rows[0].dtype == base.space.dtype == np.int16
    anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * 40)
    returned.clear()
    history = work_vector_history(anchored, base)
    assert history.periodic_from < len(history.rows)
    base_len = len(inst.requests)
    assert all(a is b for a, b in zip(history.rows[: base_len + 1], base.rows, strict=True))
    assert all(row is vector.values for row, vector in zip(history.rows[base_len + 1 :], returned))
    assert len(history.rows) == base_len + 1 + len(returned) - 1  # the repeating row is not kept


def test_k7_uses_assignment_matching():
    # at k = 7 the initial alignment and final relocation still realize
    # the optimum through matching_assignment
    inst = generate_instance(9, 7, 3, seed=13)
    history = work_vector_history(inst)
    final = history[-1]
    target = final.space.config(0)
    trace = extract_trace(history, inst, target)
    assert trace.total_cost == final.value(target)
    assert trace_violations(trace, inst.metric, x_lazy=True) == []


def test_stacked_positions_handled():
    # both servers driven onto one point, then relocation must split them
    from kserver import Instance, MetricSpace

    line = MetricSpace.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    inst = Instance.build(line, 2, (0, 2), (1,))
    costs = oracle_schedule_costs(inst)
    assert (1, 2) in costs and (0, 1) in costs
    for target in itertools.combinations(range(3), 2):
        assert oracle_opt(inst, target) == final_work_vector(inst).value(target)


@pytest.mark.parametrize("weights", [(1, 1), (1, 9), (1, 1000)])
def test_final_relocation_costs_the_minimum_matching(weights):
    # the lemma behind C1b's batched relocation costs: on a metric,
    # pinning servers that stand on target points loses nothing
    for seed in range(40):
        stream = SplitMix64(seed)
        n = stream.randint(2, 8)
        k = stream.randint(1, min(n, 5))
        metric = random_metric(n, seed, weight_range=weights)
        lazy = [stream.randint(0, n - 1) for _ in range(k)]  # may stack
        for target in itertools.combinations(range(n), k):
            moved = list(lazy)
            moves, cost = _final_relocation(moved, target, metric)
            assert cost == matching_cost(lazy, target, metric), (seed, lazy, target)
            assert sorted(moved) == list(target)
            assert cost == sum(move.cost for move in moves)


# a wrong plan for target (2, 3) of a (4, 2, 4) instance: its serving
# server at round 2 moves on to point 2 instead of its planned leave
# point, and the lazy replay of that plan costs 17 against the optimal 11
WRONG_PLAN = {"seed": 1, "target": (2, 3), "round": 1, "point": 2}
WRONG_COST = r"extracted trace ending in \(2, 3\) costs 17, work vector says 11"


def target_nodes(steps, s):
    """Each target's node after round ``steps[s]``, through the parents of
    the later rounds: the nodes after the last round are the targets."""
    node = np.arange(steps[-1][1].size)
    for _, parent in steps[:s:-1]:
        node = parent[node]
    return node


def target_plans(first, steps):
    """Each target's first plan and its leave points after the shared
    rounds, read off ``_backtrack``'s nodes through their parents: one rank
    per target, and a (rounds, targets) table of leave points."""
    node = np.arange(steps[-1][1].size if steps else len(first))
    split = []
    for leave, parent in reversed(steps):
        split.append(leave[node])
        node = parent[node]
    return np.array(first)[node], np.array(split[::-1], dtype=np.intp).reshape(-1, node.size)


def wrong_plan_case(monkeypatch):
    inst = generate_instance(4, 2, 4, WRONG_PLAN["seed"])
    history = work_vector_history(inst)
    rank = history.space.rank(WRONG_PLAN["target"])
    assert int(history[-1].values[rank]) == 11
    backtrack = offline._backtrack

    def wrong(history, served, ranks):
        first, shared, steps, held_to = backtrack(history, served, ranks)
        t = WRONG_PLAN["round"]
        if len(ranks) == 1:  # one target: every leave point is shared
            assert shared[t] != WRONG_PLAN["point"]
            shared[t] = WRONG_PLAN["point"]
        else:
            # the plans differ from round 1 on: no leave point is shared.
            # The plan's node after round 2 is also (1, 3)'s, whose trace
            # still costs its entry with the changed point
            assert not shared and len(steps) == len(served.requests)
            nodes = target_nodes(steps, t)
            node = nodes[list(ranks).index(rank)]
            through = [history.space.config(r) for r, n in zip(ranks, nodes) if n == node]
            assert through == [(1, 3), (2, 3)]
            leave = steps[t][0].copy()
            assert leave[node] != WRONG_PLAN["point"]
            leave[node] = WRONG_PLAN["point"]
            steps[t] = (leave, steps[t][1])
        return first, shared, steps, held_to

    monkeypatch.setattr(offline, "_backtrack", wrong)
    return inst, history


def test_extract_trace_cost_check_names_the_target(monkeypatch):
    inst, history = wrong_plan_case(monkeypatch)
    with pytest.raises(RuntimeError, match=WRONG_COST):
        extract_trace(history, inst, WRONG_PLAN["target"])


def test_start_visits_cost_check_names_the_target(monkeypatch):
    inst, history = wrong_plan_case(monkeypatch)
    # every other target's plan but (1, 3)'s is intact, so only (2, 3)
    # mismatches
    with pytest.raises(RuntimeError, match=WRONG_COST):
        first_start_visits(history, inst, range(len(history.space)), 0)


def verify_mid_case():
    """The seed-114 (12, 4, 50) instance of the verify-mid benchmark with
    the anchor verify builds (alpha 2k-1, beta 0), folded onto its base
    history until a row equals the row k before it: 1398 rounds, 64 stored
    rows, repeating with period 4 from row 60."""
    inst = generate_instance(12, 4, 50, seed=114)
    base = work_vector_history(inst)
    cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * inst.k - 1, 0).cycles
    anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * cycles)
    history = work_vector_history(anchored, base)
    assert len(anchored.requests) == 1398
    assert history.periodic_from == 60 and len(history.rows) == 64
    return inst, anchored, history


def test_leave_points_of_verify_mid():
    # every target shares the leave points of rounds 1..1392; the 6 rounds
    # after the merge walk 3, 4, 12, 54, 165 and 495 nodes, one leave point
    # and one parent each, and the 495 targets share one first plan
    inst, anchored, history = verify_mid_case()
    first, shared, steps, _ = offline._backtrack(history, anchored, range(495))
    assert len(shared) == 1392 and len(first) == 1
    assert [leave.size for leave, _ in steps] == [3, 4, 12, 54, 165, 495]
    assert [parent.max() + 1 for _, parent in steps] == [1, 3, 4, 12, 54, 165]
    assert sum(leave.nbytes + parent.nbytes for leave, parent in steps) == 733 * 9
    _, shared, steps, _ = offline._backtrack(history, anchored, [7])
    assert len(shared) == 1398 and steps == []


def test_nodes_of_the_slowest_benchmark_instance():
    # the (15, 8, 4) instance of seed 26, which the verify-wide benchmark
    # draws at seed 1, with verify's anchor and C1b's sample of 512 of its
    # 6,435 targets: the targets merge 18 rounds before the end, and the
    # distinct ranks the backward pass walks after each of those rounds
    # fall from 512 to 2: 2,148 node steps, against the 18 * 512 = 9,216
    # steps of one walk per target
    inst = generate_instance(15, 8, 4, seed=26)
    base = work_vector_history(inst)
    cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * inst.k - 1, 0).cycles
    anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * cycles)
    history = work_vector_history(anchored, base)
    stream = SplitMix64(int(anchored.fingerprint()[:16], 16))
    ranks = stream.sample(len(history.space), 512)
    first, shared, steps, held_to = offline._backtrack(history, anchored, ranks)
    assert len(anchored.requests) == 780 and len(first) == 1
    assert len(shared) == held_to == 762
    assert [leave.size for leave, _ in steps] == [
        2, 2, 2, 2, 2, 5, 11, 12, 22, 24, 36, 57, 102, 182, 287, 405, 483, 512,
    ]
    assert sum(leave.size for leave, _ in steps) == 2148


def test_backtrack_rows_read_on_verify_mid(monkeypatch):
    # the 495 ranks merge at round 1392 onto the start, so the walk jumps
    # from there to the base: it reads the base rows and the 7 rows after
    # the merge, none of the anchor's first 1342 rounds
    inst, anchored, history = verify_mid_case()
    values = History.values
    asked = []
    monkeypatch.setattr(History, "values", lambda h, t: asked.append(t) or values(h, t))
    _, shared, _, held_to = offline._backtrack(history, anchored, range(495))
    monkeypatch.undo()
    assert held_to == len(shared) == 1392
    assert set(asked) == set(range(51)) | set(range(1392, 1399))
    assert len(set(asked)) == 58


def test_changed_start_entry_is_caught():
    # one stored anchor row whose start entry is off by one: the jump's
    # premise fails, the held rounds are walked one by one, and the held
    # step into that row finds no predecessor
    inst, anchored, history = verify_mid_case()
    start = history.space.rank(inst.initial)
    rows = list(history.rows)
    changed = rows[55].copy()
    changed[start] += 1
    rows[55] = changed
    broken = dataclasses.replace(history, rows=tuple(rows))
    assert offline._backtrack(history, anchored, [start])[3] == 1398
    with pytest.raises(RuntimeError, match=r"backtracking found no predecessor at round 56$"):
        extract_trace(broken, anchored, inst.initial)
    with pytest.raises(RuntimeError, match="backtracking found no predecessor"):
        first_start_visits(broken, anchored, range(len(history.space)), len(inst.requests))


@pytest.mark.parametrize("where,named", [
    ("shared", (0, 1, 2, 10)), ("node", (0, 1, 2, 3)), ("leaf", (0, 1, 3, 5)),
])
def test_corrupted_leave_point_is_caught(monkeypatch, where, named):
    # one leave point changed: at base round 11, which every target shares,
    # so the one replayed plan fails for all and the first target given is
    # named; in the node target 7's plan takes in the first round after
    # the merge, which 478 targets share, so the first of them is named;
    # or in a node of the fourth round after the merge that one target's
    # plan alone takes, so that target alone fails and is named
    inst, anchored, history = verify_mid_case()
    column = 7
    ranks = list(range(len(history.space)))
    if where == "shared":
        ranks.insert(0, ranks.pop(column))
    backtrack = offline._backtrack

    def corrupted(history, served, ranks):
        first, shared, steps, held_to = backtrack(history, served, ranks)
        if where == "shared":
            shared[10] = (shared[10] + 1) % inst.n
            return first, shared, steps, held_to
        s = 0 if where == "node" else 3
        nodes = target_nodes(steps, s)
        node = nodes[column] if where == "node" else np.flatnonzero(np.bincount(nodes) == 1)[0]
        through = np.flatnonzero(nodes == node)
        assert through.size == (478 if where == "node" else 1)
        assert history.space.config(ranks[through[0]]) == named
        leave = steps[s][0].copy()
        leave[node] = (leave[node] + 1) % inst.n
        steps[s] = (leave, steps[s][1])
        return first, shared, steps, held_to

    monkeypatch.setattr(offline, "_backtrack", corrupted)
    assert history.space.config(column) == (0, 1, 2, 10)
    with pytest.raises(RuntimeError, match=rf"ending in \({', '.join(map(str, named))}\)"):
        first_start_visits(history, anchored, ranks, len(inst.requests))


def uncovered_plan_case(monkeypatch, instance, target):
    """The full history of ``instance``, with the first plan of ``target``
    (every first plan if None) replaced by a configuration that lacks the
    first request, so no server of it can serve round 1.  Every target
    whose plan starts in the same node is changed with it."""
    history = work_vector_history(instance)
    space = history.space
    lacking = next(i for i, c in enumerate(all_configs(space)) if instance.requests[0] not in c)
    backtrack = offline._backtrack
    if target is not None:
        (wrong,) = backtrack(history, instance, [space.rank(target)])[0]

    def uncovered(history, served, ranks):
        first, shared, steps, held_to = backtrack(history, served, ranks)
        first = [lacking if target is None or f == wrong else f for f in first]
        return first, shared, steps, held_to

    monkeypatch.setattr(offline, "_backtrack", uncovered)
    return history


@pytest.mark.parametrize("instance,target,named", [
    # one wrong node among plans that differ from round 1 on: (1, 3)'s plan
    # starts in (2, 3)'s node, and comes first
    ((4, 2, 4, 1), (2, 3), (1, 3)),
    # every node wrong alike, one replayed row for all: the first named
    ((12, 4, 50, 114), None, (0, 1, 2, 3)),
])
def test_uncovered_request_raises(monkeypatch, instance, target, named):
    inst = generate_instance(*instance)
    history = uncovered_plan_case(monkeypatch, inst, target)
    message = rf"plan ending in \({', '.join(map(str, named))}\) does not cover request \d+ at round 1$"
    with pytest.raises(RuntimeError, match=message):
        first_start_visits(history, inst, range(len(history.space)), 0)
    with pytest.raises(RuntimeError, match=message):
        extract_trace(history, inst, named)
    if target is not None:  # and (2, 3)'s own trace fails alike
        with pytest.raises(RuntimeError, match=r"plan ending in \(2, 3\) does not cover"):
            extract_trace(history, inst, target)


def test_extract_trace_skips_repeated_cycles(monkeypatch):
    # C1b's reference trace on the verify-mid instance: the replay builds
    # the rounds up to the anchor's first cycle, one cycle of empty moves
    # on the start and the tail after the plan leaves it, not all 1398,
    # and equals the loop on the full fold
    inst, anchored, history = verify_mid_case()
    target = history.space.config(0)
    built = []

    def counted(*args):
        built.append(args)
        return Round(*args)

    monkeypatch.setattr(offline, "Round", counted)
    trace = extract_trace(history, anchored, target)
    monkeypatch.undo()
    assert len(built) < 100
    assert len(trace.rounds) == 1398
    assert trace == loop_extract_trace(work_vector_history(anchored), anchored, target)
