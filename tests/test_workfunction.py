import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kserver import (
    InputError,
    Instance,
    MetricSpace,
    final_work_vector,
    generate_instance,
    initial_work_vector,
    matching_cost,
    random_metric,
    run_wfa,
    update_work_vector,
    verify_anchored_properties,
)
from kserver.anchor import compute_anchor
from kserver.execution import ExecutionTrace, Move, Round
from kserver.metric import INT64_MAX
from kserver.offline import (
    _backtrack,
    extract_trace,
    first_start_visits,
    opt_cost,
    oracle_opt,
    oracle_work_vector,
    work_vector_history,
)
from kserver.rng import SplitMix64
from kserver.workfunction import (
    ConfigurationSpace,
    History,
    WorkVector,
    configuration_space,
    wfa_ranks,
)
from trace_checks import trace_violations
from vector_checks import all_configs, d_equivalence, shifted, vector_pairs


def small_instance(seed, n_max=5, k_max=3, len_max=6):
    from kserver.rng import SplitMix64

    stream = SplitMix64(seed)
    n = stream.randint(2, n_max)
    k = stream.randint(1, min(k_max, n))
    rho_len = stream.randint(0, len_max)
    return generate_instance(n, k, rho_len, seed)


class TestInitialVector:
    def test_m3_values(self, m3):
        w = initial_work_vector(m3, (0, 1))
        assert w.value((0, 1)) == 0
        assert w.value((0, 2)) == 2
        assert w.value((1, 2)) == 3

    def test_equals_matching_distance_everywhere(self):
        from kserver import random_metric

        metric = random_metric(6, seed=17)
        w = initial_work_vector(metric, (0, 2, 4))
        for cfg in itertools.combinations(range(6), 3):
            assert w.value(cfg) == matching_cost((0, 2, 4), cfg, metric)


class TestUpdate:
    def test_m3_request_2(self, m3, m3_instance):
        w = update_work_vector(initial_work_vector(m3, (0, 1)), 2)
        assert w.value((0, 2)) == 2
        assert w.value((1, 2)) == 3
        assert w.value((0, 1)) == 4
        # full-vector agreement with the schedule-enumeration oracle
        oracle = oracle_work_vector(m3_instance)
        for cfg, value in vector_pairs(w):
            assert value == oracle[cfg]

    def test_m3_request_already_in_start(self, m3, m3_instance):
        w0 = initial_work_vector(m3, (0, 1))
        w = update_work_vector(w0, 0)
        assert w.value((1, 2)) == 3 == w0.value((1, 2))
        oracle = oracle_work_vector(dataclasses.replace(m3_instance, requests=(0,)))
        for cfg, value in vector_pairs(w):
            assert value == oracle[cfg]

    def test_covered_request_changes_nothing_for_members(self, m3):
        w0 = initial_work_vector(m3, (0, 1))
        w1 = update_work_vector(w0, 1)
        for cfg, value in vector_pairs(w1):
            if 1 in cfg:
                assert value == w0.value(cfg)

    def test_input_vector_not_modified(self, m3):
        w0 = initial_work_vector(m3, (0, 1))
        before = w0.values.copy()
        update_work_vector(w0, 2)
        assert np.array_equal(w0.values, before)
        with pytest.raises(ValueError):
            w0.values[0] = 99  # read-only storage

    def test_equals_a_dense_reference_fold(self):
        # every entry, those of configurations holding the request too, on
        # seeded instances from k = 1 up to k = n
        shapes = set()
        for seed in range(1, 41):
            inst = small_instance(seed, n_max=7, k_max=7, len_max=10)
            shapes.add(inst.n - inst.k)
            vector = initial_work_vector(inst.metric, inst.initial)
            for request in inst.requests:
                want = loop_update(vector, request)
                vector = update_work_vector(vector, request)
                assert vector.values.tolist() == want, (seed, request)
        assert {0, 1, 2} <= shapes

    def test_request_checked_before_the_cache(self, m3):
        # True and 1.0 hash like 1: a cached table for 1 must not serve them
        w = update_work_vector(initial_work_vector(m3, (0, 1)), 1)
        for bad in (True, 1.0, [1], 3):
            with pytest.raises(InputError):
                update_work_vector(w, bad)

    def test_cached_int_skips_the_check_and_nothing_else(self, m3):
        # an int is looked up before it is checked; any other type, and an
        # int that is not a cached point, is checked first
        space = configuration_space(m3, 2)
        cached = space.transitions(1)
        for bad in (True, 1.0, -1, m3.n):
            with pytest.raises(InputError):
                space.transitions(bad)
        assert space.transitions(np.int64(1)) is cached
        assert space.transitions(1) is cached


def loop_transitions(space, request):
    """Reference: the per-configuration loop over the configurations that
    miss the request, configuration-major (C(n-1, k), k) tables of swapped
    ranks and move costs, and the ranks of those configurations."""
    dist = space.metric.dist
    configs = all_configs(space)
    uncovered = [i for i, cfg in enumerate(configs) if request not in cfg]
    targets = np.empty((len(uncovered), space.k), dtype=np.intp)
    costs = np.zeros((len(uncovered), space.k), dtype=np.int64)
    for c, i in enumerate(uncovered):
        cfg = configs[i]
        for j, z in enumerate(cfg):
            swapped = tuple(sorted(cfg[:j] + cfg[j + 1 :] + (request,)))
            targets[c, j] = space.rank(swapped)
            costs[c, j] = dist[request][z]
    return uncovered, targets, costs


def loop_update(vector, request):
    """Reference: the recurrence at every configuration in Python ints,
    min over z in X of w(X - z + r) + d(r, z), skipping the replacements
    that would collapse X; covered configurations are not told apart."""
    space, dist = vector.space, vector.space.metric.dist
    values = vector.values.tolist()
    out = []
    for cfg in all_configs(space):
        scores = []
        for j, z in enumerate(cfg):
            swapped = tuple(sorted(cfg[:j] + cfg[j + 1 :] + (request,)))
            if len(set(swapped)) == len(swapped):
                scores.append(values[space.rank(swapped)] + dist[request][z])
        out.append(min(scores))
    return out


def loop_decide(vector, config, request):
    """Reference: score every server of the configuration by swapping it
    for the request one tuple at a time; ties to the smallest position."""
    cfg = tuple(config)
    if request in cfg:
        return Round(request, (), cfg)
    dist = vector.space.metric.dist
    best_score = best = None
    for j, x in enumerate(cfg):
        swapped = tuple(sorted(cfg[:j] + cfg[j + 1 :] + (request,)))
        score = int(vector.values[vector.space.rank(swapped)]) + dist[x][request]
        if best_score is None or score < best_score:
            best_score, best = score, Round(request, (Move(x, request, dist[x][request]),), swapped)
    return best


def loop_run(vectors, requests, start):
    """Reference: ``loop_decide`` at every round from the configuration
    ``start``, each round decided from the matching item of ``vectors``
    (work vectors; a ``History`` will do), with no periodic stop."""
    config, rounds, total = tuple(start), [], 0
    for vector, request in zip(vectors, requests):
        rnd = loop_decide(vector, config, request)
        total += sum(move.cost for move in rnd.moves)
        rounds.append(rnd)
        config = rnd.config
    return ExecutionTrace(tuple(start), tuple(rounds), total)


def rank_decide(vector, config, request):
    """One round of ``wfa_ranks`` from ``config``: the configuration after
    it and its cost, which fix the round."""
    space = vector.space
    end, _, cost = wfa_ranks(space, (vector.values,), (request,), space.rank(config))
    return space.config(end), cost


def ranked_run(space, vectors, requests, start):
    """``wfa_ranks`` from ``start`` with a trail: the configuration before
    the first round and after each, and the total."""
    trail = [space.rank(start)]
    total = wfa_ranks(space, vectors, requests, trail[0], trail=trail)[2]
    return [space.config(rank) for rank in trail], total


def trace_run(trace):
    """The configuration before the first round of a trace and after each,
    and its total."""
    return [trace.config_after(t) for t in range(len(trace.rounds) + 1)], trace.total_cost


def loop_distance_vector(space, origin):
    """Reference: one exact matching per configuration.

    ``matching_cost`` is the scalar subset DP in Python integers, which
    ``tests/test_metric.py`` checks against all k! permutations at every
    k from 1 to 8.
    """
    return np.array(
        [matching_cost(origin, cfg, space.metric) for cfg in all_configs(space)],
        dtype=np.int64,
    )


# n from 2 to 16, k from 1 to 8; (16, 8) has 12,870 configurations
KERNEL_SHAPES = [
    (2, 1), (2, 2), (3, 2), (4, 4), (5, 3), (6, 1), (7, 5), (8, 8),
    (9, 4), (10, 2), (11, 6), (12, 8), (13, 3), (14, 1), (15, 2),
]
WEIGHT_RANGES = [(1, 1), (1, 9), (1, 1000)]


def kernel_cases():
    for (n, k), weights in itertools.product(KERNEL_SHAPES, WEIGHT_RANGES):
        yield n, k, weights
    # the largest space once: its reference loops take seconds, and its
    # distance vector is checked from one origin only (12,870 scalar
    # matchings at k = 8 per origin)
    yield 16, 8, (1, 1000)


class TestConfigurationSpaceKernels:
    @pytest.mark.parametrize("n,k,weights", list(kernel_cases()))
    def test_tables_equal_the_loops(self, n, k, weights):
        space = ConfigurationSpace(random_metric(n, seed=100 * n + k, weight_range=weights), k)
        for request in range(n):
            covered, costs, uncovered, column = space.transitions(request)
            ref_uncovered, ref_targets, ref_costs = loop_transitions(space, request)
            assert np.array_equal(uncovered, ref_uncovered)
            assert np.array_equal(covered.take(space.swaps), ref_targets.T)
            assert np.array_equal(costs, ref_costs.T)
            assert np.array_equal(column[uncovered], np.arange(len(uncovered)))
            assert np.array_equal(column[covered], np.full(len(covered), -1))
        size = len(space)
        ranks = {0} if (n, k) == (16, 8) else {0, size // 3, size - 1}
        for rank in sorted(ranks):
            origin = space.config(rank)
            assert np.array_equal(
                space.distance_vector(origin), loop_distance_vector(space, origin)
            )

    @pytest.mark.parametrize("kind", [np.uint8, np.int64])
    def test_numpy_requests_equal_int_requests(self, kind):
        # on a space of its own, the numpy scalar builds every table rather
        # than reading one cached from an int; the build shifts by the
        # request, and 1 << (15 - np.uint8(p)) is 0 for p up to 7
        metric = random_metric(16, seed=16)
        plain, built = ConfigurationSpace(metric, 3), ConfigurationSpace(metric, 3)
        before = [WorkVector(space, space.distance_vector((0, 5, 11))) for space in (plain, built)]
        for p in range(16):
            after = update_work_vector(before[1], kind(p))
            assert np.array_equal(after.values, update_work_vector(before[0], p).values)
            for got, want in zip(built.transitions(kind(p)), plain.transitions(p)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,k", [(3, 1), (6, 3), (16, 8)])
    def test_table_layout(self, n, k):
        # slot-major and contiguous: a transposed or F-ordered table would
        # give the same values, but every update over it would be slow
        space = ConfigurationSpace(random_metric(n, seed=7), k)
        size = len(space)
        width = math.comb(n - 1, k)
        for table, shape, dtype in (
            (space.slots, (k, size), np.uint8), (space.swaps, (k, width), np.intp),
        ):
            assert table.shape == shape
            assert table.dtype == dtype
            assert table.flags.c_contiguous
            assert not table.flags.writeable
        # weights 1-9 fit int16 with room for (k + 3) times the largest
        assert space.dtype == np.int16
        for request in (0, n - 1):
            covered, costs, uncovered, column = space.transitions(request)
            assert costs.shape == (k, width)
            assert costs.dtype == space.dtype
            assert costs.flags.c_contiguous
            assert not costs.flags.writeable
            for table, length, dtype in (
                (covered, math.comb(n - 1, k - 1), np.intp), (uncovered, width, np.intp),
                (column, size, np.int32),
            ):
                assert table.shape == (length,)
                assert table.dtype == dtype
                assert not table.flags.writeable
            held = [i for i, cfg in enumerate(all_configs(space)) if request in cfg]
            assert covered.tolist() == held
            assert np.array_equal(column == -1, np.isin(np.arange(size), held))
            assert np.array_equal(column[uncovered], np.arange(width))
        vector = space.distance_vector(space.config(size - 1))
        assert vector.shape == (size,)
        assert vector.dtype == space.dtype
        assert not vector.flags.writeable
        # the initial vector's entries are its space's cached distance vector
        initial = initial_work_vector(space.metric, space.config(size - 1))
        assert initial.values is initial.space.distance_vector(space.config(size - 1))
        assert initial.values.dtype == space.dtype
        assert initial.values.tolist() == vector.tolist()

    @pytest.mark.parametrize("n", [1, 5])
    def test_lattices_without_points_or_with_empty_subsets(self, n):
        # k = 1: the (k-1)-subsets of the lattice are the empty set alone,
        # so every swap lands on the request; n = 1: the lattice has no
        # points, and no configuration misses the request
        space = ConfigurationSpace(MetricSpace(((0,),)) if n == 1 else random_metric(n, seed=n), 1)
        assert space.swaps.tolist() == [[0] * (n - 1)]
        for request in range(n):
            covered, costs, uncovered, column = space.transitions(request)
            assert covered.tolist() == [request]
            assert uncovered.tolist() == [p for p in range(n) if p != request]
            assert costs.tolist() == [[space.metric.dist[request][p] for p in uncovered.tolist()]]
            assert column.tolist() == [-1 if p == request else p - (p > request) for p in range(n)]
        vector = initial_work_vector(space.metric, (0,))
        for request in range(n):
            want = loop_update(vector, request)
            vector = update_work_vector(vector, request)
            assert vector.values.tolist() == want

    def test_table_bytes(self):
        # k int16 costs per configuration that misses the request: 2 * 8 *
        # C(14, 8) = 48,048 bytes at (15, 8), where int64 costs took
        # 192,192.  The swaps are one intp table of the space, 192,192
        # bytes; a per-request intp target table made a request's tables
        # 384,384, and tables over all C(15, 8) configurations took 823,680
        space = ConfigurationSpace(random_metric(15, seed=15), 8)
        assert space.dtype == np.int16
        for request in range(15):
            assert space.transitions(request).costs.nbytes == 2 * 8 * math.comb(14, 8) == 48_048
        assert space.swaps.nbytes == 8 * 8 * math.comb(14, 8) == 192_192

    @pytest.mark.parametrize(
        "shape, seed, tables, per_table, swaps",
        [((15, 8, 4), 1, 10, 125_268, 192_192), ((16, 6, 4), 2, 8, 156_156, 240_240)],
    )
    def test_cache_bytes_after_verify(self, shape, seed, tables, per_table, swaps):
        # verify caches one table set per distinct anchored request: int16
        # costs, intp covered and uncovered ranks and an int32 rank ->
        # column map; the space adds one intp swap table.  At (15, 8, 4)
        # that is 1,252,680 + 192,192 bytes, where int64 costs made the
        # cache 2,694,120, per-request intp target tables 4,341,480 and an
        # intp map 4,598,880; per request, int64 costs took 269,412 bytes
        # at (15, 8) and 336,336 at (16, 6)
        configuration_space.cache_clear()
        inst = generate_instance(*shape, seed)
        n, k, _ = shape
        assert verify_anchored_properties(inst, "2k-1", 0, 3).status == "pass"
        space = configuration_space(inst.metric, inst.k)
        cached = space._transitions.values()
        assert all(table.column.dtype == np.int32 for table in cached)
        assert all(table.costs.dtype == np.int16 for table in cached)
        assert per_table == (
            2 * k * math.comb(n - 1, k) + 8 * math.comb(n - 1, k - 1)
            + 8 * math.comb(n - 1, k) + 4 * math.comb(n, k)
        )
        assert len(cached) == tables
        assert sum(a.nbytes for table in cached for a in table) == tables * per_table
        assert space.swaps.nbytes == swaps == 8 * k * math.comb(n - 1, k)
        # and the space keeps no k x |configs| intp table
        wide = [
            name for name, a in vars(space).items()
            if isinstance(a, np.ndarray) and a.dtype == np.intp and a.size >= k * len(space)
        ]
        assert wide == []

    def test_slots_follow_combinations(self):
        # the numpy build against itertools, for every 1 <= k <= n <= 16,
        # and rank/config as inverses of that order
        for n in range(1, 17):
            metric = MetricSpace(((0,),)) if n == 1 else random_metric(n, seed=n)
            for k in range(1, n + 1):
                space = ConfigurationSpace(metric, k)
                ref = list(itertools.combinations(range(n), k))
                assert len(space) == len(ref)
                assert space.slots.tobytes() == np.array(ref, dtype=np.uint8).T.tobytes()
                for rank in {0, len(ref) // 2, len(ref) - 1}:
                    assert space.config(rank) == ref[rank]
                    assert all(type(p) is int for p in space.config(rank))
                if n <= 12:
                    assert [space.rank(cfg) for cfg in ref] == list(range(len(ref)))

    def test_rank_refuses_what_is_not_a_configuration(self):
        space = ConfigurationSpace(random_metric(6, seed=6), 3)
        assert space.rank((0, 2, 5)) == space.rank([np.uint8(0), np.int64(2), 5])
        for bad in ((0, 2), (0, 2, 5, 6), (2, 0, 5), (0, 0, 5), (-1, 2, 5), (0, 2, 6),
                    (0, 2, 5.0), (0, 2, "5")):
            with pytest.raises(InputError, match="is not a configuration of this space"):
                space.rank(bad)

    @pytest.mark.parametrize("n", [14, 16])
    def test_distance_vector_at_the_int64_bound(self, n):
        # k * largest = 2^63 - 1 exactly (7 divides it); entries in the
        # upper half of [0, largest] satisfy the triangle inequality, and
        # an origin's disjoint configurations sit at exactly INT64_MAX
        k = 7
        largest = INT64_MAX // k
        assert k * largest == INT64_MAX
        rng = random.Random(n)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = largest - rng.randrange(largest // 2)
        matrix[0][n - 1] = matrix[n - 1][0] = largest
        uniform = MetricSpace.from_matrix(
            [[0 if i == j else largest for j in range(n)] for i in range(n)]
        )
        space = ConfigurationSpace(uniform, k)
        for origin in (tuple(range(k)), tuple(range(n - k, n)), (0, 2, 4, 6, 8, 10, 12)):
            missing = [len(set(cfg) - set(origin)) for cfg in all_configs(space)]
            assert space.distance_vector(origin).tolist() == [largest * m for m in missing]
            assert space.distance_vector(origin).max() == INT64_MAX
        if n == 14:  # the scalar reference takes about a second per origin
            space = ConfigurationSpace(MetricSpace.from_matrix(matrix), k)
            origin = tuple(range(k))
            assert np.array_equal(space.distance_vector(origin), loop_distance_vector(space, origin))

    @pytest.mark.parametrize("shape, seed", [((12, 4, 50), 114), ((16, 6, 4), 2), ((15, 8, 4), 1)])
    def test_verify_builds_only_what_it_reads(self, shape, seed):
        # one transition table per distinct request of the anchored
        # sequence (the base requests and the start points the anchor
        # cycles over): the start's distance vector reads the anchor's own
        # tables.  No rank dict is built either
        configuration_space.cache_clear()
        inst = generate_instance(*shape, seed)
        assert verify_anchored_properties(inst, "2k-1", 0, 3).status == "pass"
        space = configuration_space(inst.metric, inst.k)
        assert set(space._transitions) == set(inst.requests) | set(inst.initial)
        assert not hasattr(space, "index")
        caches = [value for value in vars(space).values() if isinstance(value, dict)]
        assert all(not isinstance(v, int) for cache in caches for v in cache.values())

    def test_int64_overflow_is_refused(self):
        # the distance DP adds up to k distances: 2 * 2^62 would wrap
        far = 2**62
        metric = MetricSpace.from_matrix([[0, far, far], [far, 0, far], [far, far, 0]])
        with pytest.raises(InputError, match="int64 bound"):
            initial_work_vector(metric, (0, 1))
        # the largest distance that still fits twice
        near = (2**63 - 1) // 2
        metric = MetricSpace.from_matrix([[0, near, near], [near, 0, near], [near, near, 0]])
        vector = initial_work_vector(metric, (0, 1))
        assert vector_pairs(vector) == [((0, 1), 0), ((0, 2), near), ((1, 2), near)]


class TestDecide:
    """One round of ``wfa_ranks``: the decision rule."""

    def test_covered_request_is_empty_move(self, m3):
        w = initial_work_vector(m3, (0, 1))
        assert rank_decide(w, (0, 1), 0) == ((0, 1), 0)

    def test_m3_moves_closer_server(self, m3):
        w = initial_work_vector(m3, (0, 1))
        assert rank_decide(w, (0, 1), 2) == ((0, 2), 2)

    def test_tie_breaks_to_smallest_position(self, uniform3):
        w = initial_work_vector(uniform3, (0, 1))
        assert rank_decide(w, (0, 1), 2) == ((1, 2), 1)

    def test_errors(self, m3):
        w = initial_work_vector(m3, (0, 1))
        with pytest.raises(InputError):
            rank_decide(w, (0, 5), 2)
        with pytest.raises(InputError):
            rank_decide(w, (0, 1), 9)
        # refused once point 1's table is cached, too
        rank_decide(w, (0, 2), 1)
        for request in (True, 1.0, -1):
            with pytest.raises(InputError):
                rank_decide(w, (0, 2), request)

    def test_numpy_inputs_give_python_ints(self, m3):
        w = initial_work_vector(m3, (0, 1))
        space = w.space
        for config, request, want in (
            ((0, 1), np.int64(2), ((0, 2), 2)),
            (np.array([0, 1]), np.int64(1), ((0, 1), 0)),
        ):
            result = wfa_ranks(space, (w.values,), (request,), space.rank(config))
            assert (space.config(result[0]), result[2]) == want
            assert all(type(value) is int for value in result), result
        # and every field of the rounds run_wfa builds
        trace = run_wfa(Instance.build(m3, 2, np.array([0, 1]), np.array([2, 1, 0])))
        assert trace.rounds[0] == Round(2, (Move(1, 2, 2),), (0, 2))
        for rnd in trace.rounds:
            moves = [(m.origin, m.target, m.cost) for m in rnd.moves]
            fields = (rnd.request, *rnd.config, *itertools.chain(*moves))
            assert all(type(value) is int for value in fields), rnd
        assert type(trace.total_cost) is int

    @pytest.mark.parametrize("n,k,weights", list(kernel_cases()))
    def test_equals_the_loop(self, n, k, weights):
        # every configuration and request, on a vector some requests in:
        # weights (1, 1) tie most scores
        metric = random_metric(n, seed=100 * n + k, weight_range=weights)
        space = ConfigurationSpace(metric, k)
        vector = initial_work_vector(metric, space.config(len(space) // 3))
        for request in (n - 1, 0, n // 2):
            vector = update_work_vector(vector, request)
        for config in all_configs(space):
            for request in range(n):
                want = loop_decide(vector, config, request)
                cost = sum(move.cost for move in want.moves)
                assert rank_decide(vector, config, request) == (want.config, cost)


class TestRunWfa:
    def test_empty_sequence(self, m3_instance):
        trace = run_wfa(dataclasses.replace(m3_instance, requests=()))
        assert trace.total_cost == 0
        assert trace.rounds == ()
        assert trace.config_after(0) == (0, 1)

    def test_single_request(self, m3_instance):
        trace = run_wfa(m3_instance)
        assert trace.total_cost == 2
        assert trace.rounds[-1].config == (0, 2)

    def test_second_request_covered(self, m3_instance):
        trace = run_wfa(dataclasses.replace(m3_instance, requests=(2, 0)))
        assert trace.total_cost == 2
        assert trace.rounds[1].moves == ()

    def test_traces_are_lazy(self):
        for seed in range(1, 15):
            inst = small_instance(seed)
            trace = run_wfa(inst)
            assert trace_violations(trace, inst.metric) == []

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_continued_run_equals_a_run_from_the_start(self, q):
        # the verify harness serves blocks 2..q of the repeated anchored
        # block by continuing the anchored run, each block folded from the
        # previous block's last vector up to its anchor's fixed point; that
        # must be exactly the run over the whole repeated block
        for seed, model in ((3, "uniform"), (8, "roundrobin_k_plus_1"), (5, "greedy_adversary")):
            inst = generate_instance(6, 3, 7, seed, request_model=model)
            opt = opt_cost(final_work_vector(inst))
            anchor = compute_anchor(inst, opt, 5, 0)
            anchored = dataclasses.replace(inst, requests=inst.requests + anchor.requests)
            repeated = dataclasses.replace(anchored, requests=anchored.requests * q)
            space = configuration_space(inst.metric, inst.k)
            trail = [space.rank(inst.initial)]
            history = work_vector_history(anchored)
            total = wfa_ranks(space, history, anchored.requests, trail[0], trail=trail)[2]
            vector = history[-1]
            for _ in range(q - 1):
                block = work_vector_history(anchored, work_vector_history(inst, first=vector))
                assert block.fixed_cycle is not None
                total += wfa_ranks(space, block, anchored.requests, trail[-1], trail=trail)[2]
                vector = block[-1]
            assert np.array_equal(vector.values, final_work_vector(repeated).values)
            fresh = run_wfa(repeated)
            assert ([space.config(rank) for rank in trail], total) == trace_run(fresh)

    def test_run_read_off_a_stored_history(self):
        # the algorithm is online, so the history of the served sequence
        # holds every vector the run decides from
        for model, weights, seed, rho_len in itertools.product(
            ("uniform", "roundrobin_k_plus_1", "greedy_adversary"),
            ((1, 9), (1, 1)),
            range(1, 5),
            (0, 9),
        ):
            inst = generate_instance(6, 3, rho_len, seed, request_model=model, weight_range=weights)
            history = work_vector_history(inst)
            fresh = run_wfa(inst)
            assert ranked_run(history.space, history, inst.requests, inst.initial) == trace_run(fresh)
            assert fresh == loop_run(history, inst.requests, inst.initial)
            assert len(fresh.rounds) == rho_len


class TestHistory:
    """A ``History`` read on rows that repeat with the period but differ
    inside a cycle, which folded work vectors rarely show: reads and the
    compressed online run against every vector listed out."""

    @pytest.mark.parametrize("fixed_cycle", [1, 2, 4])
    def test_periodic_reads_and_compressed_run(self, fixed_cycle):
        costly = 0
        for seed in range(1, 30):
            inst = generate_instance(6, 3, 4, seed)
            space = configuration_space(inst.metric, inst.k)
            stream = SplitMix64(seed)
            base_len, k, cycles = len(inst.requests), inst.k, 7
            periodic_from = base_len + (fixed_cycle - 1) * k

            def row():
                values = [stream.randint(0, 40) for _ in range(len(space))]
                return np.array(values, dtype=space.dtype)

            prefix = [row() for _ in range(periodic_from)]
            cycle = [row() for _ in range(k)]
            length = base_len + cycles * k
            listed = (prefix + cycle * (cycles + 1))[: length + 1]
            rows = np.array(listed[: periodic_from + k])
            rows.setflags(write=False)
            history = History(space, rows, length, base_len, fixed_cycle)
            assert history.periodic_from == periodic_from
            assert len(history) == length + 1
            for t, vector in enumerate(history):
                assert np.array_equal(vector.values, listed[t])
            assert np.array_equal(history[-1].values, listed[-1])
            with pytest.raises(IndexError):
                history[length + 1]

            requests = inst.requests + inst.initial * cycles
            want = loop_run([WorkVector(space, v) for v in listed], requests, inst.initial)
            assert ranked_run(space, history, requests, inst.initial) == trace_run(want)
            costly += any(rnd.moves for rnd in want.rounds[-k:])
        assert costly >= 2  # runs still moving in their last cycle


    def test_index_error_names_the_index_passed(self, m3_instance):
        inst = dataclasses.replace(m3_instance, requests=(2, 0, 1))
        history = work_vector_history(inst)
        first = initial_work_vector(inst.metric, inst.initial)
        assert np.array_equal(history[-4].values, first.values)
        assert np.array_equal(history[3].values, final_work_vector(inst).values)
        for t in (-5, 4):
            with pytest.raises(IndexError, match=f"history index {t} out of range for 4 vectors"):
                history[t]


def python_int_fold(space, initial, requests):
    """Reference: the values after each prefix of ``requests`` as lists of
    Python ints, the first the matching distances from ``initial`` and each
    next one ``loop_update`` of the last."""
    rows = [[matching_cost(initial, cfg, space.metric) for cfg in all_configs(space)]]
    for request in requests:
        rows.append(loop_update(WorkVector(space, np.array(rows[-1], dtype=np.int64)), request))
    return rows


def widening_instance(n, k, rho_len, seed, weights, model="uniform", start=None):
    inst = generate_instance(n, k, rho_len, seed, request_model=model, weight_range=weights)
    return inst if start is None else Instance.build(inst.metric, k, start, inst.requests)


def widened_from(history):
    """The first stored row in int64, or None; every row after it is int64."""
    wide = [row.dtype == np.int64 for row in history.rows]
    first = wide.index(True) if True in wide else None
    assert first is None or all(wide[first:])
    return first


class TestNarrowStorage:
    """Vectors are stored in int16 where the metric allows it, and a fold
    whose result passes the space's ceiling widens it to int64.  The
    widening cases pick weights whose values pass the ceiling: in the base,
    whose values then pass int16's maximum, and in the anchor, whose start
    is not rank 0 so that the rank-0 entry still rises there.  Everything
    read off the rows must equal a fold in Python ints."""

    @pytest.mark.parametrize(
        "k, largest, dtype",
        [
            (8, 1820, np.int16), (8, 1821, np.int64), (2, 5461, np.int16), (2, 5462, np.int64),
            (7, INT64_MAX // 7, np.int64),
        ],
    )
    def test_dtype_and_ceiling(self, k, largest, dtype):
        # int16 if it holds 2 (k + 1) largest; an int64 space never widens
        n = k + 1
        matrix = [[0 if i == j else largest for j in range(n)] for i in range(n)]
        space = ConfigurationSpace(MetricSpace.from_matrix(matrix), k)
        assert space.dtype == dtype
        top = int(np.iinfo(np.int16).max)
        assert space.ceiling == (INT64_MAX if dtype is np.int64 else top - (k + 1) * largest)
        for request in range(n):
            assert space.transitions(request).costs.dtype == dtype

    @pytest.mark.parametrize(
        "n, k, rho_len, seed, weights, model, start, dtype, widened",
        [
            (10, 8, 160, 1, (1700, 1820), "greedy_adversary", None, np.int16, 60),
            (10, 8, 60, 6, (1700, 1820), "uniform", tuple(range(2, 10)), np.int16, 68),
            (6, 3, 40, 1, (5000, 6000), "uniform", None, np.int64, 0),
        ],
    )
    def test_widened_histories_equal_a_python_int_fold(
        self, n, k, rho_len, seed, weights, model, start, dtype, widened
    ):
        inst = widening_instance(n, k, rho_len, seed, weights, model, start)
        space = configuration_space(inst.metric, k)
        assert space.dtype == dtype
        base_len = len(inst.requests)
        base = work_vector_history(inst)
        cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * k - 1, 0).cycles
        anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * cycles)
        history = work_vector_history(anchored, base)

        # every stored row, and three cycles read back from the periodic ones
        checked = min(len(history), history.periodic_from + 3 * k + 1)
        reference = python_int_fold(space, inst.initial, anchored.requests[: checked - 1])
        for t in range(checked):
            assert history[t].values.tolist() == reference[t], t
        # the first widened row, in the base (60 < 160) or in the anchor (68 > 60)
        assert widened_from(history) == widened
        if dtype is np.int16:
            assert history.rows[widened - 1][0] <= space.ceiling < history.rows[widened][0]

        # decisions: read off the history, folded afresh, and the loop's
        trace = run_wfa(anchored)
        assert ranked_run(space, history, anchored.requests, inst.initial) == trace_run(trace)
        vectors = [WorkVector(space, np.array(row, dtype=np.int64)) for row in reference[:-1]]
        want = loop_run(vectors, anchored.requests, inst.initial)
        assert trace.rounds[: checked - 1] == want.rounds

        # every target's trace costs its value, through backtracks that
        # cross the widened round: one walk per target, the batched walk
        # over the anchored history, and one over the base, whose targets
        # stay apart for many rounds
        final = history[-1].values.tolist()
        for rank in range(len(space)):
            assert extract_trace(history, anchored, space.config(rank)).total_cost == final[rank]
        first_start_visits(history, anchored, range(len(space)), base_len)
        # the start's value is the same in every anchor row, int16 or
        # int64, so the walk from the start jumps over the anchor
        at_start = space.rank(inst.initial)
        assert _backtrack(history, anchored, [at_start])[3] == len(anchored.requests)
        visits = []
        for rank in range(len(space)):
            trace = extract_trace(base, inst, space.config(rank))
            assert trace.total_cost == reference[base_len][rank]
            on_start = (t for t in range(base_len) if trace.config_after(t) == inst.initial)
            visits.append(next(on_start, -1))
        assert first_start_visits(base, inst, range(len(space)), 0).tolist() == visits

        # and the report reads the same values
        report = verify_anchored_properties(inst, 2 * k - 1, 0, 3)
        assert report.values["opt"] == min(reference[base_len])
        assert report.values["opt_rho_sigma"] == min(final)
        assert report.check("P1").lhs == reference[base_len][at_start]
        minimizers = [rank for rank, value in enumerate(final) if value == min(final)]
        assert (report.check("C1a").status == "pass") == (minimizers == [at_start])
        distance = [matching_cost(inst.initial, cfg, inst.metric) for cfg in all_configs(space)]
        c2 = all(value - final[at_start] == d for value, d in zip(final, distance))
        assert (report.check("C2").status == "pass") == c2

    @pytest.mark.parametrize("start", [None, (2, 3)])
    def test_widened_short_sequences_equal_the_oracle(self, start):
        # k = 2 at weights near 5,461: int16, widened within 14 requests,
        # and every value against the k^T schedule enumeration
        for seed in range(1, 4):
            inst = widening_instance(4, 2, 14, seed, (5000, 5461), start=start)
            history = work_vector_history(inst)
            assert history.space.dtype == np.int16
            assert dict(vector_pairs(history[-1])) == oracle_work_vector(inst)
            assert opt_cost(history[-1]) == oracle_opt(inst)
            for target in all_configs(history.space):
                assert extract_trace(history, inst, target).total_cost == oracle_opt(inst, target)
            assert 0 < widened_from(history) <= 14

    def test_stored_history_bytes(self):
        # the anchored history of (16, 8, 300) seed 1 as verify folds it:
        # 332 stored rows of 12,870 int16 entries, 8,545,680 bytes, where
        # int64 rows took 34,182,720
        inst = generate_instance(16, 8, 300, 1)
        base = work_vector_history(inst)
        cycles = compute_anchor(inst, opt_cost(base[-1]), 15, 0).cycles
        anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * cycles)
        history = work_vector_history(anchored, base)
        space = history.space
        assert space.dtype == np.int16
        stored = sum(row.nbytes for row in history.rows)
        assert stored == 2 * len(space) * len(history.rows) == 2 * 12_870 * 332 == 8_545_680


class TestOneOrNoUncoveredColumn:
    """At k = n every request is covered, so every transition table has no
    columns; at n = k + 1 each has one.  Every pass that reads the tables,
    against its reference."""

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (5, 5), (3, 2), (4, 3), (6, 5)])
    def test_every_pass(self, n, k):
        for seed in range(1, 5):
            inst = generate_instance(n, k, 6, seed)
            space = configuration_space(inst.metric, k)
            assert space.swaps.shape == (k, n - k)
            for request in range(n):
                tables = space.transitions(request)
                assert tables.uncovered.shape == (n - k,)
                assert tables.costs.shape == (k, n - k)
            vectors = [initial_work_vector(inst.metric, inst.initial)]
            for request in inst.requests:
                vectors.append(update_work_vector(vectors[-1], request))
                assert vectors[-1].values.tolist() == loop_update(vectors[-2], request)
            assert run_wfa(inst) == loop_run(vectors, inst.requests, inst.initial)
            history = work_vector_history(inst)
            visits = []
            for target in all_configs(space):
                trace = extract_trace(history, inst, target)
                assert trace.total_cost == oracle_opt(inst, target)
                on_start = (t for t in range(6) if trace.config_after(t) == inst.initial)
                visits.append(next(on_start, -1))
            assert first_start_visits(history, inst, range(len(space)), 0).tolist() == visits
            assert verify_anchored_properties(inst, 2 * k - 1, 0, 3).status == "pass"


class TestProperties:
    def test_monotone_and_lipschitz_per_round(self):
        inst = generate_instance(5, 3, 6, seed=23)
        w = initial_work_vector(inst.metric, inst.initial)
        assert w.value(inst.initial) == 0
        for request in inst.requests:
            new = update_work_vector(w, request)
            assert np.all(new.values >= w.values)
            for x, y in itertools.combinations(all_configs(new.space), 2):
                bound = matching_cost(x, y, inst.metric)
                assert abs(new.value(x) - new.value(y)) <= bound
            w = new
        assert np.all(w.values >= 0)

    def test_membership_stability(self):
        for seed in range(30, 40):
            inst = small_instance(seed)
            w = initial_work_vector(inst.metric, inst.initial)
            for request in inst.requests:
                new = update_work_vector(w, request)
                for cfg, value in vector_pairs(new):
                    if request in cfg:
                        assert value == w.value(cfg)
                w = new

    def test_oracle_equivalence_small(self):
        for seed in range(50, 80):
            inst = small_instance(seed)
            w = final_work_vector(inst)
            oracle = oracle_work_vector(inst)
            for cfg, value in vector_pairs(w):
                assert value == oracle[cfg], (seed, cfg)

    def test_translation_invariance_of_decisions(self, m3):
        w = initial_work_vector(m3, (0, 1))
        for offset in (1, 1000, 10**9):
            moved = shifted(w, offset)
            for cfg in all_configs(w.space):
                for request in range(3):
                    assert rank_decide(w, cfg, request) == rank_decide(moved, cfg, request)

    def test_d_equivalence_preserved_by_update(self, m3):
        w = initial_work_vector(m3, (0, 1))
        moved = shifted(w, 7)
        for request in (2, 0, 1, 2):
            w = update_work_vector(w, request)
            moved = update_work_vector(moved, request)
            assert d_equivalence(moved, w) == 7

    def test_oblivious_across_histories(self, m3_instance):
        # two different served histories with offset-equivalent vectors must
        # yield identical decisions for every configuration and request
        anchor = compute_anchor(m3_instance, 2, alpha=3, beta=0)
        requests = m3_instance.requests + anchor.requests
        anchored = dataclasses.replace(m3_instance, requests=requests)
        w_long = final_work_vector(anchored)
        w_short = initial_work_vector(m3_instance.metric, m3_instance.initial)
        assert d_equivalence(w_long, w_short) is not None
        for cfg in all_configs(w_long.space):
            for request in range(3):
                assert rank_decide(w_long, cfg, request) == rank_decide(w_short, cfg, request)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**62))
def test_update_monotone_random(seed):
    inst = small_instance(seed, n_max=5, k_max=3, len_max=4)
    w = initial_work_vector(inst.metric, inst.initial)
    for request in inst.requests:
        new = update_work_vector(w, request)
        assert np.all(new.values >= w.values)
        w = new


class TestDEquivalence:
    def test_reflexive(self, m3):
        w = initial_work_vector(m3, (0, 1))
        assert d_equivalence(w, w) == 0

    def test_shift_detected(self, m3):
        w = initial_work_vector(m3, (0, 1))
        assert d_equivalence(shifted(w, 5), w) == 5

    def test_not_equivalent(self, m3):
        w0 = initial_work_vector(m3, (0, 1))
        w1 = update_work_vector(w0, 2)
        assert d_equivalence(w1, w0) is None

    def test_mismatched_spaces_rejected(self, m3, uniform3):
        with pytest.raises(InputError):
            d_equivalence(initial_work_vector(m3, (0, 1)), initial_work_vector(uniform3, (0, 1)))

    def test_anchored_offset_is_value_at_start(self, m3_instance):
        anchor = compute_anchor(m3_instance, 2, alpha=3, beta=0)
        requests = m3_instance.requests + anchor.requests
        anchored = dataclasses.replace(m3_instance, requests=requests)
        w_anchored = final_work_vector(anchored)
        w_empty = initial_work_vector(m3_instance.metric, m3_instance.initial)
        assert d_equivalence(w_anchored, w_empty) == w_anchored.value(m3_instance.initial)


def test_work_vector_rank_order(m3):
    # entry r of the values belongs to the configuration of rank r
    w = initial_work_vector(m3, (0, 1))
    pairs = [(w.space.config(rank), int(w.values[rank])) for rank in range(len(w.space))]
    assert pairs == [((0, 1), 0), ((0, 2), 2), ((1, 2), 3)]
    assert all(w.value(config) == value for config, value in pairs)
