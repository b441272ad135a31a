import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kserver import (
    InputError,
    Instance,
    MetricSpace,
    configuration_distance,
    d_equivalence,
    final_work_vector,
    generate_instance,
    initial_work_vector,
    matching_cost,
    random_metric,
    run_wfa,
    trace_violations,
    update_work_vector,
    wfa_decide,
    work_vector_to_json,
)
from kserver.anchor import compute_anchor
from kserver.execution import ExecutionTrace
from kserver.offline import opt_cost, oracle_work_vector, work_vector_history
from kserver.workfunction import ConfigurationSpace, continue_wfa, extend_wfa


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
        assert w.served_count == 0

    def test_equals_matching_distance_everywhere(self):
        from kserver import random_metric

        metric = random_metric(6, seed=17)
        w = initial_work_vector(metric, (0, 2, 4))
        for cfg in itertools.combinations(range(6), 3):
            assert w.value(cfg) == configuration_distance((0, 2, 4), cfg, metric)


class TestUpdate:
    def test_m3_request_2(self, m3, m3_instance):
        w = update_work_vector(initial_work_vector(m3, (0, 1)), 2)
        assert w.value((0, 2)) == 2
        assert w.value((1, 2)) == 3
        assert w.value((0, 1)) == 4
        # full-vector agreement with the schedule-enumeration oracle
        oracle = oracle_work_vector(m3_instance)
        for cfg, value in w.to_pairs():
            assert value == oracle[cfg]

    def test_m3_request_already_in_start(self, m3, m3_instance):
        w0 = initial_work_vector(m3, (0, 1))
        w = update_work_vector(w0, 0)
        assert w.value((1, 2)) == 3 == w0.value((1, 2))
        oracle = oracle_work_vector(m3_instance.with_requests((0,)))
        for cfg, value in w.to_pairs():
            assert value == oracle[cfg]

    def test_covered_request_changes_nothing_for_members(self, m3):
        w0 = initial_work_vector(m3, (0, 1))
        w1 = update_work_vector(w0, 1)
        for cfg, value in w1.to_pairs():
            if 1 in cfg:
                assert value == w0.value(cfg)

    def test_input_vector_not_modified(self, m3):
        w0 = initial_work_vector(m3, (0, 1))
        before = w0.values.copy()
        update_work_vector(w0, 2)
        assert np.array_equal(w0.values, before)
        with pytest.raises(ValueError):
            w0.values[0] = 99  # read-only storage


def loop_transitions(space, request):
    """Reference: the per-configuration loop, configuration-major
    (|configs|, k) tables."""
    dist = space.metric.dist
    size, k = len(space.configs), space.k
    targets = np.empty((size, k), dtype=np.intp)
    costs = np.zeros((size, k), dtype=np.int64)
    for i, cfg in enumerate(space.configs):
        if request in cfg:
            targets[i, :] = i
            continue
        for j, z in enumerate(cfg):
            swapped = tuple(sorted(cfg[:j] + cfg[j + 1 :] + (request,)))
            targets[i, j] = space.index[swapped]
            costs[i, j] = dist[request][z]
    return targets, costs


def loop_distance_vector(space, origin):
    """Reference: one exact matching per configuration."""
    return np.array(
        [matching_cost(origin, cfg, space.metric) for cfg in space.configs], dtype=np.int64
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
    # the largest space once: its reference loops take seconds
    yield 16, 8, (1, 1000)


class TestConfigurationSpaceKernels:
    @pytest.mark.parametrize("n,k,weights", list(kernel_cases()))
    def test_tables_equal_the_loops(self, n, k, weights):
        space = ConfigurationSpace(random_metric(n, seed=100 * n + k, weight_range=weights), k)
        for request in range(n):
            targets, costs = space.transitions(request)
            ref_targets, ref_costs = loop_transitions(space, request)
            assert np.array_equal(targets, ref_targets.T)
            assert np.array_equal(costs, ref_costs.T)
        size = len(space)
        for rank in sorted({0, size // 3, size - 1}):
            origin = space.configs[rank]
            assert np.array_equal(
                space.distance_vector(origin), loop_distance_vector(space, origin)
            )

    @pytest.mark.parametrize("n,k", [(3, 1), (6, 3), (16, 8)])
    def test_table_layout(self, n, k):
        # slot-major and contiguous: a transposed or F-ordered table would
        # give the same values, but every update over it would be slow
        space = ConfigurationSpace(random_metric(n, seed=7), k)
        size = len(space)
        assert space.slots.shape == (k, size)
        assert space.slots.dtype == np.uint8
        assert space.slots.flags.c_contiguous
        for request in (0, n - 1):
            targets, costs = space.transitions(request)
            for table, dtype in ((targets, np.intp), (costs, np.int64)):
                assert table.shape == (k, size)
                assert table.dtype == dtype
                assert table.flags.c_contiguous
                assert not table.flags.writeable
        vector = space.distance_vector(space.configs[-1])
        assert vector.shape == (size,)
        assert vector.dtype == np.int64
        assert not vector.flags.writeable

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
        assert vector.to_pairs() == [((0, 1), 0), ((0, 2), near), ((1, 2), near)]


class TestDecide:
    def test_covered_request_is_empty_move(self, m3):
        w = initial_work_vector(m3, (0, 1))
        decision = wfa_decide(w, (0, 1), 0)
        assert (decision.mover, decision.cost, decision.config) == (0, 0, (0, 1))

    def test_m3_moves_closer_server(self, m3):
        w = initial_work_vector(m3, (0, 1))
        decision = wfa_decide(w, (0, 1), 2)
        assert (decision.mover, decision.cost, decision.config) == (1, 2, (0, 2))

    def test_tie_breaks_to_smallest_position(self, uniform3):
        w = initial_work_vector(uniform3, (0, 1))
        decision = wfa_decide(w, (0, 1), 2)
        assert decision.mover == 0
        assert decision.config == (1, 2)

    def test_errors(self, m3):
        w = initial_work_vector(m3, (0, 1))
        with pytest.raises(InputError):
            wfa_decide(w, (0, 5), 2)
        with pytest.raises(InputError):
            wfa_decide(w, (0, 1), 9)


class TestRunWfa:
    def test_empty_sequence(self, m3_instance):
        trace = run_wfa(m3_instance.with_requests(()))
        assert trace.total_cost == 0
        assert trace.rounds == ()
        assert trace.config_after(0) == (0, 1)

    def test_single_request(self, m3_instance):
        trace = run_wfa(m3_instance)
        assert trace.total_cost == 2
        assert trace.rounds[-1].config == (0, 2)

    def test_second_request_covered(self, m3_instance):
        trace = run_wfa(m3_instance.with_requests((2, 0)))
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
        # block by continuing the anchored run; that must be exactly the
        # run over the whole repeated block
        for seed, model in ((3, "uniform"), (8, "roundrobin_k_plus_1"), (5, "greedy_adversary")):
            inst = generate_instance(6, 3, 7, seed, request_model=model)
            opt = opt_cost(final_work_vector(inst))
            anchored = inst.with_requests(inst.requests + compute_anchor(inst, opt, 5, 0).requests)
            repeated = anchored.with_requests(anchored.requests * q)
            trace, vector = continue_wfa(
                run_wfa(anchored), final_work_vector(anchored), anchored.requests * (q - 1)
            )
            assert np.array_equal(vector.values, final_work_vector(repeated).values)
            assert vector.served_count == len(repeated.requests)
            fresh = run_wfa(repeated)
            assert trace.rounds == fresh.rounds
            assert trace.total_cost == fresh.total_cost


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
            start = ExecutionTrace(inst.initial, (), 0)
            trace = extend_wfa(start, work_vector_history(inst), inst.requests)
            fresh = run_wfa(inst)
            assert trace.rounds == fresh.rounds
            assert trace.total_cost == fresh.total_cost
            assert len(trace.rounds) == rho_len


class TestProperties:
    def test_monotone_and_lipschitz_per_round(self):
        inst = generate_instance(5, 3, 6, seed=23)
        space_configs = None
        w = initial_work_vector(inst.metric, inst.initial)
        assert w.value(inst.initial) == 0
        for request in inst.requests:
            new = update_work_vector(w, request)
            assert np.all(new.values >= w.values)
            if space_configs is None:
                space_configs = new.space.configs
            for x, y in itertools.combinations(space_configs, 2):
                bound = configuration_distance(x, y, inst.metric)
                assert abs(new.value(x) - new.value(y)) <= bound
            w = new
        assert np.all(w.values >= 0)

    def test_membership_stability(self):
        for seed in range(30, 40):
            inst = small_instance(seed)
            w = initial_work_vector(inst.metric, inst.initial)
            for request in inst.requests:
                new = update_work_vector(w, request)
                for cfg, value in new.to_pairs():
                    if request in cfg:
                        assert value == w.value(cfg)
                w = new

    def test_oracle_equivalence_small(self):
        for seed in range(50, 80):
            inst = small_instance(seed)
            w = final_work_vector(inst)
            oracle = oracle_work_vector(inst)
            for cfg, value in w.to_pairs():
                assert value == oracle[cfg], (seed, cfg)

    def test_translation_invariance_of_decisions(self, m3):
        w = initial_work_vector(m3, (0, 1))
        for offset in (1, 1000, 10**9):
            shifted = w.shifted(offset)
            for cfg in w.space.configs:
                for request in range(3):
                    assert wfa_decide(w, cfg, request) == wfa_decide(shifted, cfg, request)

    def test_d_equivalence_preserved_by_update(self, m3):
        w = initial_work_vector(m3, (0, 1))
        shifted = w.shifted(7)
        for request in (2, 0, 1, 2):
            w = update_work_vector(w, request)
            shifted = update_work_vector(shifted, request)
            assert d_equivalence(shifted, w) == 7

    def test_oblivious_across_histories(self, m3_instance):
        # two different served histories with offset-equivalent vectors must
        # yield identical decisions for every configuration and request
        anchor = compute_anchor(m3_instance, 2, alpha=3, beta=0)
        anchored = m3_instance.with_requests(m3_instance.requests + anchor.requests)
        w_long = final_work_vector(anchored)
        w_short = initial_work_vector(m3_instance.metric, m3_instance.initial)
        assert d_equivalence(w_long, w_short) is not None
        for cfg in w_long.space.configs:
            for request in range(3):
                assert wfa_decide(w_long, cfg, request) == wfa_decide(w_short, cfg, request)


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
        assert d_equivalence(w.shifted(5), w) == 5

    def test_not_equivalent(self, m3):
        w0 = initial_work_vector(m3, (0, 1))
        w1 = update_work_vector(w0, 2)
        assert d_equivalence(w1, w0) is None

    def test_mismatched_spaces_rejected(self, m3, uniform3):
        with pytest.raises(InputError):
            d_equivalence(initial_work_vector(m3, (0, 1)), initial_work_vector(uniform3, (0, 1)))

    def test_anchored_offset_is_value_at_start(self, m3_instance):
        anchor = compute_anchor(m3_instance, 2, alpha=3, beta=0)
        anchored = m3_instance.with_requests(m3_instance.requests + anchor.requests)
        w_anchored = final_work_vector(anchored)
        w_empty = initial_work_vector(m3_instance.metric, m3_instance.initial)
        assert d_equivalence(w_anchored, w_empty) == w_anchored.value(m3_instance.initial)


def test_work_vector_json_rank_order(m3):
    w = initial_work_vector(m3, (0, 1))
    assert work_vector_to_json(w) == [[[0, 1], 0], [[0, 2], 2], [[1, 2], 3]]
