import dataclasses

import pytest

from kserver import (
    AnchorSpec,
    InputError,
    Instance,
    MetricSpace,
    compute_anchor,
    final_work_vector,
    min_pairwise_distance,
    opt_cost,
    run_wfa,
)


class TestComputeAnchor:
    def test_zero_opt_gives_k_squared_plus_one(self, m3_instance):
        # all requests covered by the start, so the optimum is zero
        inst = dataclasses.replace(m3_instance, requests=(0, 1, 0))
        assert opt_cost(final_work_vector(inst)) == 0
        anchor = compute_anchor(inst, 0, alpha=3, beta=0)
        assert anchor.cycles == 5
        assert len(anchor.requests) == 10

    def test_m3_single_request(self, m3_instance):
        anchor = compute_anchor(m3_instance, 2, alpha=3, beta=0)
        assert anchor.min_gap == 1
        assert anchor.cycles == 13
        assert len(anchor.requests) == 26

    def test_large_opt_with_beta(self):
        metric = MetricSpace.from_matrix([[0, 1, 10], [1, 0, 10], [10, 10, 0]])
        inst = Instance.build(metric, 2, (0, 1), (2,))
        assert opt_cost(final_work_vector(inst)) == 10
        assert compute_anchor(inst, 10, alpha=3, beta=5).cycles == 66

    def test_layout(self, m3_instance):
        anchor = compute_anchor(m3_instance, 2, alpha=3, beta=0)
        assert anchor == AnchorSpec(1, 13, (0, 1) * 13)

    def test_round_robin_structure(self, m3_instance):
        anchor = compute_anchor(m3_instance, 2, alpha=3, beta=0)
        cycle = m3_instance.initial
        assert anchor.requests == cycle * anchor.cycles

    def test_guarantee_inequalities(self):
        from kserver import generate_instance

        for seed in (2, 9, 31):
            inst = generate_instance(6, 3, 8, seed)
            opt = opt_cost(final_work_vector(inst))
            alpha, beta = 5, 4
            anchor = compute_anchor(inst, opt, alpha, beta)
            gap = min_pairwise_distance(inst.initial, inst.metric)
            k = inst.k
            assert anchor.cycles * gap > 2 * alpha * opt + beta
            assert anchor.cycles * gap > 2 * k * opt + k * k * gap

    def test_anchor_costs_nothing_from_start(self, m3_instance):
        anchor = compute_anchor(m3_instance, 2, alpha=3, beta=0)
        on_anchor_alone = dataclasses.replace(m3_instance, requests=anchor.requests)
        assert run_wfa(on_anchor_alone).total_cost == 0

    def test_k1_rejected(self, m3):
        inst = Instance.build(m3, 1, (0,), (2,))
        with pytest.raises(InputError):
            compute_anchor(inst, 3, alpha=1, beta=0)

    def test_parameter_validation(self, m3_instance):
        with pytest.raises(InputError):
            compute_anchor(m3_instance, 2, alpha=0, beta=0)
        with pytest.raises(InputError):
            compute_anchor(m3_instance, 2, alpha=3, beta=-1)

    def test_opt_validation(self, m3_instance):
        for bad in (-1, 2.0, True):
            with pytest.raises(InputError):
                compute_anchor(m3_instance, bad, alpha=3, beta=0)

    def test_oversized_anchor_refused_before_it_is_built(self):
        # a far point of 10^12 at start gap 1 asks for 6*10^12 + 1 cycles,
        # whose anchored values pass int64: the anchored instance's own
        # refusal, made before a request of it is built
        far = 10**12
        metric = MetricSpace.from_matrix([[0, 1, far], [1, 0, far], [far, far, 0]])
        inst = Instance.build(metric, 2, (0, 1), (2,))
        with pytest.raises(InputError, match=r"12000000000003 requests \+ k=2 .* int64 bound"):
            compute_anchor(inst, far, alpha=3, beta=0)


def test_anchor_spec_is_value_object():
    a = AnchorSpec(1, 3, (0, 1) * 3)
    b = AnchorSpec(1, 3, (0, 1) * 3)
    assert a == b
