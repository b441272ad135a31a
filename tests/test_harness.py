import dataclasses
import itertools
from fractions import Fraction

import pytest

from kserver import (
    CHECK_IDS,
    DEFAULT_CAMPAIGN,
    InputError,
    Instance,
    final_work_vector,
    generate_instance,
    measure_strict_ratio,
    opt_cost,
    report_to_csv,
    resolve_alpha,
    run_campaign,
    run_wfa,
    validate_campaign_config,
    verify_anchored_properties,
)
from kserver.anchor import compute_anchor
from kserver.harness import (
    C1B_SAMPLE_CAP,
    CSV_COLUMNS,
    CheckResult,
    _beta_schedule,
    _check_start_visits,
)
from kserver.offline import extract_trace, oracle_opt, work_vector_history
from kserver.rng import SplitMix64


def count_work(monkeypatch):
    """Count work-vector updates and reference trace extractions from here
    on.  One ``verify_anchored_properties`` call makes |rho| updates once
    (base vector), then per beta attempt T (anchored history, which the
    anchored online run is read off), then (q-1)T once (continued repeat)
    for the T of the last attempt, and one extraction; T is the anchored
    length."""
    import kserver.harness as harness
    import kserver.offline as offline
    import kserver.workfunction as workfunction

    calls = {"update": 0, "extract": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    update = counted("update", workfunction.update_work_vector)
    for module in (workfunction, offline, harness):
        monkeypatch.setattr(module, "update_work_vector", update)
    monkeypatch.setattr(harness, "extract_trace", counted("extract", harness.extract_trace))
    return calls


class TestVerify:
    def test_m3_all_nine_pass(self, m3_instance):
        report = verify_anchored_properties(m3_instance, alpha=3, beta_initial=0, q=3)
        assert report.status == "pass"
        assert tuple(c.check_id for c in report.checks) == CHECK_IDS
        assert all(c.status == "pass" for c in report.checks)
        assert report.beta_used == 0
        assert report.cycles == 13 and report.min_gap == 1
        assert report.values["opt"] == 2 and report.values["alg"] == 2

    def test_empty_rho_degenerate_equalities(self, m3_instance):
        report = verify_anchored_properties(m3_instance.with_requests(()), alpha=3)
        assert report.status == "pass"
        e1 = report.check("E1")
        assert e1.lhs == [0, 0] and e1.rhs == [0, 0]
        assert report.cycles == 5  # k*k + 1 when the optimum is zero

    def test_beta_feeds_the_anchor(self, m3_instance):
        report = verify_anchored_properties(m3_instance, alpha=3, beta_initial=7)
        assert report.beta_used == 7
        # max(ceil(8/1)+4, ceil((12+7)/1)) + 1
        assert report.cycles == 20
        assert report.status == "pass"

    def test_report_json_shape(self, m3_instance):
        doc = verify_anchored_properties(m3_instance, alpha=3).to_json()
        assert doc["status"] == "pass"
        assert [c["check"] for c in doc["checks"]] == list(CHECK_IDS)
        assert doc["m"] == 13 and doc["ell"] == 1
        assert set(doc["values"]) == {
            "opt", "alg", "opt_rho_sigma", "alg_rho_sigma", "opt_chi", "alg_chi",
        }

    def test_k1_rejected(self, m3):
        inst = Instance.build(m3, 1, (0,), (2,))
        with pytest.raises(InputError):
            verify_anchored_properties(inst, alpha=1)

    def test_c1b_sampling_path(self):
        # C(8,3) = 56 targets; a small cap forces the seeded sample branch
        inst = generate_instance(8, 3, 6, seed=4)
        report = verify_anchored_properties(inst, alpha=5, sample_cap=10)
        assert report.check("C1b").status == "pass"
        assert report.check("C1b").lhs == 10  # examined targets

    def test_escalation_reaches_cap_and_reports_inconclusive(self, m3_instance, monkeypatch):
        import kserver.harness as harness

        base_len = len(m3_instance.requests)
        extend_wfa = harness.extend_wfa

        def stubborn_wfa(trace, vectors, requests):
            trace = extend_wfa(trace, vectors, requests)
            if len(requests) > base_len:
                # forge a final configuration away from the start
                bad = dataclasses.replace(trace.rounds[-1], config=(1, 2))
                trace = dataclasses.replace(trace, rounds=trace.rounds[:-1] + (bad,))
            return trace

        monkeypatch.setattr(harness, "extend_wfa", stubborn_wfa)
        rounds = [base_len + len(compute_anchor(m3_instance, 2, 3, b).requests) for b in (0, 1, 2, 4)]
        calls = count_work(monkeypatch)
        report = verify_anchored_properties(m3_instance, alpha=3, beta_initial=0, beta_cap=4)
        assert report.check("R1").status == "inconclusive"
        assert report.beta_used == 4  # 0, 1, 2, 4 all attempted
        # every attempt builds its anchored history; the other checks and
        # the repeat (q = 3) run once, on the last anchor
        assert calls == {
            "update": base_len + sum(rounds) + 2 * rounds[-1],
            "extract": 1,
        }
        direct = verify_anchored_properties(m3_instance, alpha=3, beta_initial=4, beta_cap=4)
        assert report.checks == direct.checks
        assert report.values == direct.values
        assert report.cycles == direct.cycles

    def test_escalation_schedule(self):
        assert list(_beta_schedule(0, 8)) == [0, 1, 2, 4, 8]
        assert list(_beta_schedule(5, 100)) == [5, 10, 20, 40, 80]
        assert list(_beta_schedule(1, 1)) == [1]
        assert list(_beta_schedule(9, 3)) == [9]


def per_target_start_visits(history, anchored, base_len, sample_cap):
    """C1b the unbatched way: one ``extract_trace`` per examined target, in
    rank order, stopping at the first that never revisits the start."""
    space = history[-1].space
    if len(space) <= sample_cap:
        ranks = range(len(space))
    else:
        stream = SplitMix64(int(anchored.fingerprint()[:16], 16))
        ranks = stream.sample(len(space), sample_cap)
    start = anchored.initial
    for examined, rank in enumerate(ranks, start=1):
        target = space.configs[rank]
        trace = extract_trace(history, anchored, target)
        if not any(
            trace.config_after(t) == start for t in range(base_len, len(anchored.requests))
        ):
            return CheckResult("C1b", "fail", examined, examined, {"target": list(target)})
    return CheckResult("C1b", "pass", len(ranks), len(ranks))


class TestStartVisits:
    """The batched C1b against the per-target ``extract_trace`` loop."""

    def test_batched_equals_per_target_extraction(self):
        statuses = []
        for model, weights, seed in itertools.product(
            ("uniform", "roundrobin_k_plus_1", "greedy_adversary"), ((1, 9), (1, 1)), range(1, 7)
        ):
            inst = generate_instance(6, 3, 8, seed, request_model=model, weight_range=weights)
            full = compute_anchor(inst, opt_cost(final_work_vector(inst)), 5, 0).cycles
            # one and two cycles are too short an anchor for most seeds
            for cycles in (1, 2, full):
                anchored = inst.with_requests(inst.requests + inst.initial * cycles)
                history = work_vector_history(anchored)
                for cap in (10, C1B_SAMPLE_CAP):
                    got = _check_start_visits(history, anchored, len(inst.requests), cap)
                    want = per_target_start_visits(history, anchored, len(inst.requests), cap)
                    assert got == want, (model, weights, seed, cycles, cap)
                    statuses.append(got.status)
        assert statuses.count("fail") >= 50 and statuses.count("pass") >= 50

    def test_empty_base_visits_at_round_zero(self, m3_instance):
        anchored = m3_instance.with_requests((0, 1))
        history = work_vector_history(anchored)
        assert _check_start_visits(history, anchored, 0, C1B_SAMPLE_CAP) == per_target_start_visits(
            history, anchored, 0, C1B_SAMPLE_CAP
        )


def test_verify_work_counts(monkeypatch):
    # a verify-mid benchmark instance: n = 12, k = 4, |rho| = 50
    calls = count_work(monkeypatch)
    inst = generate_instance(12, 4, 50, seed=114)
    report = verify_anchored_properties(inst, "2k-1", 0, 3)
    assert report.beta_used == 0 and report.status == "pass"
    rounds = len(inst.requests) + inst.k * report.cycles
    assert rounds == 1398
    assert calls == {"update": 50 + 3 * rounds, "extract": 1}
    assert calls["update"] == 4244


def test_verify_base_values_match_direct_runs():
    # the base run is read off the anchored run's first |rho| rounds
    for model, weights, seed in itertools.product(
        ("uniform", "roundrobin_k_plus_1", "greedy_adversary"), ((1, 9), (1, 1)), range(1, 5)
    ):
        inst = generate_instance(7, 3, 10, seed, request_model=model, weight_range=weights)
        report = verify_anchored_properties(inst, "2k-1", 0, 2)
        assert report.values["alg"] == run_wfa(inst).total_cost
        assert report.values["opt"] == opt_cost(final_work_vector(inst))


class TestResolveAlpha:
    def test_token(self):
        assert resolve_alpha("2k-1", 3) == 5
        assert resolve_alpha("2k-1", 2) == 3

    def test_integers(self):
        assert resolve_alpha(7, 2) == 7
        assert resolve_alpha("7", 2) == 7

    def test_rejects(self):
        for bad in (0, -1, "fast", True, 1.5):
            with pytest.raises(InputError):
                resolve_alpha(bad, 2)


class TestStrictRatio:
    def test_empty_sequence(self, m3_instance):
        row = measure_strict_ratio(m3_instance.with_requests(()))
        assert (row.opt, row.alg, row.passed, row.ratio) == (0, 0, True, None)

    def test_m3(self, m3_instance):
        row = measure_strict_ratio(m3_instance)
        assert (row.opt, row.alg, row.bound, row.passed) == (2, 2, 6, True)
        assert row.ratio == Fraction(1, 1)

    def test_uniform_round_robin(self, uniform3):
        inst = Instance.build(uniform3, 2, (0, 1), [(2 + i) % 3 for i in range(20)])
        row = measure_strict_ratio(inst)
        assert row.passed
        assert row.opt == 10 == oracle_opt(inst)
        assert row.alg == 17  # engine value, oracle-validated optimum


class TestGenerateInstance:
    def test_deterministic(self):
        a = generate_instance(6, 3, 10, seed=42)
        b = generate_instance(6, 3, 10, seed=42)
        assert a == b
        assert a != generate_instance(6, 3, 10, seed=43)

    def test_uniform_requests_in_range(self):
        inst = generate_instance(5, 2, 30, seed=1, request_model="uniform")
        assert all(0 <= r < 5 for r in inst.requests)
        assert inst.initial == (0, 1)

    def test_round_robin_pattern(self):
        inst = generate_instance(6, 3, 9, seed=1, request_model="roundrobin_k_plus_1")
        assert inst.requests == (3, 0, 1, 2, 3, 0, 1, 2, 3)

    def test_round_robin_needs_headroom(self):
        with pytest.raises(InputError):
            generate_instance(3, 3, 5, seed=1, request_model="roundrobin_k_plus_1")

    def test_greedy_requests_are_uncovered(self):
        from kserver import initial_work_vector, update_work_vector, wfa_decide

        inst = generate_instance(6, 2, 15, seed=5, request_model="greedy_adversary")
        vector = initial_work_vector(inst.metric, inst.initial)
        config = inst.initial
        for request in inst.requests:
            assert request not in config
            decision = wfa_decide(vector, config, request)
            config = decision.config
            vector = update_work_vector(vector, request)

    def test_k_exceeds_n(self):
        with pytest.raises(InputError, match="k exceeds n"):
            generate_instance(4, 5, 3, seed=1)

    def test_unknown_model(self):
        with pytest.raises(InputError):
            generate_instance(4, 2, 3, seed=1, request_model="zipf")


class TestCampaign:
    def test_empty_campaign(self):
        config = dict(DEFAULT_CAMPAIGN, seeds=[1, 0])
        report = run_campaign(config)
        assert report.rows == ()
        assert report.status == "pass"
        assert report_to_csv(report) == ",".join(CSV_COLUMNS) + "\n"

    def test_default_campaign_passes(self):
        report = run_campaign(DEFAULT_CAMPAIGN)
        assert report.status == "pass"
        assert len(report.rows) == 20
        assert [row.instance_id for row in report.rows] == list(range(20))

    def test_csv_layout_and_determinism(self):
        config = dict(DEFAULT_CAMPAIGN, seeds=[1, 6], n=[3, 6])
        first = report_to_csv(run_campaign(config))
        second = report_to_csv(run_campaign(config))
        assert first == second
        lines = first.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 7
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)

    def test_config_validation(self):
        good = dict(DEFAULT_CAMPAIGN)
        assert validate_campaign_config(good)["request_model"] == "uniform"
        for corrupt in (
            dict(good, request_model="zipf"),
            dict(good, k=[1, 3]),
            dict(good, n=[1, 4]),
            dict(good, n=[4, 17]),
            dict(good, rho_len=[3, 2]),
            dict(good, q=0),
            dict(good, beta=-1),
            dict(good, alpha="k"),
            dict(good, extra=1),
        ):
            with pytest.raises(InputError):
                validate_campaign_config(corrupt)
        missing = dict(good)
        del missing["seeds"]
        with pytest.raises(InputError):
            validate_campaign_config(missing)

    def test_infeasible_k_for_model(self):
        config = dict(DEFAULT_CAMPAIGN, n=[3, 4], k=[3, 3], request_model="roundrobin_k_plus_1")
        with pytest.raises(InputError):
            validate_campaign_config(config)

    def test_report_json(self):
        config = dict(DEFAULT_CAMPAIGN, seeds=[1, 2], n=[3, 5])
        doc = run_campaign(config).to_json()
        assert doc["status"] == "pass"
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["ratio_pass"] is True
