import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from kserver import (
    CHECK_IDS,
    InputError,
    Instance,
    MetricSpace,
    RatioRow,
    final_work_vector,
    generate_instance,
    instance_to_json,
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
    REQUEST_MODELS,
    CheckResult,
    _beta_schedule,
    _check_start_visits,
)
from kserver.offline import (
    _backtrack,
    extract_trace,
    first_start_visits,
    oracle_opt,
    work_vector_history,
)
from kserver.rng import SplitMix64
from kserver.workfunction import (
    History,
    configuration_space,
    initial_work_vector,
    update_work_vector,
    wfa_cost,
    wfa_ranks,
)
from test_offline import (
    WRONG_PLAN,
    loop_extract_trace,
    target_nodes,
    target_plans,
    verify_mid_case,
)
from test_workfunction import loop_decide, loop_run, ranked_run, trace_run
from vector_checks import all_configs

DEFAULT_CAMPAIGN = {
    "seeds": [1, 20],
    "n": [4, 8],
    "k": [2, 3],
    "rho_len": [0, 12],
    "request_model": "uniform",
    "alpha": "2k-1",
    "beta": 0,
    "q": 3,
}


def count_work(monkeypatch):
    """Count work-vector updates and reference trace extractions from here
    on.  One ``verify_anchored_properties`` call makes |rho| updates once
    (base history), then per beta attempt k per anchor cycle folded onto
    it (anchored history, which the anchored online run is read off): up
    to the first cycle that maps the vector to itself, else all m.  When
    C2 and R1 pass, blocks 2..q are block 1 shifted and make none; else
    each folds |rho| plus its anchor the same way.  C1b makes one
    extraction.
    ``measure_strict_ratio`` makes |rho| updates."""
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
        report = verify_anchored_properties(dataclasses.replace(m3_instance, requests=()), alpha=3)
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

    def test_c1b_sampling_path(self, monkeypatch):
        import kserver.harness as harness

        # C(8,3) = 56 targets; a small cap forces the seeded sample branch
        monkeypatch.setattr(harness, "C1B_SAMPLE_CAP", 10)
        inst = generate_instance(8, 3, 6, seed=4)
        report = verify_anchored_properties(inst, alpha=5)
        assert report.check("C1b").status == "pass"
        assert report.check("C1b").lhs == 10  # examined targets

    def test_builds_no_instance(self, monkeypatch):
        # the anchored instance is the checked base plus the anchor's start
        # points, whose int64 bound compute_anchor refused before building
        # them, so verify checks no request a second time
        inst = generate_instance(12, 4, 50, seed=114)
        calls = []
        build = Instance.build.__func__

        def counting(cls, *args):
            calls.append(args)
            return build(cls, *args)

        monkeypatch.setattr(Instance, "build", classmethod(counting))
        report = verify_anchored_properties(inst, "2k-1")
        assert report.status == "pass"
        assert report.values["opt_rho_sigma"] > report.values["opt"]
        assert calls == []

    def test_escalation_reaches_cap_and_reports_inconclusive(self, m3_instance, monkeypatch):
        import kserver.harness as harness

        base_len = len(m3_instance.requests)
        wfa_ranks = harness.wfa_ranks

        def stubborn_wfa(space, vectors, requests, rank, prefix=0, trail=None):
            end, at_prefix, total = wfa_ranks(space, vectors, requests, rank, prefix, trail)
            if len(requests) > base_len:
                # forge a final configuration away from the start
                end = space.rank((1, 2))
            return end, at_prefix, total

        monkeypatch.setattr(harness, "wfa_ranks", stubborn_wfa)
        monkeypatch.setattr(harness, "BETA_CAP_GAPS", 4)  # the start's gap is 1: cap 4
        cycles = [compute_anchor(m3_instance, 2, 3, b).cycles for b in (0, 1, 2, 4)]
        assert cycles == [13, 14, 15, 17]
        calls = count_work(monkeypatch)
        report = verify_anchored_properties(m3_instance, alpha=3, beta_initial=0)
        assert report.check("R1").status == "inconclusive"
        assert report.check("R1").lhs == [1, 2]
        assert report.beta_used == 4  # 0, 1, 2, 4 all attempted
        # every attempt folds its anchor onto the one base history, up to
        # the fixed point at cycle 4 (k = 2: 8 updates); the other checks
        # and the repeat (q = 3: two blocks of 1 + 8, folded since the
        # forged run never ends at the start) run once, on the last anchor
        assert calls == {"update": base_len + 4 * 8 + 2 * (base_len + 8), "extract": 1}
        assert calls["update"] == 51
        direct = verify_anchored_properties(m3_instance, alpha=3, beta_initial=4)
        assert report.checks == direct.checks
        assert report.values == direct.values
        assert report.cycles == direct.cycles

    def test_escalation_schedule(self):
        assert list(_beta_schedule(0, 8)) == [0, 1, 2, 4, 8]
        assert list(_beta_schedule(5, 100)) == [5, 10, 20, 40, 80]
        assert list(_beta_schedule(1, 1)) == [1]
        assert list(_beta_schedule(9, 3)) == [9]


def per_target_start_visits(history, anchored, base_len, sample_cap):
    """C1b the unbatched way: one reference extraction per examined target,
    in rank order, stopping at the first that never revisits the start."""
    space = history[-1].space
    if len(space) <= sample_cap:
        ranks = range(len(space))
    else:
        stream = SplitMix64(int(anchored.fingerprint()[:16], 16))
        ranks = stream.sample(len(space), sample_cap)
    start = anchored.initial
    for examined, rank in enumerate(ranks, start=1):
        target = space.config(rank)
        trace = loop_extract_trace(history, anchored, target)
        if not any(
            trace.config_after(t) == start for t in range(base_len, len(anchored.requests))
        ):
            return CheckResult("C1b", "fail", examined, examined, {"target": list(target)})
    return CheckResult("C1b", "pass", len(ranks), len(ranks))


class TestStartVisits:
    """The batched C1b, on the history verify builds (anchor folded onto the
    base up to its fixed point), against the per-target reference
    extraction on the full fold."""

    def test_batched_equals_per_target_extraction(self):
        statuses = []
        for model, weights, seed in itertools.product(
            ("uniform", "roundrobin_k_plus_1", "greedy_adversary"), ((1, 9), (1, 1)), range(1, 7)
        ):
            inst = generate_instance(6, 3, 8, seed, request_model=model, weight_range=weights)
            base = work_vector_history(inst)
            full = compute_anchor(inst, opt_cost(base[-1]), 5, 0).cycles
            # one and two cycles are too short an anchor for most seeds
            for cycles in (1, 2, full):
                anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * cycles)
                history = work_vector_history(anchored, base)
                reference = work_vector_history(anchored)
                for cap in (10, C1B_SAMPLE_CAP):
                    got = _check_start_visits(history, anchored, len(inst.requests), cap)
                    want = per_target_start_visits(reference, anchored, len(inst.requests), cap)
                    assert got == want, (model, weights, seed, cycles, cap)
                    statuses.append(got.status)
        assert statuses.count("fail") >= 50 and statuses.count("pass") >= 50

    # (model, weights, seed, |rho|) at n = 4, k = 2: the smallest full
    # anchors found with both properties below, one per model and weights
    @pytest.mark.parametrize("model,weights,seed,rho_len", [
        ("uniform", (1, 9), 11, 5),
        ("uniform", (1, 1), 1, 4),
        ("uniform", (1, 1000), 2, 5),
        ("roundrobin_k_plus_1", (1, 9), 11, 5),
        ("roundrobin_k_plus_1", (1, 1), 1, 4),
        ("roundrobin_k_plus_1", (1, 1000), 2, 5),
        ("greedy_adversary", (1, 9), 11, 5),
        ("greedy_adversary", (1, 1), 2, 5),
        ("greedy_adversary", (1, 1000), 2, 5),
    ])
    def test_forward_skip_then_visits_inside_the_anchor(
        self, model, weights, seed, rho_len, monkeypatch
    ):
        """Anchors on which the forward replay skips the held anchor rounds,
        while targets first revisit the start inside the anchor, past its
        first round: every target's first visit against the reference
        extraction on the full fold."""
        inst = generate_instance(4, 2, rho_len, seed, request_model=model, weight_range=weights)
        base_len = len(inst.requests)
        base = work_vector_history(inst)
        cycles = compute_anchor(inst, opt_cost(base[-1]), 5, 0).cycles
        anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * cycles)
        history = work_vector_history(anchored, base)
        ranks = range(len(history.space))
        _, shared, _, held_to = _backtrack(history, anchored, ranks)
        assert shared[base_len:held_to] == list(anchored.requests[base_len:held_to])
        read = spy_leave_reads(monkeypatch)
        first = first_start_visits(history, anchored, ranks, base_len).tolist()
        monkeypatch.undo()
        # the replay reads every leave point but those of [base_len + k, held_to)
        assert held_to > base_len + inst.k
        assert read == [*range(base_len + inst.k), *range(held_to, len(shared))]
        assert first == loop_first_visits(anchored, base_len, ranks)
        assert max(first) > base_len

    @pytest.mark.parametrize("n,k,rho_len,seed", [(4, 2, 5, 82), (4, 3, 8, 60), (5, 2, 8, 32)])
    def test_stacked_servers_are_not_on_the_start(self, n, k, rho_len, seed):
        """Uniform instances on which some trace's lazy servers stack on
        start points inside the anchor before the trace first revisits the
        start: standing on a subset of the start is not standing on it."""
        inst = generate_instance(n, k, rho_len, seed)
        base = work_vector_history(inst)
        cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * k - 1, 0).cycles
        anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * cycles)
        history = work_vector_history(anchored, base)
        ranks = range(len(history.space))
        want = loop_first_visits(anchored, rho_len, ranks)
        assert first_start_visits(history, anchored, ranks, rho_len).tolist() == want
        reference = work_vector_history(anchored)
        start = set(inst.initial)
        stacked = (
            set(trace.config_after(t)) < start
            for rank, visit in zip(ranks, want)
            for trace in [loop_extract_trace(reference, anchored, history.space.config(rank))]
            for t in range(rho_len, visit)
        )
        assert any(stacked)

    def test_empty_base_visits_at_round_zero(self, m3_instance):
        anchored = dataclasses.replace(m3_instance, requests=(0, 1))
        history = work_vector_history(anchored)
        assert _check_start_visits(history, anchored, 0, C1B_SAMPLE_CAP) == per_target_start_visits(
            history, anchored, 0, C1B_SAMPLE_CAP
        )


def loop_first_visits(anchored, base_len, ranks):
    """Each target's first visit to the start in [base_len, T), from the
    reference extraction on the full fold, else -1."""
    reference = work_vector_history(anchored)
    start, rounds = anchored.initial, len(anchored.requests)
    want = []
    for rank in ranks:
        trace = loop_extract_trace(reference, anchored, reference.space.config(rank))
        visits = (t for t in range(base_len, rounds) if trace.config_after(t) == start)
        want.append(next(visits, -1))
    return want


class ReadLog(list):
    """A list that records each index read through ``[]``."""

    def __init__(self, items, read):
        super().__init__(items)
        self.read = read

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def spy_leave_reads(monkeypatch):
    """From here on, record which leave points ``_replay`` reads, in order."""
    import kserver.offline as offline

    read = []
    replay = offline._replay

    def spied(history, inst, plan, leave, held_to, target):
        return replay(history, inst, plan, ReadLog(leave, read), held_to, target)

    monkeypatch.setattr(offline, "_replay", spied)
    return read


def full_fold(inst):
    """Every work vector of ``inst``'s sequence, folded one request at a
    time with nothing skipped: the reference for the compressed passes."""
    vector = initial_work_vector(inst.metric, inst.initial)
    values = [vector.values]
    for request in inst.requests:
        vector = update_work_vector(vector, request)
        values.append(vector.values)
    return values


def first_repeated_cycle(values, base_len, k):
    """The first anchor cycle whose end vector equals the one before it."""
    for c in range(1, (len(values) - 1 - base_len) // k + 1):
        if np.array_equal(values[base_len + c * k], values[base_len + (c - 1) * k]):
            return c
    return None


def compression_instance(model, weights, seed):
    n, k = (5, 2) if seed % 2 == 0 else (6, 3)
    return generate_instance(n, k, 8, seed, request_model=model, weight_range=weights)


COMPRESSION_CASES = list(itertools.product(
    ("uniform", "roundrobin_k_plus_1", "greedy_adversary"), ((1, 9), (1, 1), (1, 1000)), (1, 2, 3)
))


class TestFixedPointCompression:
    """Every pass that skips anchor rounds against a full fold of all of
    them: the history, the online run, C1b and E2/E3."""

    @pytest.mark.parametrize("model,weights,seed", COMPRESSION_CASES)
    def test_anchor_passes_equal_the_full_fold(self, model, weights, seed):
        inst = compression_instance(model, weights, seed)
        base_len, k = len(inst.requests), inst.k
        base = work_vector_history(inst)
        cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * k - 1, 0).cycles
        # one and two cycles end before most fixed points
        for m in (1, 2, cycles):
            anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * m)
            history = work_vector_history(anchored, base)
            reference = full_fold(anchored)
            assert len(history) == len(reference)
            for t, vector in enumerate(history):
                assert np.array_equal(vector.values, reference[t]), t
            assert history.fixed_cycle == first_repeated_cycle(reference, base_len, k)
            if history.fixed_cycle is not None:
                assert len(history.rows) == base_len + history.fixed_cycle * k
            run = ranked_run(history.space, history, anchored.requests, inst.initial)
            assert run == trace_run(run_wfa(anchored))
            full = work_vector_history(anchored)
            ranks = range(len(full[-1].space))
            assert np.array_equal(
                first_start_visits(history, anchored, ranks, base_len),
                first_start_visits(full, anchored, ranks, base_len),
            )
        assert history.fixed_cycle is not None  # the full anchor's

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_repeated_blocks_equal_the_full_fold(self, q, forced, monkeypatch):
        # blocks 2..q are block 1 shifted on every natural case; a forced
        # one-cycle anchor without escalation leaves C2 failing or R1
        # inconclusive on most cases, and those blocks are folded
        import kserver.harness as harness

        folds = []
        fold = harness.work_vector_history

        def spy(*args, **kwargs):
            if "first" in kwargs:  # a block's base, folded from the last block's vector
                folds.append(kwargs["first"])
            return fold(*args, **kwargs)

        monkeypatch.setattr(harness, "work_vector_history", spy)
        if forced:
            monkeypatch.setattr(harness, "BETA_CAP_GAPS", 0)  # no escalation
            anchor = harness.compute_anchor
            monkeypatch.setattr(harness, "compute_anchor", lambda inst, *args: dataclasses.replace(
                anchor(inst, *args), cycles=1, requests=inst.initial,
            ))
        folded = 0
        # weights past 2^53: every value must still equal the fold's to the unit
        for model, weights, seed in COMPRESSION_CASES + [("uniform", (2**50, 2**51), 3)]:
            inst = compression_instance(model, weights, seed)
            folds.clear()
            report = verify_anchored_properties(inst, "2k-1", 0, q)
            requests = inst.requests + inst.initial * report.cycles
            anchored = dataclasses.replace(inst, requests=requests)
            repeated = dataclasses.replace(anchored, requests=anchored.requests * q)
            run_anchored, run_repeated = run_wfa(anchored), run_wfa(repeated)
            opt_anchored = int(full_fold(anchored)[-1].min())
            opt_repeated = int(full_fold(repeated)[-1].min())
            assert report.values["opt_rho_sigma"] == opt_anchored
            assert report.values["alg_rho_sigma"] == run_anchored.total_cost
            assert report.values["opt_chi"] == opt_repeated
            assert report.values["alg_chi"] == run_repeated.total_cost
            r1 = run_anchored.config_after(len(anchored.requests)) == inst.initial
            e2 = opt_repeated == q * opt_anchored
            e3 = (
                run_repeated.rounds == run_anchored.rounds * q
                and run_repeated.total_cost == q * run_anchored.total_cost
            )
            statuses = [report.check(cid).status for cid in ("R1", "E2", "E3")]
            assert statuses == [
                "pass" if r1 else "inconclusive", *("pass" if ok else "fail" for ok in (e2, e3))
            ]
            differ = (
                i + 1 for i, (got, want) in enumerate(zip(run_repeated.rounds, run_anchored.rounds * q))
                if got != want
            )
            first_differing = next(differ, None)
            witness = None if first_differing is None else {"round": first_differing}
            assert report.check("E3").witness == witness
            shifted = r1 and report.check("C2").status == "pass"
            assert bool(folds) == (q > 1 and not shifted)
            assert forced or not folds
            folded += bool(folds)
        assert (folded > 0) == (forced and q > 1)


def two_cluster_instance(far):
    """Two clusters, {0, 1} and {2, 3}, at distance 1 inside each and
    ``far`` between them; k = 2 from (0, 1).  WFA shuttles a server inside
    the near cluster until the work function justifies fetching the far
    one, so the anchor's fixed point comes later the larger ``far``."""
    dist = [[0 if i == j else 1 if i // 2 == j // 2 else far for j in range(4)] for i in range(4)]
    return Instance.build(MetricSpace.from_matrix(dist), 2, (0, 1), (2, 3, 0, 2))


def check_rank_run(history, served, prefix, monkeypatch):
    """``wfa_ranks`` over ``history`` with a trail against ``loop_run``
    over every vector: the configuration after each round, the cost of the
    first ``prefix`` rounds and the total.  Its decisions, counted as
    transition lookups, end at the first periodic cycle start whose
    configuration is the one a cycle earlier, or at the last round.
    Returns that count."""
    import kserver.workfunction as workfunction

    space, requests, k = history.space, served.requests, served.k
    lookup = workfunction.ConfigurationSpace.transitions
    decided = 0

    def counted(*args):
        nonlocal decided
        decided += 1
        return lookup(*args)

    monkeypatch.setattr(workfunction.ConfigurationSpace, "transitions", counted)
    trail = [space.rank(served.initial)]
    end, at_prefix, total = wfa_ranks(space, history, requests, trail[0], prefix, trail)
    monkeypatch.undo()
    want = loop_run(history, requests, served.initial)
    configs = [want.config_after(t) for t in range(len(requests) + 1)]
    assert [space.config(rank) for rank in trail] == configs
    assert end == trail[-1]
    assert at_prefix == sum(move.cost for rnd in want.rounds[:prefix] for move in rnd.moves)
    assert total == want.total_cost
    repeats = (
        i for i in range(len(requests))
        if history.starts_periodic_cycle(i)
        and history.starts_periodic_cycle(i - k)
        and configs[i] == configs[i - k]
    )
    assert decided == next(repeats, len(requests))
    return decided


class TestRankRun:
    """The online run verify reads on ranks, ``wfa_ranks``, against the
    rounds ``loop_run`` makes from the same history, and against the
    full run when no cycle is skipped."""

    @pytest.mark.parametrize("model,weights,seed", COMPRESSION_CASES)
    def test_equals_loop_run(self, model, weights, seed, monkeypatch):
        inst = compression_instance(model, weights, seed)
        base_len = len(inst.requests)
        base = work_vector_history(inst)
        cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * inst.k - 1, 0).cycles
        for m in (1, 2, cycles):
            anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * m)
            history = work_vector_history(anchored, base)
            decided = check_rank_run(history, anchored, base_len, monkeypatch)
            rounds = len(anchored.requests)
            # the full anchor's run stops cycles before its end
            assert decided == rounds if history.fixed_cycle is None else decided <= rounds
            assert m < cycles or decided < rounds
        # the base alone, and folded as the run goes
        check_rank_run(base, inst, base_len, monkeypatch)
        alg, final = wfa_cost(inst)
        assert alg == run_wfa(inst).total_cost
        assert np.array_equal(final.values, base[-1].values)

    @pytest.mark.parametrize("far", [1, 3, 10, 100])
    def test_two_clusters(self, far, monkeypatch):
        # the fixed point comes at cycle far + 2; the run decides up to the
        # cycle after it, where its configuration repeats, not all m cycles
        inst = two_cluster_instance(far)
        base = work_vector_history(inst)
        anchor = compute_anchor(inst, opt_cost(base[-1]), 3, 0)
        anchored = dataclasses.replace(inst, requests=inst.requests + anchor.requests)
        history = work_vector_history(anchored, base)
        assert history.fixed_cycle == far + 2
        decided = check_rank_run(history, anchored, len(inst.requests), monkeypatch)
        assert decided <= history.periodic_from + 2 * inst.k < len(anchored.requests)
        assert wfa_cost(anchored)[0] == run_wfa(anchored).total_cost
        report = verify_anchored_properties(inst, 3)
        assert report.values["alg_rho_sigma"] == run_wfa(anchored).total_cost


def single_walks(history, served, ranks):
    """``_backtrack`` over all ranks at once against one walk per rank:
    the first plans, every target's leave points (the shared ones, then
    those of its nodes), and the first plans returned.  The nodes of each
    round are distinct ranks, and every target through a node has that
    node's rank after the round."""
    first, shared, steps, _ = _backtrack(history, served, ranks)
    firsts, split = target_plans(first, steps)
    assert len(set(first)) == len(first)
    for column, rank in enumerate(ranks):
        alone_first, alone_shared, alone_steps, _ = _backtrack(history, served, [rank])
        assert firsts[column] == alone_first[0], rank
        assert alone_steps == [], rank
        assert shared + split[:, column].tolist() == alone_shared, rank
    space, requests = history.space, served.requests
    walked = np.array([
        walked_ranks(space, requests, rank, shared + split[:, column].tolist())
        for column, rank in enumerate(ranks)
    ])
    for s in range(len(steps) - 1):
        pairs = set(zip(target_nodes(steps, s), walked[:, len(shared) + s + 1]))
        assert len(pairs) == steps[s][0].size == len({rank for _, rank in pairs})
    return firsts.tolist()


def walked_ranks(space, requests, target, leave):
    """The rank of one target's plan after each round, read back from its
    leave points: before round t the plan held the request where it holds
    the leave point after it (the same point when the request is held)."""
    config = space.config(target)
    walked = [target]
    for request, point in zip(reversed(requests), reversed(leave)):
        config = tuple(sorted(request if p == point else p for p in config))
        walked.append(space.rank(config))
    return walked[::-1]


class TestMergedBackward:
    """The backward pass walks each round's distinct ranks, and continues on
    one rank once every target's rank agrees; each target's plan, read
    through the parents, must still be the walk from its own target."""

    @pytest.mark.parametrize("model,weights,seed", COMPRESSION_CASES)
    def test_merged_walk_equals_single_walks(self, model, weights, seed):
        inst = compression_instance(model, weights, seed)
        base = work_vector_history(inst)
        cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * inst.k - 1, 0).cycles
        for m in (1, 2, cycles):
            anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * m)
            history = work_vector_history(anchored, base)
            single_walks(history, anchored, range(len(history.space)))

    def test_verify_mid_walks_merge(self):
        _, anchored, history = verify_mid_case()
        first = single_walks(history, anchored, range(len(history.space)))
        assert len(set(first)) == 1  # all 495 plans share their first steps

    def test_merge_between_cycle_starts(self, monkeypatch):
        """Anchors whose ranks still differ at a cycle start of the periodic
        rows and agree before the next one: the array walk passes that
        start, and the scalar walk jumps to the base from the first round
        below the merge where it stands on the start.  The rounds it reads
        are spied on; the ranks each target passes through are read back
        from its leave points; and every target's walk, trace and first
        visit is compared with one walk per rank and with the reference."""
        values = History.values
        for model, weights, seed in COMPRESSION_CASES:
            inst = compression_instance(model, weights, seed)
            base = work_vector_history(inst)
            cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * inst.k - 1, 0).cycles
            anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * cycles)
            history = work_vector_history(anchored, base)
            space, requests = history.space, anchored.requests
            ranks = range(len(space))
            asked = []
            monkeypatch.setattr(History, "values", lambda h, t: asked.append(t) or values(h, t))
            first, shared, steps, held_to = _backtrack(history, anchored, ranks)
            monkeypatch.undo()
            first, split = target_plans(first, steps)
            walked = np.array([
                walked_ranks(space, requests, rank, shared + split[:, rank].tolist())
                for rank in ranks
            ])
            rounds, period, periodic_from = len(requests), inst.k, history.periodic_from
            merged = max(t for t in range(rounds + 1) if (walked[:, t] == walked[0, t]).all())
            assert len(shared) == merged and split.shape == (rounds - merged, len(ranks))
            # each round's nodes are the distinct ranks after it
            assert [leave.size for leave, _ in steps[:-1]] == [
                len(set(walked[:, t])) for t in range(merged + 1, rounds)
            ]
            starts = range(periodic_from, rounds + 1, period)
            # the array walk passes a cycle start, and the next lies below the merge
            above = [t for t in starts if t > merged]
            assert above and min(above) - period >= periodic_from, (model, weights, seed)
            base_len = len(inst.requests)
            start = space.rank(inst.initial)
            held = max(t for t in range(base_len + 1, merged + 1) if walked[0, t] == start)
            assert held_to == held, (model, weights, seed)
            assert (walked[:, base_len : held + 1] == start).all()
            assert shared[base_len:held_to] == list(requests[base_len:held_to])
            # the rows strictly inside (base_len, held_to) are not read
            assert set(asked) == set(range(base_len + 1)) | set(range(held_to, rounds + 1))
            assert first.tolist() == single_walks(history, anchored, ranks)
            reference = work_vector_history(anchored)
            for config in all_configs(space)[:: max(1, len(space) // 4)]:
                assert extract_trace(history, anchored, config) == loop_extract_trace(
                    reference, anchored, config
                )
            assert first_start_visits(history, anchored, ranks, base_len).tolist() == (
                loop_first_visits(anchored, base_len, ranks)
            )

    def test_unanchored_walks_never_merge(self):
        # distinct first plans: the columns stay apart down to round 1
        inst = generate_instance(4, 2, 4, WRONG_PLAN["seed"])
        history = work_vector_history(inst)
        first = single_walks(history, inst, range(len(history.space)))
        assert first == [2, 2, 2, 0, 1, 1]


class TestSharedReplay:
    """The forward replay runs one plan on Python lists while every target
    shares it, and one row per target after that."""

    def test_one_plan_to_the_last_round(self, monkeypatch):
        """One target shares its plan and its leave points up to the last
        round, so the whole forward replay runs on Python lists, and one
        target repeated up to the round before (its copies are the nodes
        after the last round): it must still skip the held anchor rounds
        and find the reference's first visit."""
        for model, weights, seed in COMPRESSION_CASES:
            inst = compression_instance(model, weights, seed)
            base_len = len(inst.requests)
            base = work_vector_history(inst)
            cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * inst.k - 1, 0).cycles
            anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * cycles)
            history = work_vector_history(anchored, base)
            for rank in (0, len(history.space) // 2, len(history.space) - 1):
                want = loop_first_visits(anchored, base_len, [rank])
                _, shared, _, held_to = _backtrack(history, anchored, [rank])
                assert shared[base_len:held_to] == list(anchored.requests[base_len:held_to])
                assert held_to > base_len + inst.k
                for ranks in ([rank], [rank] * 3):
                    read = spy_leave_reads(monkeypatch)
                    first = first_start_visits(history, anchored, ranks, base_len).tolist()
                    monkeypatch.undo()
                    assert first == want * len(ranks), (model, weights, seed, ranks)
                    # no leave point of [base_len + k, held_to) is read
                    rounds = len(anchored.requests) - (len(ranks) > 1)
                    assert read == [*range(base_len + inst.k), *range(held_to, rounds)]

    @pytest.mark.parametrize("model,weights,seed", COMPRESSION_CASES)
    def test_skipped_cycles_lie_in_the_shared_rounds(self, model, weights, seed):
        """The array replay has no skip, since it never meets a held round
        it could skip: the backward pass jumps only on the shared rank, so
        every target shares its plan and its leave points up to held_to,
        the skip's landing, and those of the anchor before it are the
        requests.  A skip across the first round whose leave points differ
        cannot happen; this checks the premise on every anchor length."""
        inst = compression_instance(model, weights, seed)
        base = work_vector_history(inst)
        cycles = compute_anchor(inst, opt_cost(base[-1]), 2 * inst.k - 1, 0).cycles
        base_len = len(inst.requests)
        skips = 0
        for m in (1, 2, cycles):
            anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * m)
            history = work_vector_history(anchored, base)
            requests = anchored.requests
            size = len(history.space)
            for ranks in (range(size), [size - 1, 0, size // 2]):
                first, shared, _, held_to = _backtrack(history, anchored, ranks)
                if held_to == 0:
                    continue
                skips += 1
                assert len(first) == 1
                assert base_len < held_to <= len(shared)
                assert shared[base_len:held_to] == list(requests[base_len:held_to])
        assert skips > 0

    def test_anchors_without_a_fixed_point_skip_too(self, monkeypatch):
        """One- and two-cycle anchors end before their fixed point, and
        their walks still jump from the start: some backward pass jumps,
        some replay skips, reading no leave point it skips, and every
        trace and first visit equals the reference on the full fold."""
        jumps = skips = 0
        for model, weights, seed in COMPRESSION_CASES:
            inst = compression_instance(model, weights, seed)
            base_len = len(inst.requests)
            base = work_vector_history(inst)
            for m in (1, 2):
                anchored = dataclasses.replace(inst, requests=inst.requests + inst.initial * m)
                history = work_vector_history(anchored, base)
                if history.fixed_cycle is not None:
                    continue
                space = history.space
                reference = work_vector_history(anchored)
                for rank, config in enumerate(all_configs(space)):
                    held_to = _backtrack(history, anchored, [rank])[3]
                    jumps += held_to > base_len
                    skips += held_to > base_len + inst.k
                    read = spy_leave_reads(monkeypatch)
                    got = extract_trace(history, anchored, config)
                    monkeypatch.undo()
                    assert got == loop_extract_trace(reference, anchored, config)
                    assert not any(base_len + inst.k <= t < held_to for t in read)
                ranks = range(len(space))
                assert first_start_visits(history, anchored, ranks, base_len).tolist() == (
                    loop_first_visits(anchored, base_len, ranks)
                )
        assert jumps > 0 and skips > 0


def test_verify_work_counts(monkeypatch):
    # a verify-mid benchmark instance: n = 12, k = 4, |rho| = 50
    import kserver.harness as harness

    histories = []

    def kept(*args, **kwargs):
        histories.append(work_vector_history(*args, **kwargs))
        return histories[-1]

    calls = count_work(monkeypatch)
    monkeypatch.setattr(harness, "work_vector_history", kept)
    inst = generate_instance(12, 4, 50, seed=114)
    report = verify_anchored_properties(inst, "2k-1", 0, 3)
    assert report.beta_used == 0 and report.status == "pass"
    rounds = len(inst.requests) + inst.k * report.cycles
    assert rounds == 1398
    # the anchor reaches its fixed point at cycle 4 of 337; blocks 2 and 3
    # are block 1 shifted, so no other anchored history is folded
    anchored = [h for h in histories if len(h) == rounds + 1]
    assert [(h.fixed_cycle, h.periodic_from, len(h.rows)) for h in anchored] == [(4, 62, 66)]
    assert calls == {"update": 50 + 4 * 4, "extract": 1}
    assert calls["update"] == 66
    # the shifted blocks end where the full fold of all three blocks does
    block = dataclasses.replace(inst, requests=inst.requests + inst.initial * report.cycles)
    reference = full_fold(dataclasses.replace(block, requests=block.requests * 3))
    assert report.values["opt_chi"] == int(reference[-1].min())
    # the ratio row folds the base once, its online run read off the fold
    calls["update"] = 0
    measure_strict_ratio(inst)
    assert calls == {"update": 50, "extract": 1}


def test_closed_form_repeat_builds_no_q_fold_trace():
    # when C2 and R1 pass, the repeated block's cost is q times block 1's
    # and nothing is compared: q = 10^5 holds no 10^5 copies of its rounds
    inst = generate_instance(6, 3, 8, seed=1)
    q = 10**5
    verify_anchored_properties(inst, "2k-1", 0, 1)  # the space and its tables
    tracemalloc.start()
    try:
        report = verify_anchored_properties(inst, "2k-1", 0, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status == "pass" and report.check("E3").witness is None
    values = report.values
    assert values["alg_chi"] == q * values["alg_rho_sigma"]
    assert values["opt_chi"] == q * values["opt_rho_sigma"]
    assert peak < 5 * 2**20


@pytest.mark.parametrize("model", REQUEST_MODELS)
@pytest.mark.parametrize("weights", [(1, 9), (1, 1)])
def test_ratio_row_of_the_report_equals_its_own_fold(model, weights):
    # online decisions on the base do not depend on the anchor after it
    shapes = ((4, 2, 0), (5, 2, 9), (6, 3, 12), (7, 4, 6), (8, 3, 15))
    for (n, k, rho_len), seed in itertools.product(shapes, range(1, 5)):
        inst = generate_instance(n, k, rho_len, seed, request_model=model, weight_range=weights)
        values = verify_anchored_properties(inst, "2k-1", 0, 2).values
        row = RatioRow.of(inst, values["opt"], values["alg"])
        assert row == measure_strict_ratio(inst), (n, k, rho_len, seed)


def test_verify_and_campaign_read_the_ratio_row_off_the_report(monkeypatch, tmp_path):
    import kserver.cli as cli
    import kserver.harness as harness

    def refold(inst):
        raise AssertionError("the ratio row folds the base sequence again")

    monkeypatch.setattr(harness, "measure_strict_ratio", refold)
    monkeypatch.setattr(cli, "measure_strict_ratio", refold, raising=False)
    report = run_campaign(dict(DEFAULT_CAMPAIGN, seeds=[1, 4]))
    assert report.status == "pass" and all(row.ratio.passed for row in report.rows)
    path = tmp_path / "instance.json"
    path.write_text(instance_to_json(generate_instance(6, 3, 8, seed=1)))
    assert cli.main(["verify", str(path)]) == cli.EXIT_OK


def test_verify_matching_count(monkeypatch):
    # the same verify-mid instance: C1b prices all 495 examined targets'
    # final relocations in one batched DP, so the only single
    # matchings left align the one distinct first plan in
    # first_start_visits and the reference trace's first plan in
    # extract_trace (whose final relocation moves no server)
    import kserver.offline as offline

    calls = []
    assignment = offline.matching_assignment

    def counted(*args, **kwargs):
        calls.append(args)
        return assignment(*args, **kwargs)

    monkeypatch.setattr(offline, "matching_assignment", counted)
    inst = generate_instance(12, 4, 50, seed=114)
    report = verify_anchored_properties(inst, "2k-1", 0, 3)
    assert report.check("C1b").lhs == 495
    assert len(calls) == 2


def test_verify_refuses_repeats_past_int64():
    # the anchored sequence fits int64, its q-fold repeat may not: every
    # value of the repeat is at most (q*T + k) times the largest distance
    def instance(distance):
        matrix = [[0 if i == j else distance for j in range(3)] for i in range(3)]
        metric = MetricSpace.from_matrix(matrix)
        return Instance.build(metric, 2, (0, 1), (2,))

    rounds = 1 + len(compute_anchor(instance(1), 1, 3, 0).requests)
    inside = (2**63 - 1) // (3 * rounds + 2)
    report = verify_anchored_properties(instance(inside), 3, 0, 3)
    assert report.status == "pass" and report.beta_used == 0
    assert report.values["opt"] == inside
    assert report.values["opt_chi"] == 3 * report.values["opt_rho_sigma"]
    with pytest.raises(InputError, match="int64 bound"):
        verify_anchored_properties(instance(inside + 1), 3, 0, 3)
    # fewer repeats fit
    assert verify_anchored_properties(instance(inside + 1), 3, 0, 2).status == "pass"


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
        row = measure_strict_ratio(dataclasses.replace(m3_instance, requests=()))
        assert (row.opt, row.alg, row.passed) == (0, 0, True)

    def test_m3(self, m3_instance):
        row = measure_strict_ratio(m3_instance)
        assert (row.opt, row.alg, row.bound, row.passed) == (2, 2, 6, True)

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
        # each request is the uncovered point farthest from the online
        # configuration, ties to the smallest, and loop_decide serves it
        inst = generate_instance(6, 2, 15, seed=5, request_model="greedy_adversary")
        dist = inst.metric.dist
        vector = initial_work_vector(inst.metric, inst.initial)
        config = inst.initial
        for request in inst.requests:
            assert request not in config
            gaps = {p: min(dist[p][s] for s in config) for p in range(inst.n) if p not in config}
            assert request == min(p for p, gap in gaps.items() if gap == max(gaps.values()))
            config = loop_decide(vector, config, request).config
            vector = update_work_vector(vector, request)

    def test_k_exceeds_n(self):
        with pytest.raises(InputError, match="k exceeds n"):
            generate_instance(4, 5, 3, seed=1)

    @pytest.mark.parametrize("n", [4.0, "4", None, True])
    def test_point_count_must_be_an_integer(self, n):
        with pytest.raises(InputError, match=rf"point count must be a positive integer, got {n!r}$"):
            generate_instance(n, 2, 3, 1)

    def test_unknown_model(self):
        with pytest.raises(InputError):
            generate_instance(4, 2, 3, seed=1, request_model="zipf")


class TestSpaceCache:
    """``configuration_space`` holds one space: every layer of an instance
    asks for the same one, and a campaign's instances never ask again for
    an earlier instance's."""

    def test_campaign_holds_one_space(self):
        configuration_space.cache_clear()
        report = run_campaign(dict(DEFAULT_CAMPAIGN, seeds=[1, 3]))
        assert len({row.instance.metric for row in report.rows}) == 3
        info = configuration_space.cache_info()
        assert (info.currsize, info.misses) == (1, 3)

    def test_one_instance_builds_one_space(self):
        configuration_space.cache_clear()
        inst = generate_instance(8, 3, 12, seed=5, request_model="greedy_adversary")
        verify_anchored_properties(inst, "2k-1", 0, 3)
        measure_strict_ratio(inst)
        info = configuration_space.cache_info()
        assert (info.currsize, info.misses) == (1, 1)


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

    def test_report_rows(self):
        config = dict(DEFAULT_CAMPAIGN, seeds=[1, 2], n=[3, 5])
        report = run_campaign(config)
        assert report.status == "pass"
        assert len(report.rows) == 2
        assert report.rows[0].ratio.passed is True
        # the CSV's opt, alg and ratio_pass columns are the rows' ratio rows
        lines = report_to_csv(report).splitlines()[1:]
        for row, line in zip(report.rows, lines, strict=True):
            record = dict(zip(CSV_COLUMNS, line.split(","), strict=True))
            assert (record["opt"], record["alg"]) == (str(row.ratio.opt), str(row.ratio.alg))
            assert record["ratio_pass"] == ("pass" if row.ratio.passed else "fail")

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
            dict(good, seeds=[-1, 2]),  # splitmix64 would draw 2^64 - 1's stream
            dict(good, seeds=[0, 2**64]),  # and here seed 0's twice
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

