"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with ``pytest -s``);
a failure surfaces through the assert with its witness.
"""

from pathlib import Path

import pytest

from kserver import (
    CHECK_IDS,
    final_work_vector,
    generate_instance,
    initial_work_vector,
    report_to_csv,
    run_campaign,
    update_work_vector,
    wfa_decide,
)
from kserver.offline import oracle_work_vector
from kserver.rng import SplitMix64
from vector_checks import d_equivalence, shifted, vector_pairs

UNIFORM_CAMPAIGN = {
    "seeds": [1, 100], "n": [4, 8], "k": [2, 3], "rho_len": [0, 12],
    "request_model": "uniform", "alpha": "2k-1", "beta": 0, "q": 3,
}

ROUNDROBIN_CAMPAIGN = {
    "seeds": [1, 8], "n": [3, 6], "k": [2, 3], "rho_len": [200, 200],
    "request_model": "roundrobin_k_plus_1", "alpha": "2k-1", "beta": 0, "q": 3,
}

GREEDY_CAMPAIGN = {
    "seeds": [1, 10], "n": [4, 8], "k": [2, 3], "rho_len": [0, 20],
    "request_model": "greedy_adversary", "alpha": "2k-1", "beta": 0, "q": 3,
}

CAMPAIGNS = {
    "uniform": UNIFORM_CAMPAIGN,
    "roundrobin_k_plus_1": ROUNDROBIN_CAMPAIGN,
    "greedy_adversary": GREEDY_CAMPAIGN,
}

GOLDEN_CSV = Path(__file__).resolve().parent / "golden" / "campaign"


@pytest.fixture(scope="module")
def uniform_report():
    return run_campaign(UNIFORM_CAMPAIGN)


@pytest.fixture(scope="module")
def roundrobin_report():
    return run_campaign(ROUNDROBIN_CAMPAIGN)


@pytest.fixture(scope="module")
def greedy_report():
    return run_campaign(GREEDY_CAMPAIGN)


def _passline(name):
    print(f"[ACCEPTANCE] {name}: PASS")


def test_oracle_equivalence():
    """Every work-vector entry equals the schedule-enumeration oracle."""
    grid = [
        (n, k, length, seed)
        for n in range(2, 6)
        for k in range(1, min(3, n) + 1)
        for length in range(0, 7)
        for seed in range(1, 8)
    ]
    assert len(grid) >= 500
    checked = 0
    for n, k, length, seed in grid:
        inst = generate_instance(n, k, length, seed)
        vector = final_work_vector(inst)
        oracle = oracle_work_vector(inst)
        for cfg, value in vector_pairs(vector):
            assert value == oracle[cfg], (n, k, length, seed, cfg)
        checked += 1

    stream = SplitMix64(20260808)
    for _ in range(1000):
        n = stream.randint(2, 6)
        k = stream.randint(1, min(3, n))
        length = stream.randint(0, 7)
        seed = stream.next_u64()
        inst = generate_instance(n, k, length, seed)
        vector = final_work_vector(inst)
        oracle = oracle_work_vector(inst)
        for cfg, value in vector_pairs(vector):
            assert value == oracle[cfg], (n, k, length, seed, cfg)
        checked += 1
    assert checked == len(grid) + 1000
    _passline(f"oracle equivalence ({checked} instances, tolerance 0)")


def test_anchored_collapse_c2(uniform_report):
    """Anchored work vector equals value-at-start plus distance-from-start."""
    assert len(uniform_report.rows) == 100
    for row in uniform_report.rows:
        assert row.report.check("C2").status == "pass", row.seed
        assert row.instance.n <= 8 and row.instance.k in (2, 3)
        assert len(row.instance.requests) <= 12
    _passline("C2 exact collapse on 100 seeded instances")


def test_repetition_equalities_e2_e3(uniform_report):
    """Costs on the tripled block are exactly three times the block costs,
    and the online behavior repeats verbatim."""
    for row in uniform_report.rows:
        assert row.report.q == 3
        assert row.report.check("E2").status == "pass", row.seed
        assert row.report.check("E3").status == "pass", row.seed
        values = row.report.values
        assert values["opt_chi"] == 3 * values["opt_rho_sigma"]
        assert values["alg_chi"] == 3 * values["alg_rho_sigma"]
    _passline("E2/E3 exact repetition on 100 seeded instances")


def test_retracing_and_sandwich_p1_e1(uniform_report, roundrobin_report, greedy_report):
    """P1 and E1 hold on every instance of every campaign."""
    rows = uniform_report.rows + roundrobin_report.rows + greedy_report.rows
    for row in rows:
        assert row.report.check("P1").status == "pass", row.seed
        assert row.report.check("E1").status == "pass", row.seed
    _passline(f"P1/E1 on {len(rows)} campaign instances")


def test_strict_ratio_t1(uniform_report, roundrobin_report, greedy_report):
    """Online cost within 2*(2k-1) of the optimum, exact integers, on every
    campaign instance including round-robin over k+1 points at length 200."""
    rows = uniform_report.rows + roundrobin_report.rows + greedy_report.rows
    long_runs = 0
    for row in rows:
        assert row.report.check("T1").status == "pass", row.seed
        assert row.ratio.passed, row.seed
        opt, alg, k = row.ratio.opt, row.ratio.alg, row.instance.k
        if opt == 0:
            assert alg == 0
        else:
            assert alg <= (4 * k - 2) * opt
        if len(row.instance.requests) == 200:
            long_runs += 1
    assert long_runs >= 8
    _passline(f"T1 and (4k-2) ratio on {len(rows)} instances, {long_runs} at length 200")


def test_robustness_invariants():
    """Decisions are invariant under constant shifts and shift equivalence
    survives updates, over at least ten thousand (vector, request) pairs."""
    offsets = (1, 10**3, 10**9)
    stream = SplitMix64(424242)
    pairs = 0
    while pairs < 10_000:
        n = stream.randint(3, 6)
        k = stream.randint(2, 3)
        inst = generate_instance(n, k, 0, stream.next_u64())
        vector = initial_work_vector(inst.metric, inst.initial)
        space = vector.space
        for _ in range(200):
            request = stream.randint(0, n - 1)
            config = space.config(stream.randint(0, len(space) - 1))
            offset = offsets[pairs % 3]
            for d in offsets:
                assert wfa_decide(vector, config, request) == wfa_decide(
                    shifted(vector, d), config, request
                )
            updated = update_work_vector(vector, request)
            updated_shifted = update_work_vector(shifted(vector, offset), request)
            assert d_equivalence(updated_shifted, updated) == offset
            vector = updated
            pairs += 1
            if pairs >= 10_000:
                break
    _passline(f"robustness invariants on {pairs} (vector, request) pairs")


def test_campaign_determinism():
    """Identical seeds produce byte-identical CSV reports."""
    config = {
        "seeds": [1, 10], "n": [3, 6], "k": [2, 3], "rho_len": [0, 10],
        "request_model": "uniform", "alpha": "2k-1", "beta": 0, "q": 3,
    }
    first = report_to_csv(run_campaign(config)).encode("utf-8")
    second = report_to_csv(run_campaign(config)).encode("utf-8")
    assert first == second
    _passline("byte-identical campaign CSV on rerun")


def test_campaign_csv_matches_golden(uniform_report, roundrobin_report, greedy_report):
    """The three campaigns' CSVs equal the committed goldens byte for byte
    (see ``test_golden.py`` for where they come from)."""
    reports = {
        "uniform": uniform_report,
        "roundrobin_k_plus_1": roundrobin_report,
        "greedy_adversary": greedy_report,
    }
    for model, report in reports.items():
        got = report_to_csv(report).encode("utf-8")
        assert got == (GOLDEN_CSV / f"{model}.csv").read_bytes(), model
    _passline("byte-identical campaign CSVs against the goldens")


def test_campaign_checks_all_present(uniform_report):
    """Every report carries each of the nine checks exactly once."""
    for row in uniform_report.rows:
        ids = [c.check_id for c in row.report.checks]
        assert ids == list(CHECK_IDS)
    _passline("nine checks per report, each exactly once")
