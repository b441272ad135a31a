"""Mechanical verification of the anchored-sequence properties.

Every check compares exact integers; there is no tolerance anywhere.

P1   cost of serving the base sequence and returning to the start is at
     most twice the unconstrained optimum.
E1   the anchored sequence's optimum is sandwiched between the base
     optimum and twice the base optimum.
C1a  the anchored work vector has a unique minimizer: the start
     configuration.
C1b  for every ending configuration, the extracted cost-realizing
     execution passes through the start configuration during the anchor
     block (checked on all configurations, or a seeded sample of 512).
     All examined targets are backtracked and lazily replayed together
     (``offline.first_start_visits``), each round's distinct plans walked
     once and each trace's cost checked against its work-vector entry,
     with every final relocation priced by one batched subset DP in the
     space's dtype (``metric.matching_costs``); the first target's trace
     is also built by ``extract_trace``, and a different first visit
     raises.
     Both replay a plan with the one lazy replay, ``offline._replay``,
     which skips the anchor rounds in which the plan holds the start.
C2   the anchored work vector equals its value at the start plus the
     matching distance from the start, entry for entry.
E2   the optimum of the q-fold repeated block is exactly q times the
     block optimum.
E3   the online cost of the repeated block is exactly q times the block
     cost, and the per-round behavior repeats verbatim.  C2 and R1 decide
     blocks 2..q once.  When both pass, block 1 ends in the start
     configuration on its first vector plus c = its value at the start,
     and an update commutes with adding a constant while a decision
     ignores it: every later block is block 1 shifted by c, so the
     repeated block is block 1's rounds q times, at q times its cost (no
     round is built), and its optimum is block 1's plus (q-1)*c.
     Otherwise blocks 2..q continue the anchored online run, on ranks
     with the rank after each round kept (``wfa_ranks``'s trail), and
     its work vector, each folded like the first.  Requests repeat with
     the block, so a round differs from block 1's at the same position
     exactly when its ranks before and after do: the first such round
     is the witness, and no round is built.
R1   the online algorithm ends the anchored block back at the start
     configuration.  If this fails the anchor is rebuilt with a doubled
     allowance, up to a cap; running out of cap is reported as
     inconclusive rather than failure.
T1   the online cost of the base sequence is at most 2*alpha times its
     optimum.

The base history is folded once; its optimum sizes every anchor.  An
escalation attempt only folds its anchor onto the base history and reads
the online run off the result (the algorithm decides each round from the
vector before it), on ranks and with no round built
(``workfunction.wfa_ranks``): its end configuration, the cost of its
first |rho| rounds and its total.  The other checks run once, on the
anchor that ends the escalation, and T1 takes the base run as the
anchored run's first |rho| rounds.

Anchors are folded only to their fixed point.  The anchor is m cycles
over the start points, and updates are deterministic, so once two
consecutive cycle-end work vectors are exactly equal, every later cycle
repeats the last one (``offline.work_vector_history``).  The online run
stops at an exact repetition across a cycle and fills in the rest from
it.  C1b's passes skip the anchor rounds in which the plan stands on the
start: the start holds every anchor request, so its entry never changes
there and the plan stays at zero cost (``offline._backtrack``).  No
paper lemma is assumed: C2 and the repetition equalities stay checks,
and an anchor that never repeats is folded to its end.  Reports are the
same as with every cycle folded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .anchor import compute_anchor
from .metric import (
    MAX_POINTS,
    MIN_POINTS,
    InputError,
    Instance,
    check_fields,
    check_int64_bound,
    check_integer,
    check_seed,
    min_pairwise_distance,
    random_metric,
)
from .offline import (
    extract_trace,
    first_start_visits,
    opt_cost,
    work_vector_history,
)
from .rng import SplitMix64
from .workfunction import (
    initial_work_vector,
    run_wfa,  # unused here; the benchmark tracer wraps this name
    update_work_vector,
    wfa_cost,
    wfa_ranks,
)

CHECK_IDS = ("P1", "E1", "C1a", "C1b", "C2", "E2", "E3", "R1", "T1")

CHECK_DESCRIPTIONS = {
    "P1": "returning to the start costs at most twice the optimum",
    "E1": "anchored optimum lies between the optimum and twice the optimum",
    "C1a": "the start is the unique minimizer of the anchored work vector",
    "C1b": "every extracted optimal execution revisits the start during the anchor",
    "C2": "anchored work vector = value at start + distance from start, exactly",
    "E2": "offline cost of the repeated block = repetitions x block cost",
    "E3": "online cost and behavior on the repeated block repeat verbatim",
    "R1": "the online algorithm ends the anchored block at the start",
    "T1": "online cost of the base sequence <= 2*alpha*optimum",
}

C1B_SAMPLE_CAP = 512
# R1's allowance escalation stops at this many times the start's smallest gap
BETA_CAP_GAPS = 1 << 20


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # pass | fail | inconclusive
    lhs: object
    rhs: object
    witness: object = None

    def to_json(self) -> dict:
        out = {
            "check": self.check_id,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of all nine checks on one instance."""

    fingerprint: str
    alpha: int
    beta_initial: int
    beta_used: int
    q: int
    cycles: int
    min_gap: int
    checks: tuple[CheckResult, ...]
    values: dict

    def check(self, check_id: str) -> CheckResult:
        for result in self.checks:
            if result.check_id == check_id:
                return result
        raise KeyError(check_id)

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        if "inconclusive" in statuses:
            return "inconclusive"
        return "pass"

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "alpha": self.alpha,
            "beta_initial": self.beta_initial,
            "beta_used": self.beta_used,
            "q": self.q,
            "m": self.cycles,
            "ell": self.min_gap,
            "status": self.status,
            "checks": [c.to_json() for c in self.checks],
            "values": dict(self.values),
        }


def resolve_alpha(value, k: int) -> int:
    """Accept a positive integer or the literal token ``2k-1``."""
    if isinstance(value, str):
        token = value.strip().replace(" ", "")
        if token in ("2k-1", "2*k-1"):
            return 2 * k - 1
        try:
            value = int(token)
        except ValueError:
            raise InputError(f"alpha must be a positive integer or '2k-1', got {value!r}")
    return check_integer("alpha", value, 1)


def _beta_schedule(beta_initial: int, cap: int):
    """Allowance values to try: the initial one, then doubling from max(1, initial)."""
    yield beta_initial
    beta = max(1, beta_initial)
    if beta != beta_initial and beta <= cap:
        yield beta
    while beta * 2 <= cap:
        beta *= 2
        yield beta


def _bool_check(check_id, ok, lhs, rhs, witness=None) -> CheckResult:
    return CheckResult(check_id, "pass" if ok else "fail", lhs, rhs, witness)


def verify_anchored_properties(
    inst: Instance,
    alpha: int,
    beta_initial: int = 0,
    q: int = 3,
) -> PropertyReport:
    """Run all nine checks on one instance; see the module docstring.

    The allowance escalation only reacts to R1: the other checks hold (or
    not) for any sufficient anchor, while R1 can legitimately need a larger
    allowance than the one assumed.  It stops at ``BETA_CAP_GAPS`` times
    the start's smallest gap; C1b samples ``C1B_SAMPLE_CAP`` targets of a
    larger space.  The anchored instance is not checked again: the base
    was, and the anchor is start points whose int64 bound
    ``compute_anchor`` checks before building them.
    """
    alpha = resolve_alpha(alpha, inst.k)
    check_integer("beta", beta_initial, 0)
    check_integer("q", q, 1)
    if inst.k < 2:
        raise InputError("anchored verification needs k >= 2")
    beta_cap = BETA_CAP_GAPS * min_pairwise_distance(inst.initial, inst.metric)

    start = inst.initial
    base_len = len(inst.requests)
    base = work_vector_history(inst)
    vector_base = base[-1]
    opt_base = opt_cost(vector_base)
    space = base.space

    # an attempt does only what R1 needs
    for beta_used in _beta_schedule(beta_initial, beta_cap):
        anchor = compute_anchor(inst, opt_base, alpha, beta_used)
        anchored = replace(inst, requests=inst.requests + anchor.requests)
        history = work_vector_history(anchored, base)
        end, alg_base, alg_anchored = wfa_ranks(
            space, history, anchored.requests, space.rank(start), base_len
        )
        end_config = space.config(end)
        if end_config == start:
            break
    r1_status = "pass" if end_config == start else "inconclusive"
    r1 = CheckResult("R1", r1_status, list(end_config), list(start))

    return_cost = vector_base.value(start)
    p1 = _bool_check("P1", return_cost <= 2 * opt_base, return_cost, 2 * opt_base)
    t1 = _bool_check("T1", alg_base <= 2 * alpha * opt_base, alg_base, 2 * alpha * opt_base)

    vector_anchored = history[-1]
    opt_anchored = opt_cost(vector_anchored)
    e1 = _bool_check(
        "E1", opt_base <= opt_anchored <= 2 * opt_base,
        [opt_base, opt_anchored], [opt_anchored, 2 * opt_base],
    )

    minimizers = np.flatnonzero(vector_anchored.values == opt_anchored)
    unique_start = len(minimizers) == 1 and space.config(minimizers[0]) == start
    c1a = _bool_check(
        "C1a", unique_start, [list(space.config(i)) for i in minimizers[:4]], [list(start)],
    )

    # compared as a difference, which stays inside the dtype where the sum may not
    at_start = vector_anchored.value(start)
    distance = space.distance_vector(start)
    c2_bad = np.flatnonzero(vector_anchored.values - distance != at_start)
    c2 = _bool_check(
        "C2", c2_bad.size == 0, int(c2_bad.size), 0,
        None if c2_bad.size == 0 else {
            "config": list(space.config(c2_bad[0])),
            "value": int(vector_anchored.values[c2_bad[0]]),
            "expected": at_start + int(distance[c2_bad[0]]),
        },
    )

    c1b = _check_start_visits(history, anchored, base_len, C1B_SAMPLE_CAP)

    # C2 and R1 decide blocks 2..q once.  When both pass, block 1 ends on
    # the start with its first vector plus at_start, so every later block
    # is block 1 shifted by at_start; otherwise each continues the run
    # folded like the first, its anchor up to its fixed point
    rounds = len(anchored.requests)
    check_int64_bound(
        f"q*T + k = {q}*{rounds} + {inst.k}", q * rounds + inst.k, inst.metric.largest
    )
    witness = None
    if c2.status == "pass" and r1_status == "pass":
        # block 1's rounds q times, so no round is built or compared
        opt_repeated = opt_anchored + (q - 1) * at_start
        alg_repeated = q * alg_anchored
    else:
        # the rank after each round of block 1, then of blocks 2..q
        # continuing its run
        trail = [space.rank(start)]
        wfa_ranks(space, history, anchored.requests, trail[0], trail=trail)
        alg_repeated, vector_repeated = alg_anchored, vector_anchored
        for _ in range(q - 1):
            block = work_vector_history(anchored, work_vector_history(inst, first=vector_repeated))
            alg_repeated += wfa_ranks(space, block, anchored.requests, trail[-1], trail=trail)[2]
            vector_repeated = block[-1]
        opt_repeated = opt_cost(vector_repeated)
        steps = list(zip(trail, trail[1:]))
        for i, step in enumerate(steps):
            if step != steps[i % rounds]:
                witness = {"round": i + 1}
                break
    e2 = _bool_check("E2", opt_repeated == q * opt_anchored, opt_repeated, q * opt_anchored)
    e3_ok = alg_repeated == q * alg_anchored and witness is None
    e3 = _bool_check("E3", e3_ok, alg_repeated, q * alg_anchored, witness)

    return PropertyReport(
        fingerprint=inst.fingerprint(),
        alpha=alpha,
        beta_initial=beta_initial,
        beta_used=beta_used,
        q=q,
        cycles=anchor.cycles,
        min_gap=anchor.min_gap,
        checks=(p1, e1, c1a, c1b, c2, e2, e3, r1, t1),
        values={
            "opt": opt_base,
            "alg": alg_base,
            "opt_rho_sigma": opt_anchored,
            "alg_rho_sigma": alg_anchored,
            "opt_chi": opt_repeated,
            "alg_chi": alg_repeated,
        },
    )


def _check_start_visits(history, anchored: Instance, base_len: int, sample_cap: int) -> CheckResult:
    """C1b: each extracted execution must sit on the start configuration at
    the end of some round inside the anchor block.

    ``first_start_visits`` backtracks and replays every examined target at
    once.  The first target's trace is also built by ``extract_trace``
    over every round.  Both replay the same backtracked plan with the one
    lazy replay, ``offline._replay``, which skips the anchor rounds in
    which the plan holds the start; a different first visit means they
    disagree, and raises.  The tests check the skip against traces walked
    over every round of the anchored sequence."""
    space = history[-1].space
    if len(space) <= sample_cap:
        ranks = range(len(space))
    else:
        stream = SplitMix64(int(anchored.fingerprint()[:16], 16))
        ranks = stream.sample(len(space), sample_cap)
    first = first_start_visits(history, anchored, ranks, base_len)
    reference = extract_trace(history, anchored, space.config(ranks[0]))
    visits = (
        t for t in range(base_len, len(anchored.requests))
        if reference.config_after(t) == anchored.initial
    )
    if next(visits, -1) != first[0]:
        raise RuntimeError(
            f"batched C1b disagrees with extract_trace on {space.config(ranks[0])}"
        )
    missed = np.flatnonzero(first < 0)
    if missed.size:
        examined = int(missed[0]) + 1
        target = space.config(ranks[missed[0]])
        return CheckResult("C1b", "fail", examined, examined, {"target": list(target)})
    return CheckResult("C1b", "pass", len(ranks), len(ranks))


@dataclass(frozen=True)
class RatioRow:
    """One strict-ratio measurement: online cost against (4k-2) times optimum."""

    opt: int
    alg: int
    bound: int
    passed: bool

    @classmethod
    def of(cls, inst: Instance, opt: int, alg: int) -> RatioRow:
        """The row of ``inst`` whose base sequence has optimum ``opt`` and
        online cost ``alg``, as a verify report's values hold them: exact
        integer comparison alg <= (4k-2)*opt; a zero optimum demands a zero
        online cost."""
        bound = 4 * inst.k - 2
        passed = alg <= bound * opt if opt > 0 else alg == 0
        return cls(opt, alg, bound, passed)


def measure_strict_ratio(inst: Instance) -> RatioRow:
    """``RatioRow.of`` an instance that has no verify report: folds the base
    sequence once and reads its online run off the fold (``wfa_cost``)."""
    alg, final = wfa_cost(inst)
    return RatioRow.of(inst, opt_cost(final), alg)


REQUEST_MODELS = ("uniform", "roundrobin_k_plus_1", "greedy_adversary")


def _headroom(request_model: str) -> int:
    """Points beyond k a request model needs: the cycling and adversarial
    models request a point outside the start configuration."""
    return 1 if request_model in ("roundrobin_k_plus_1", "greedy_adversary") else 0


def _check_request_model(model) -> str:
    if model not in REQUEST_MODELS:
        raise InputError(f"unknown request model {model!r}, expected one of {REQUEST_MODELS}")
    return model


def generate_instance(
    n: int,
    k: int,
    rho_len: int,
    seed: int,
    request_model: str = "uniform",
    weight_range: tuple[int, int] = (1, 9),
) -> Instance:
    """Deterministic instance from a seed: random closed metric, servers on
    the first k points, requests per the chosen model.

    ``uniform`` draws each request over all points; ``roundrobin_k_plus_1``
    cycles over points 0..k starting at the uncovered point k;
    ``greedy_adversary`` always requests the uncovered point farthest from
    the current online configuration (ties to the smallest identifier),
    simulating the online algorithm while generating.
    """
    _check_request_model(request_model)
    check_integer("request count", rho_len, 0)
    check_integer("server count", k, 1)
    stream = SplitMix64(check_seed(seed))
    metric_seed = stream.next_u64()
    request_seed = stream.next_u64()
    metric = random_metric(n, metric_seed, weight_range)
    if k > n:
        raise InputError(f"k exceeds n (k={k}, n={n})")
    initial = tuple(range(k))

    if request_model == "uniform":
        requests_stream = SplitMix64(request_seed)
        requests = [requests_stream.randint(0, n - 1) for _ in range(rho_len)]
    elif request_model == "roundrobin_k_plus_1":
        if k + 1 > n:
            raise InputError(f"round-robin over k+1 points needs n > k (k={k}, n={n})")
        requests = [(k + i) % (k + 1) for i in range(rho_len)]
    else:  # greedy_adversary
        if k == n:
            raise InputError(f"greedy adversary needs an uncovered point (k={k}, n={n})")
        requests = []
        vector = initial_work_vector(metric, initial)
        space = vector.space
        rank = space.rank(initial)
        for _ in range(rho_len):
            config = space.config(rank)
            uncovered = [p for p in range(n) if p not in config]
            request = max(
                uncovered,
                key=lambda p: (min(metric.dist[p][s] for s in config), -p),
            )
            requests.append(request)
            rank = wfa_ranks(space, (vector.values,), (request,), rank)[0]
            vector = update_work_vector(vector, request)
    return Instance.build(metric, k, initial, requests)


CSV_COLUMNS = (
    "instance_id", "seed", "n", "k", "rho_len", "m", "ell", "beta_used",
    "opt", "alg", "opt_rho_sigma", "alg_rho_sigma",
    "P1", "E1", "C1a", "C1b", "C2", "E2", "E3", "R1", "T1", "ratio_pass",
)


def _check_range(config: dict, key: str, allow_empty: bool = False) -> tuple[int, int]:
    value = config[key]
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        raise InputError(f"campaign field {key!r} must be [lo, hi] integers, got {value!r}")
    lo, hi = value
    if hi < lo and not (allow_empty and hi == lo - 1):
        raise InputError(f"campaign field {key!r} has an empty range [{lo}, {hi}]")
    return lo, hi


def validate_campaign_config(config: dict) -> dict:
    """Normalize and sanity-check a campaign description."""
    check_fields(
        config, "campaign", "config",
        {"seeds", "n", "k", "rho_len", "request_model", "alpha", "beta", "q"},
    )
    seeds = _check_range(config, "seeds", allow_empty=True)
    if seeds[0] <= seeds[1]:  # an empty range draws no seed
        for seed in seeds:
            check_seed(seed)
    n_range = _check_range(config, "n")
    k_range = _check_range(config, "k")
    rho_range = _check_range(config, "rho_len")
    model = _check_request_model(config["request_model"])
    if n_range[0] < MIN_POINTS or n_range[1] > MAX_POINTS:
        raise InputError(f"campaign n range {list(n_range)} outside [{MIN_POINTS}, {MAX_POINTS}]")
    if k_range[0] < 2:
        raise InputError("anchored verification needs k >= 2 for every instance")
    if rho_range[0] < 0:
        raise InputError("rho_len cannot be negative")
    if k_range[0] > n_range[0] - _headroom(model):
        raise InputError(
            f"k range {list(k_range)} infeasible for n range {list(n_range)} "
            f"under model {model!r}"
        )
    resolve_alpha(config["alpha"], 2)  # token validity only; resolved per instance
    check_integer("beta", config["beta"], 0)
    check_integer("q", config["q"], 1)
    return {
        "seeds": list(seeds),
        "n": list(n_range),
        "k": list(k_range),
        "rho_len": list(rho_range),
        "request_model": model,
        "alpha": config["alpha"],
        "beta": config["beta"],
        "q": config["q"],
    }


@dataclass(frozen=True)
class CampaignRow:
    instance_id: int
    seed: int
    instance: Instance
    report: PropertyReport
    ratio: RatioRow


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[CampaignRow, ...]

    @property
    def status(self) -> str:
        statuses = {row.report.status for row in self.rows}
        if "fail" in statuses or any(not row.ratio.passed for row in self.rows):
            return "fail"
        if "inconclusive" in statuses:
            return "inconclusive"
        return "pass"


def run_campaign(config: dict) -> ExperimentReport:
    """Verify and measure every instance a campaign config describes.

    Instances are independent; rows are emitted in instance order.  Every
    draw flows from the per-instance seed, so reruns reproduce the report
    byte for byte.
    """
    cfg = validate_campaign_config(config)
    lo, hi = cfg["seeds"]
    rows = []
    headroom = _headroom(cfg["request_model"])
    for instance_id, seed in enumerate(range(lo, hi + 1)):
        stream = SplitMix64(seed)
        n = stream.randint(cfg["n"][0], cfg["n"][1])
        k_hi = min(cfg["k"][1], n - headroom)
        k = stream.randint(cfg["k"][0], k_hi)
        rho_len = stream.randint(cfg["rho_len"][0], cfg["rho_len"][1])
        inst = generate_instance(n, k, rho_len, seed, cfg["request_model"])
        alpha = resolve_alpha(cfg["alpha"], k)
        report = verify_anchored_properties(inst, alpha, cfg["beta"], cfg["q"])
        ratio = RatioRow.of(inst, report.values["opt"], report.values["alg"])
        rows.append(CampaignRow(instance_id, seed, inst, report, ratio))
    return ExperimentReport(tuple(rows))


def report_to_csv(report: ExperimentReport) -> str:
    """Fixed-schema CSV; pure function of the report, byte-stable."""
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        values = row.report.values
        record = [
            row.instance_id,
            row.seed,
            row.instance.n,
            row.instance.k,
            len(row.instance.requests),
            row.report.cycles,
            row.report.min_gap,
            row.report.beta_used,
            values["opt"],
            values["alg"],
            values["opt_rho_sigma"],
            values["alg_rho_sigma"],
        ]
        record.extend(row.report.check(cid).status for cid in CHECK_IDS)
        record.append("pass" if row.ratio.passed else "fail")
        lines.append(",".join(str(v) for v in record))
    return "\n".join(lines) + "\n"
