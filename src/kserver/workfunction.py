"""Work vectors and the work function algorithm.

The work function value of a configuration X after a served prefix is the
cheapest way to serve that prefix from the start configuration and end up
exactly in X.  Vectors are stored densely over all C(n, k) configurations,
indexed by the configuration's position in the lexicographic enumeration
(its combinatorial rank), which keeps updates, offset comparisons and
Lipschitz sweeps to single numpy passes.  Per-request transition tables
are slot-major, ``(k, |configs|)``, so an update is one gather plus a
minimum across the k slots.

Folding in a request r replaces each entry by

    min over z in X of  value((X minus z) plus r) + dist(r, z)

where replacements that would collapse the configuration (r already
elsewhere in X) are skipped; for X containing r the surviving z = r term
leaves the entry unchanged.  The decision rule moves the server x of the
current configuration minimizing value((X minus x) plus r) + dist(x, r),
breaking ties toward the smallest point identifier, and makes the empty
move when the request is already covered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .execution import ExecutionTrace, Move, Round
from .metric import (
    Configuration,
    InputError,
    Instance,
    MetricSpace,
    canonical_configuration,
    matching_cost,  # unused here; the benchmark tracer counts matchings through this name
)

INT64_MAX = int(np.iinfo(np.int64).max)


class ConfigurationSpace:
    """All k-point configurations of a metric space in lexicographic order.

    Tables are slot-major: ``slots[j]`` holds the j-th smallest point of
    every configuration, a C-contiguous ``(k, |configs|)`` uint8 table.
    Each configuration also has a bitmask, and a table of 2^n entries maps
    a bitmask back to its rank, so a replacement is one XOR and one lookup.
    Cached per-request transition tables (target rank and move cost for
    every slot) make a work-vector update one gather plus a minimum across
    the k slots; cached distance vectors from fixed origins serve initial
    vectors and collapse checks.
    """

    def __init__(self, metric: MetricSpace, k: int):
        if not 1 <= k <= metric.n:
            raise InputError(f"k={k} out of range for n={metric.n}")
        # distance vectors add up to k distances in int64
        largest = int(metric.matrix.max())
        if k * largest > INT64_MAX:
            raise InputError(
                f"k={k} times the largest distance {largest} exceeds the "
                f"int64 bound {INT64_MAX}"
            )
        self.metric = metric
        self.k = k
        self.configs: list[Configuration] = list(
            itertools.combinations(range(metric.n), k)
        )
        self.index: dict[Configuration, int] = {
            cfg: i for i, cfg in enumerate(self.configs)
        }
        self.slots = np.array(self.configs, dtype=np.uint8).T.copy()
        self._bit = np.left_shift(1, np.arange(metric.n), dtype=np.int32)
        self._masks = self._bit[self.slots].sum(axis=0, dtype=np.int32)
        self._rank_of_mask = np.full(1 << metric.n, -1, dtype=np.int32)
        self._rank_of_mask[self._masks] = np.arange(len(self.configs), dtype=np.int32)
        for table in (self.slots, self._masks, self._rank_of_mask):
            table.setflags(write=False)
        self._transitions: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._distance_vectors: dict[Configuration, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.configs)

    def transitions(self, request: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, costs)``, both ``(k, |configs|)``: replacing slot j
        of configuration i by ``request`` gives configuration
        ``targets[j, i]`` at cost ``costs[j, i]``.  Configurations that
        already hold the request point at themselves at zero cost."""
        cached = self._transitions.get(request)
        if cached is not None:
            return cached
        self.metric.check_point(request)
        bit = self._bit[request]
        swapped = (self._masks ^ self._bit[self.slots]) | bit
        targets = self._rank_of_mask[swapped].astype(np.intp)
        costs = self.metric.matrix[request][self.slots]
        covered = np.flatnonzero(self._masks & bit)
        targets[:, covered] = covered
        costs[:, covered] = 0
        targets.setflags(write=False)
        costs.setflags(write=False)
        self._transitions[request] = (targets, costs)
        return targets, costs

    def distance_vector(self, origin: Configuration) -> np.ndarray:
        """Matching distance from ``origin`` to every configuration.

        A DP over subsets of the origin's points: slots 0..j-1 of every
        configuration are matched to each subset of j origin points at
        least cost, and slot j then takes each unused origin point in turn.
        k * 2^(k-1) vector steps give the exact minimum over bijections.
        """
        cached = self._distance_vectors.get(origin)
        if cached is not None:
            return cached
        rows = self.metric.matrix[list(origin)]
        layer = {0: np.zeros(len(self.configs), dtype=np.int64)}
        for slot in self.slots:
            step = rows[:, slot]
            grown: dict[int, np.ndarray] = {}
            for used, values in layer.items():
                for a in range(self.k):
                    if used >> a & 1:
                        continue
                    candidate = values + step[a]
                    best = grown.setdefault(used | 1 << a, candidate)
                    if best is not candidate:
                        np.minimum(best, candidate, out=best)
            layer = grown
        (values,) = layer.values()
        values.setflags(write=False)
        self._distance_vectors[origin] = values
        return values


@lru_cache(maxsize=128)
def configuration_space(metric: MetricSpace, k: int) -> ConfigurationSpace:
    return ConfigurationSpace(metric, k)


@dataclass(frozen=True, eq=False)
class WorkVector:
    """Work function values over every configuration of a space.

    Immutable; updates return fresh vectors so histories from different
    request sequences can be compared entry by entry.
    """

    space: ConfigurationSpace
    origin: Configuration
    served_count: int
    values: np.ndarray

    def value(self, config) -> int:
        key = tuple(config)
        idx = self.space.index.get(key)
        if idx is None:
            raise InputError(f"{key} is not a configuration of this space")
        return int(self.values[idx])

    def argmin_config(self) -> Configuration:
        """Minimizing configuration, smallest rank on ties."""
        return self.space.configs[int(np.argmin(self.values))]

    def shifted(self, offset: int) -> "WorkVector":
        """Pointwise addition of a constant, for offset-invariance checks."""
        values = self.values + np.int64(offset)
        values.setflags(write=False)
        return WorkVector(self.space, self.origin, self.served_count, values)

    def to_pairs(self) -> list[tuple[Configuration, int]]:
        return [(cfg, int(v)) for cfg, v in zip(self.space.configs, self.values)]


def initial_work_vector(metric: MetricSpace, initial) -> WorkVector:
    """Vector before any request: matching distance from the start."""
    origin = canonical_configuration(initial, metric.n)
    space = configuration_space(metric, len(origin))
    return WorkVector(space, origin, 0, space.distance_vector(origin))


def update_work_vector(vector: WorkVector, request: int) -> WorkVector:
    """Fold one request into a work vector, returning a new vector."""
    targets, costs = vector.space.transitions(request)
    values = vector.values[targets]
    values += costs
    values = values.min(axis=0)
    values.setflags(write=False)
    return WorkVector(vector.space, vector.origin, vector.served_count + 1, values)


def final_work_vector(inst: Instance) -> WorkVector:
    vector = initial_work_vector(inst.metric, inst.initial)
    for request in inst.requests:
        vector = update_work_vector(vector, request)
    return vector


@dataclass(frozen=True)
class WfaDecision:
    """Chosen move: server position, its cost, the resulting configuration."""

    mover: int
    cost: int
    config: Configuration


def wfa_decide(vector: WorkVector, config, request: int) -> WfaDecision:
    """Decide the move for one request from the pre-update work vector.

    Covered requests get the empty move.  Otherwise the server position
    with the minimal updated-value-plus-distance score moves; ties go to
    the smallest position identifier.  The decision depends only on the
    configuration, the request and the vector's entries, and is unchanged
    when a constant is added to every entry.
    """
    cfg = tuple(config)
    if cfg not in vector.space.index:
        raise InputError(f"{cfg} is not a configuration of this space")
    vector.space.metric.check_point(request)
    if request in cfg:
        return WfaDecision(request, 0, cfg)
    dist = vector.space.metric.dist
    values = vector.values
    index = vector.space.index
    best_score = None
    best = None
    for j, x in enumerate(cfg):
        swapped = tuple(sorted(cfg[:j] + cfg[j + 1 :] + (request,)))
        score = int(values[index[swapped]]) + dist[x][request]
        if best_score is None or score < best_score:
            best_score = score
            best = (x, dist[x][request], swapped)
    return WfaDecision(*best)


def run_wfa(inst: Instance) -> ExecutionTrace:
    """Serve a whole instance with the work function algorithm.

    Lazy by construction: at most one server moves per round and it ends
    on the request.
    """
    start = ExecutionTrace(inst.initial, (), 0)
    trace, _ = continue_wfa(start, initial_work_vector(inst.metric, inst.initial), inst.requests)
    return trace


def continue_wfa(
    trace: ExecutionTrace, vector: WorkVector, requests
) -> tuple[ExecutionTrace, WorkVector]:
    """Serve further requests after a run that ended with ``trace`` and the
    work vector ``vector`` of its served prefix.

    Returns the extended trace and the work vector after the last request,
    exactly what a run over the whole sequence from the start would give.
    """
    vectors = itertools.accumulate(requests, update_work_vector, initial=vector)
    trace = extend_wfa(trace, vectors, requests)
    return trace, next(vectors)


def extend_wfa(trace: ExecutionTrace, vectors, requests) -> ExecutionTrace:
    """Append one online round per request to ``trace``, deciding each from
    the matching item of ``vectors``: the work vector before that request.
    A stored history will do, or a lazy iterator, which is left holding the
    vector after the last request (``zip`` stops on ``requests`` first).
    """
    config = trace.config_after(len(trace.rounds))
    rounds = []
    total = trace.total_cost
    for request, vector in zip(requests, vectors):
        decision = wfa_decide(vector, config, request)
        moves = ()
        if decision.mover != request:
            moves = (Move(decision.mover, request, decision.cost),)
            total += decision.cost
        rounds.append(Round(request, moves, decision.config))
        config = decision.config
    return ExecutionTrace(trace.initial, trace.rounds + tuple(rounds), total)


def d_equivalence(first: WorkVector, second: WorkVector) -> int | None:
    """The constant by which two vectors differ everywhere, if one exists."""
    if (first.space.metric, first.space.k) != (second.space.metric, second.space.k):
        raise InputError("work vectors live on different configuration spaces")
    diff = first.values - second.values
    offset = int(diff[0])
    if np.all(diff == offset):
        return offset
    return None


def work_vector_to_json(vector: WorkVector) -> list:
    """Rank-ordered (configuration, value) pairs for goldens and debugging."""
    return [[list(cfg), value] for cfg, value in vector.to_pairs()]
