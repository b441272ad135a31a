"""Work vectors and the work function algorithm.

The work function value of a configuration X after a served prefix is the
cheapest way to serve that prefix from the start configuration and end up
exactly in X.  Vectors are stored densely over all C(n, k) configurations,
indexed by the configuration's position in the lexicographic enumeration
(its combinatorial rank), which keeps updates, offset comparisons and
Lipschitz sweeps to single numpy passes.

Folding in a request r replaces each entry by

    min over z in X of  value((X minus z) plus r) + dist(r, z)

where replacements that would collapse the configuration (r already
elsewhere in X) are skipped; for X containing r the surviving z = r term
leaves the entry unchanged.  So a request's transition tables cover only
the C(n-1, k) configurations that miss r.  With the other points numbered
0..n-2 in order, those are the k-subsets of n - 1 points and the ones
holding r are its (k-1)-subsets plus r, both in rank order, so one swap
table over that (n-1)-point lattice serves every request: slot j of the
c-th configuration missing r swaps to the configuration holding r at
position ``swaps[j, c]``.  An update copies the vector, gathers the
entries holding r and then gathers those through the swap table, adds
the move costs and writes the minimum across the k slots into the
entries that miss r; a decision is the same gather at one configuration.
The decision rule moves the server x of the current configuration
minimizing value((X minus x) plus r) + dist(x, r), breaking ties toward
the smallest point identifier, and makes the empty move when the request
is already covered.

Entries and costs are int16 where the space's metric allows it, else
int64 (see ``ConfigurationSpace``).  An update whose result passes the
space's ceiling widens that result to int64, so no int16 sum wraps
whatever the number of requests (``update_work_vector`` has the proof).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .execution import ExecutionTrace, Move, Round
from .metric import (
    INT64_MAX,
    Configuration,
    InputError,
    Instance,
    MetricSpace,
    canonical_configuration,
    check_int64_bound,
    check_point,
    matching_cost,  # unused here; the benchmark tracer counts matchings through this name
    subset_lattice,
)

INT16_MAX = int(np.iinfo(np.int16).max)


class Transitions(NamedTuple):
    """One request's transition tables: a configuration holding the request
    keeps its work value, so only the configurations that miss it have a
    column.  Every array is read-only.

    ``uncovered`` holds the C(n-1, k) ranks of the configurations that miss
    the request and ``covered`` the C(n-1, k-1) ranks of those that hold
    it, each in increasing order (intp).  Replacing slot j of configuration
    ``uncovered[c]`` by the request gives configuration
    ``covered[space.swaps[j, c]]`` at cost ``costs[j, c]``, a C-contiguous
    ``(k, C(n-1, k))`` table in the space's dtype.  ``column`` maps every
    rank to its column, or -1 where the configuration holds the request.
    The map is int32, half the bytes of intp: it is read one rank at a
    time, or gathered at a few hundred ranks, so no large gather pays its
    cast.
    """

    covered: np.ndarray
    costs: np.ndarray
    uncovered: np.ndarray
    column: np.ndarray


class ConfigurationSpace:
    """All k-point configurations of a metric space in lexicographic order.

    Tables are slot-major: ``slots[j]`` holds the j-th smallest point of
    every configuration.  It, the masks and the rank table that look up
    one configuration (``rank(config)`` and ``config(rank)``) and
    ``swaps`` come from ``metric.subset_lattice``, in the order of
    ``itertools.combinations(range(n), k)``.  ``swaps``, request 0's swap
    table, serves every request (see the module docstring), and a
    request's tables (see ``Transitions``) are then its covered and
    uncovered ranks and one gather of its distance row over the other
    points at the lattice's slot points; the uint8 slot points are cast
    once per build.  Swaps stay intp, since int32 or uint16
    indices are cast on every gather: an update at (16, 6) took 0.11-0.14
    ms with them against 0.064-0.070 ms (timeit, best of 7, shared 2-vCPU
    x86-64 VM).  The rank -> column map, which no update gathers through,
    is int32.

    Work vectors and costs share one dtype, ``dtype``, so that no addition
    casts: int16 if its maximum is at least ``2 * (k + 1) * largest``,
    else int64.  ``ceiling`` is int16's maximum less ``(k + 1) *
    largest``; an update whose result has its rank-0 entry above it
    widens that result to int64 (see ``update_work_vector``).  An int64
    space's ceiling is int64's maximum: the int64 refusals of ``metric``
    bound its values.  Narrow rows and costs together make the fold
    faster, and narrow costs alone make it slower: the array work of one
    update at (12, 4), (16, 6) and (15, 8) took 4.3, 41 and 32 us in
    int16, 4.9, 53 and 40 us in int64, and 5.8, 60 and 46 us with int64
    rows and int16 costs (timeit, best of 7 interleaved, shared 2-vCPU
    x86-64 VM).  Distance vectors are in the same dtype, and cached ones
    from fixed origins serve initial vectors and C2.
    """

    def __init__(self, metric: MetricSpace, k: int):
        n = metric.n
        if not 1 <= k <= n:
            raise InputError(f"k={k} out of range for n={n}")
        # an int64 space's distance vectors add up to k distances
        check_int64_bound(f"k={k}", k, metric.largest)
        self.metric = metric
        self.k = k
        self._masks, self._rank_of_mask, self.slots, self.swaps, self._lattice = subset_lattice(n, k)
        span = (k + 1) * metric.largest
        narrow = 2 * span <= INT16_MAX
        self.dtype = np.int16 if narrow else np.int64
        self.ceiling = INT16_MAX - span if narrow else INT64_MAX
        # each point's distance row over the other points
        self._rows = metric.matrix[~np.eye(n, dtype=bool)].reshape(n, n - 1).astype(self.dtype)
        self._rows.setflags(write=False)
        self._transitions: dict[int, Transitions] = {}
        self._distance_vectors: dict[Configuration, np.ndarray] = {}

    def __len__(self) -> int:
        return self.slots.shape[1]

    def rank(self, config) -> int:
        """The rank of ``config``, a sorted tuple of k distinct points;
        anything else raises ``InputError``."""
        key = tuple(config)
        n = self.metric.n
        mask = 0
        last = -1
        try:
            for p in map(operator.index, key):
                if not last < p < n:
                    break
                mask |= 1 << (n - 1 - p)
                last = p
            else:
                if len(key) == self.k:
                    return int(self._rank_of_mask[mask])
        except TypeError:  # not an integer point
            pass
        raise InputError(f"{key} is not a configuration of this space")

    def config(self, rank: int) -> Configuration:
        """The configuration of ``rank``, as a tuple of Python ints."""
        return tuple(self.slots[:, rank].tolist())

    def transitions(self, request: int) -> Transitions:
        """The request's transition tables over the configurations that
        miss it; see ``Transitions``."""
        # only an int is looked up unchecked: True, 1.0 and np.int64(1) hash
        # like 1, and a cached key is a point of the space
        cached = self._transitions.get(request) if type(request) is int else None
        if cached is None:
            request = check_point(request, self.metric.n)
            cached = self._transitions.get(request)
        if cached is not None:
            return cached
        # request is a Python int here: under numpy 2, 1 << np.uint8(9) is 0
        held = (self._masks & 1 << (self.metric.n - 1 - request)) != 0
        covered = np.flatnonzero(held)
        uncovered = np.flatnonzero(~held)
        column = np.full(len(self), -1, dtype=np.int32)
        column[uncovered] = np.arange(uncovered.size, dtype=np.int32)
        # lattice point q is the q-th point other than the request
        costs = self._rows[request].take(self._lattice)
        tables = Transitions(covered, costs, uncovered, column)
        for table in tables:
            table.setflags(write=False)
        self._transitions[request] = tables
        return tables

    def distance_vector(self, origin: Configuration) -> np.ndarray:
        """Matching distance from ``origin`` to every configuration, in the
        space's dtype.

        Starting from 0 at the origin and the dtype's maximum, the mark of
        an unreached entry, elsewhere, one work-vector update per origin
        point p, over p's transition tables, lets p's server stay or move
        once.  That reaches every configuration X, at least at the cost of
        the bijections that keep each origin point of X in place and send
        the rest of the origin to the rest of X.  On a metric one of those
        is a minimum matching (the pinning lemma at
        ``offline._final_relocation``), and every value is some bijection's
        cost, so the result is exact.  An unreached entry is never added
        to, and a reached one only while origin points remain, at most
        k - 1 times the largest distance: one more distance stays below the
        mark (int16 by the space's choice, int64 by its int64 bound), so no
        sum wraps and no reached entry is taken for unreached.  The tables
        are the ones an anchor over the origin folds with, so ``verify``
        builds none for its start's vector.
        """
        cached = self._distance_vectors.get(origin)
        if cached is not None:
            return cached
        unreached = np.iinfo(self.dtype).max
        values = np.full(len(self), unreached, dtype=self.dtype)
        values[self.rank(origin)] = 0
        for p in origin:
            covered, costs, uncovered, _ = self.transitions(p)
            moved = values[covered][self.swaps]
            np.add(moved, costs, out=moved, where=moved != unreached)
            values[uncovered] = moved.min(axis=0)
        values.setflags(write=False)
        self._distance_vectors[origin] = values
        return values


# One space at a time: the generator, ``verify``, ``measure_strict_ratio``
# and ``kserver run`` all ask for one instance's (metric, k), and each
# campaign instance draws a new metric, so an older space is never asked
# for again while it holds tens of MB of tables at n = 16.
@lru_cache(maxsize=1)
def configuration_space(metric: MetricSpace, k: int) -> ConfigurationSpace:
    return ConfigurationSpace(metric, k)


@dataclass(frozen=True, eq=False)
class WorkVector:
    """Work function values over every configuration of a space, in rank
    order: a space and one read-only entry per configuration, in the
    space's dtype or, once a fold has passed the space's ceiling, int64.

    Immutable; updates return fresh vectors so histories from different
    request sequences can be compared entry by entry.
    """

    space: ConfigurationSpace
    values: np.ndarray

    def value(self, config) -> int:
        return int(self.values[self.space.rank(config)])


@dataclass(frozen=True, eq=False)
class History:
    """The work vectors after each prefix of a request sequence, stored as
    a tuple of rows: the read-only value arrays of the vectors, one per
    stored vector, shared with the vectors themselves and with any history
    that extends this one rather than copied.  A row is in the space's
    dtype, or int64 from the first fold that passed the space's ceiling.

    A sequence of ``base_len`` requests followed by whole cycles over the
    k start points (an anchor) may be folded only until a row equals the
    row k before it, at row ``periodic_from`` + k: updates are
    deterministic and the requests repeat with period k, so from row
    ``periodic_from`` on the vectors repeat with period k, and later rows
    are read from the last k stored ones.  The period may start inside a
    cycle.  Otherwise every row is stored and ``periodic_from`` is
    ``len(rows)``.  ``len``, indexing and iteration keep the nominal
    meaning: ``len(history)`` is T + 1, and ``history[t]`` is the vector
    after t of the T requests.  Row 0 is the vector the fold started from,
    which may follow earlier requests (a repeated block's starts where the
    last block ended).
    """

    space: ConfigurationSpace
    rows: tuple[np.ndarray, ...]
    length: int
    base_len: int
    periodic_from: int

    def starts_periodic_cycle(self, t: int) -> bool:
        """Whether an anchor cycle starts after t requests inside the
        periodic rows, where every cycle is served from the same vectors."""
        return t >= self.periodic_from and (t - self.base_len) % self.space.k == 0

    def values(self, t: int) -> np.ndarray:
        """Entries of the vector after t requests, 0 <= t <= T."""
        p = self.periodic_from
        return self.rows[t if t < p else p + (t - p) % self.space.k]

    def __len__(self) -> int:
        return self.length + 1

    def __getitem__(self, t: int) -> "WorkVector":
        row = t + len(self) if t < 0 else t
        if not 0 <= row < len(self):
            raise IndexError(f"history index {t} out of range for {len(self)} vectors")
        return WorkVector(self.space, self.values(row))

    def __iter__(self):
        return (self[t] for t in range(len(self)))


def initial_work_vector(metric: MetricSpace, initial) -> WorkVector:
    """Vector before any request: the cached matching distance from the
    start."""
    origin = canonical_configuration(initial, metric.n)
    space = configuration_space(metric, len(origin))
    return WorkVector(space, space.distance_vector(origin))


def update_work_vector(vector: WorkVector, request: int) -> WorkVector:
    """Fold one request into a work vector, returning a new vector.

    Entries of configurations that hold the request are copied; the
    others take the minimum over their transition table's k slots, in the
    vector's dtype.  An int16 result whose rank-0 entry, the reference,
    is above ``space.ceiling`` is widened to int64, and so is every
    vector folded from it.

    No int16 sum wraps.  Let L be the largest distance and M int16's
    maximum, so ``ceiling = M - (k + 1) L`` and ``2 (k + 1) L <= M``.
    Work function values are at least 0 and 1-Lipschitz in the matching
    distance (Koutsoupias and Papadimitriou 1995): |w(X) - w(Y)| <=
    d(X, Y) <= k L.  An int16 vector's reference is at most the ceiling:
    the initial one is a distance, at most k L <= ceiling, and a result
    above it is widened.  So every int16 entry lies in [0, ceiling + k L],
    and the fold, a decision or a backtrack adds one move cost to it, at
    most ceiling + (k + 1) L = M.  Int64 vectors are bounded by the int64
    refusals of ``metric``.
    """
    space = vector.space
    covered, costs, uncovered, _ = space.transitions(request)
    moved = vector.values[covered][space.swaps]
    moved += costs
    values = vector.values.copy()
    values[uncovered] = moved.min(axis=0)
    if values.item(0) > space.ceiling and values.dtype != np.int64:
        values = values.astype(np.int64)
    values.setflags(write=False)
    return WorkVector(space, values)


def final_work_vector(inst: Instance) -> WorkVector:
    vector = initial_work_vector(inst.metric, inst.initial)
    for request in inst.requests:
        vector = update_work_vector(vector, request)
    return vector


def wfa_ranks(
    space: ConfigurationSpace, vectors, requests, rank: int, trail=None
) -> tuple[int, int, int]:
    """The work function algorithm's run on ranks: ``(end rank, cost of the
    base, total cost)``, the base being the first ``base_len`` rounds of a
    ``History`` and every round otherwise.

    From the configuration of ``rank``, each request is decided from the
    matching item of ``vectors``, the entries before it: a ``History``, or
    an iterable of value arrays.  A covered request leaves the rank as it
    is.  Otherwise the server of the least entry plus move cost moves to
    the request, ties to the first slot, which holds the smallest point
    identifier: at column ``col`` of the request's tables, the rank
    becomes ``covered[swaps[slot, col]]`` for that slot.  The decision
    depends only on the configuration, the request and the entries, and
    is unchanged when a constant is added to every entry.  A list
    ``trail`` gets the rank after each round appended.

    On a ``History`` whose anchor repeats, the run stops as soon as its
    rank repeats across an anchor cycle of the periodic rows: the same
    rank, vectors and requests give the same decisions, so every cycle
    left, up to the end of the anchor, costs what the last one did, and
    ``trail`` is filled in with the last cycle's ranks.  Such a stop comes
    a cycle after the base at the earliest.
    """
    history = vectors if isinstance(vectors, History) else None
    base_len = None
    if history is not None:
        vectors = map(history.values, range(len(history)))
        base_len = history.base_len
    swaps = space.swaps
    total = 0
    at_base = None
    mark = None  # (rank, total) at the previous cycle start
    for i, (request, values) in enumerate(zip(requests, vectors)):
        if i == base_len:
            at_base = total
        if history is not None and history.starts_periodic_cycle(i):
            if mark is not None and mark[0] == rank:
                repeats = (len(requests) - i) // space.k
                total += (total - mark[1]) * repeats
                if trail is not None:
                    trail += trail[-space.k :] * repeats
                break
            mark = (rank, total)
        covered, costs, _, column = space.transitions(request)
        col = column[rank]
        if col >= 0:  # uncovered
            moves = covered[swaps[:, col]]
            slot = (values[moves] + costs[:, col]).argmin()
            total += int(costs[slot, col])
            rank = int(moves[slot])
        if trail is not None:
            trail.append(rank)
    return rank, (total if at_base is None else at_base), total


def wfa_cost(inst: Instance, trail=None) -> tuple[int, WorkVector]:
    """The work function algorithm's cost on ``inst``, by ``wfa_ranks`` over
    vectors folded as the run goes and not stored, and the final vector;
    ``trail`` is passed on."""
    initial = initial_work_vector(inst.metric, inst.initial)
    space = initial.space
    vectors = itertools.accumulate(inst.requests, update_work_vector, initial=initial)
    rows = (vector.values for vector in vectors)
    _, _, total = wfa_ranks(space, rows, inst.requests, space.rank(inst.initial), trail=trail)
    # zip pulls a request first, so the final vector is left unread
    return total, next(vectors)


def run_wfa(inst: Instance) -> ExecutionTrace:
    """Serve a whole instance with the work function algorithm: the run of
    ``wfa_cost``, with each round built from the ranks before and after
    it.  An unchanged rank is a covered request and no move.  Otherwise
    the one point of the old configuration missing from the new one moved
    to the request, at its distance; every field is a Python int.  Lazy by
    construction: at most one server moves per round and it ends on the
    request.
    """
    space = configuration_space(inst.metric, inst.k)
    trail = [space.rank(inst.initial)]
    total, _ = wfa_cost(inst, trail)
    dist = inst.metric.dist
    rounds = []
    old = inst.initial
    for request, before, after in zip(inst.requests, trail, trail[1:]):
        new = space.config(after)
        moves = ()
        if after != before:
            (mover,) = set(old) - set(new)
            moves = (Move(mover, request, dist[mover][request]),)
        rounds.append(Round(request, moves, new))
        old = new
    return ExecutionTrace(inst.initial, tuple(rounds), total)
