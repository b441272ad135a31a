"""Finite metric spaces, server configurations and matching distances.

Distances are exact nonnegative integers throughout.  The testbed checks
exact equalities, so nothing here ever goes through floating point.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

# lean module first; see Instance.fingerprint for why not hashlib
try:
    from _sha256 import sha256  # CPython 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256

MIN_POINTS = 2
MAX_POINTS = 16
INT64_MAX = int(np.iinfo(np.int64).max)

Configuration = tuple[int, ...]


class InputError(ValueError):
    """Structurally invalid input, distinct from a failed metric axiom."""


def check_integer(name: str, value, minimum: int) -> int:
    """Return ``value`` if it is an ``int`` (not a ``bool``) >= ``minimum``.

    ``minimum`` is 1 ("positive") or 0 ("nonnegative").  Any other value
    raises :class:`InputError` naming the parameter.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise InputError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def check_seed(seed) -> int:
    """Return ``seed`` if it is an ``int`` (not a ``bool``) in [0, 2^64).

    SplitMix64 keeps a seed's low 64 bits, so 2^64 would draw what 0
    draws and -1 what 2^64 - 1 draws; any other value raises
    :class:`InputError` naming the seed.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 64:
        raise InputError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return seed


def check_fields(data, kind: str, document: str, required: set, optional=()) -> None:
    """Refuse ``data`` unless it is an object holding every ``required``
    field and no field outside ``required`` and ``optional``.

    ``kind`` names the fields in the message and ``kind document`` the
    object, e.g. "missing campaign fields" of a "campaign config".
    """
    if not isinstance(data, dict):
        raise InputError(f"{kind} {document} must be an object, got {type(data).__name__}")
    missing = required - data.keys()
    if missing:
        raise InputError(f"missing {kind} fields: {sorted(missing)}")
    unknown = data.keys() - {*required, *optional}
    if unknown:
        raise InputError(f"unknown {kind} fields: {sorted(unknown)}")


def check_int64_bound(count: str, factor: int, largest: int) -> None:
    """Refuse when ``factor`` times the largest distance exceeds int64.

    Work values are sums of distances: after t requests every entry is at
    most (t + k) times the largest distance, so this bounds every value a
    fold can reach.  ``count`` names the factor in the message.
    """
    if factor * largest > INT64_MAX:
        raise InputError(
            f"{count} times the largest distance {largest} exceeds the "
            f"int64 bound {INT64_MAX}"
        )


def check_work_bound(metric: MetricSpace, k: int, t: int) -> None:
    """Refuse a sequence of ``t`` requests whose work values may pass int64."""
    check_int64_bound(f"{t} requests + k={k}", t + k, metric.largest)


@dataclass(frozen=True)
class AxiomViolation:
    """One failed metric axiom with a witnessing index tuple."""

    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class MetricValidation:
    ok: bool
    violations: tuple[AxiomViolation, ...]


def validate_metric(dist: Sequence[Sequence[int]]) -> MetricValidation:
    """Check the three metric axioms on a square integer matrix.

    Structural problems (not a list of rows, non-square shape, non-integer
    or negative entries) raise :class:`InputError`; axiom failures are
    reported in the result, one violation per witnessing index tuple.
    Axiom names: ``identity`` (zero diagonal, positive off-diagonal),
    ``symmetry``, ``triangle``.
    """
    if not _is_list(dist):
        raise InputError(f"distance matrix must be a list of rows, got {dist!r}")
    n = len(dist)
    if n == 0:
        raise InputError("distance matrix is empty")
    for i, row in enumerate(dist):
        if not _is_list(row):
            raise InputError(f"row {i} of the distance matrix is not a list: {row!r}")
        if len(row) != n:
            raise InputError(f"row {i} has length {len(row)}, expected {n}")
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, np.integer)):
                raise InputError(f"entry ({i},{j}) is not an integer: {entry!r}")
            if entry < 0:
                raise InputError(f"entry ({i},{j}) is negative: {entry}")

    violations: list[AxiomViolation] = []
    for i in range(n):
        if dist[i][i] != 0:
            violations.append(AxiomViolation("identity", (i, i)))
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] == 0 or dist[j][i] == 0:
                violations.append(AxiomViolation("identity", (i, j)))
            if dist[i][j] != dist[j][i]:
                violations.append(AxiomViolation("symmetry", (i, j)))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for mid in range(n):
                if mid == i or mid == j:
                    continue
                if dist[i][j] > dist[i][mid] + dist[mid][j]:
                    violations.append(AxiomViolation("triangle", (i, j, mid)))
    return MetricValidation(not violations, tuple(violations))


def _is_list(value) -> bool:
    """A JSON array, or its Python and numpy counterparts."""
    return isinstance(value, (list, tuple, np.ndarray))


@dataclass(frozen=True)
class MetricSpace:
    """Finite metric on points 0..n-1 with an exact integer distance matrix.

    Immutable after construction; safe to share across threads.  Build
    through :meth:`from_matrix` to get validation, or trust the caller
    (the generators construct directly because closure guarantees the
    axioms).
    """

    dist: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.dist)

    @classmethod
    def from_matrix(
        cls, matrix: Sequence[Sequence[int]], labels: Sequence[str] | None = None
    ) -> "MetricSpace":
        result = validate_metric(matrix)
        if not result.ok:
            parts = ", ".join(f"{v.axiom} at {v.witness}" for v in result.violations[:5])
            raise InputError(f"matrix violates metric axioms: {parts}")
        n = len(matrix)
        if not MIN_POINTS <= n <= MAX_POINTS:
            raise InputError(f"point count {n} outside supported range [{MIN_POINTS}, {MAX_POINTS}]")
        if labels is not None and not _is_list(labels):
            raise InputError(f"labels must be a list, got {labels!r}")
        if labels is not None and len(labels) != n:
            raise InputError(f"{len(labels)} labels for {n} points")
        if labels is not None and not all(isinstance(label, str) for label in labels):
            raise InputError(f"labels must be strings, got {labels!r}")
        if labels is not None and len(set(labels)) != n:
            repeated = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise InputError(f"duplicate label {repeated!r}")
        rows = tuple(tuple(int(x) for x in row) for row in matrix)
        return cls(rows, tuple(labels) if labels is not None else None)

    @cached_property
    def matrix(self) -> np.ndarray:
        arr = np.asarray(self.dist, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def largest(self) -> int:
        return max(map(max, self.dist))


def check_point(p, n: int | None = None) -> int:
    """``p`` as an ``int`` if it is an integer (not a bool), and in
    [0, n) when ``n`` is given; otherwise :class:`InputError`."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise InputError(f"point identifier must be an integer, got {p!r}")
    if n is not None and not 0 <= p < n:
        raise InputError(f"point {p} out of range [0, {n})")
    return int(p)


def canonical_configuration(points: Iterable[int], n: int) -> Configuration:
    """Sorted tuple of distinct point identifiers in [0, n); the canonical
    encoding."""
    pts = [check_point(p) for p in points]
    if len(set(pts)) != len(pts):
        raise InputError(f"configuration has repeated points: {pts}")
    for p in pts:
        if not 0 <= p < n:
            check_point(p, n)  # raises, naming the point
    if not pts:
        raise InputError("configuration is empty")
    return tuple(sorted(pts))


def _pair_table(sources: Sequence[int], targets: Sequence[int], metric: MetricSpace) -> np.ndarray:
    """``table[i, j]``, the distance from source i to target j, as Python
    integers (object dtype), so that no sum of them wraps or rounds."""
    if len(sources) != len(targets):
        raise InputError(f"matching sides differ: {len(sources)} vs {len(targets)}")
    rows = [[metric.dist[s][t] for t in targets] for s in sources]
    return np.array(rows, dtype=object).reshape(len(rows), len(rows))


def matching_cost(sources: Sequence[int], targets: Sequence[int], metric: MetricSpace) -> int:
    """Minimum total distance of a bijection sources -> targets.

    Accepts repeated points on either side (server positions may stack
    mid-execution).  One column of :func:`matching_costs` over the pair
    table in Python integers, so exact at any size of distance.
    """
    table = _pair_table(sources, targets, metric)
    index = np.arange(len(table))[:, None]
    return matching_costs(table, index, index)[0]


def matching_assignment(
    sources: Sequence[int], targets: Sequence[int], metric: MetricSpace
) -> tuple[int, ...]:
    """A minimum-weight bijection, returned as the target matched per source.

    Among minimal bijections the one whose sequence of target positions is
    lexicographically first is returned, for every k, which makes
    downstream trace extraction deterministic: each source in turn takes
    the smallest unused target index that still reaches the minimum.  It
    reads the layers of :func:`matching_costs`' DP run with the sides
    swapped and the sources last-first: layer k - i holds, per subset of
    the targets, the least cost of matching sources i..k-1 to it.
    """
    table = _pair_table(sources, targets, metric).T
    k = len(table)
    index = np.arange(k)[:, None]
    layers = [layer[:, 0].tolist() for layer in _matching_layers(table, index, index[::-1])]
    picked = []
    subset = 0  # index of the targets left in layer k - i
    for i, (before, member) in enumerate(reversed(_subset_layers(k))):
        value, below, row = layers[k - i][subset], layers[k - i - 1], table[:, i]
        subset, j = next(
            (rest, j) for rest, j in zip(before[:, subset].tolist(), member[:, subset].tolist())
            if below[rest] + row[j] == value
        )
        picked.append(targets[j])
    return tuple(picked)


def matching_costs(matrix: np.ndarray, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimum total distance of a bijection from column i of ``sources`` to
    column i of ``targets``, for every column at once, in ``matrix``'s dtype.

    ``targets`` is a ``(k, N)`` table of points and ``sources`` a ``(k, N)``
    or ``(k, 1)`` one (a single origin for every column); points may repeat
    on either side.  A DP over subsets of the source rows, one layer per
    target row: layer j holds, for each j-subset of the sources, the least
    cost of matching target rows 0..j-1 to it, and a (j+1)-subset takes
    the least over its members a of layer j at the subset without a plus
    a's distance to target row j.  The members are taken slot by slot
    (``_subset_layers``), so a layer costs one gather of the previous
    layer, one of the step and one ``np.minimum`` per slot: k(k+1)/2
    slots in all, over the k * 2^(k-1) terms of the subset recurrence.
    Every partial sum is at most k times the largest distance, which the
    caller's dtype must hold; an object matrix of Python integers, as
    :func:`matching_cost` and :func:`matching_assignment` pass, holds any.
    """
    return _matching_layers(matrix, sources, targets)[-1][0]


def _matching_layers(
    matrix: np.ndarray, sources: np.ndarray, targets: np.ndarray
) -> list[np.ndarray]:
    """Every layer of :func:`matching_costs`' DP, layer 0 to layer k, each a
    ``(C(k, j), N)`` table in ``matrix``'s dtype."""
    k, width = targets.shape
    layers = [np.zeros((1, width), dtype=matrix.dtype)]
    for target, (before, member) in zip(targets, _subset_layers(k)):
        step = matrix[sources, target]
        grown = None
        for subsets, sources_at in zip(before, member):
            candidate = layers[-1].take(subsets, axis=0)
            candidate += step.take(sources_at, axis=0)
            if grown is None:
                grown = candidate
            else:
                np.minimum(grown, candidate, out=grown)
        layers.append(grown)
    return layers


def subset_lattice(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The k-subsets of range(n) in rank order, that of ``itertools.combinations``,
    as the read-only tables ``(masks, rank_of_mask, slots, swaps, lattice)``.

    With point p on bit n - 1 - p, rank order is decreasing mask order,
    and the highest set bit is the smallest point, so the masks of
    popcount k are taken in decreasing order, ``masks``, and their highest
    bits peeled k times into ``slots``, the C-contiguous uint8
    ``(k, C(n, k))`` table of each subset's points in increasing order.
    ``rank_of_mask``, 2^n int32 entries, maps a mask back to its rank.
    The subsets that miss point 0 rank last: numbered p -> p - 1, they are
    the k-subsets of n - 1 points, the lattice, with slot points
    ``lattice`` (uint8).  Those that hold point 0 rank first, the
    lattice's (k-1)-subsets plus point 0, so ``swaps[j, c]``, read off the
    rank table as the slots are peeled, is the rank among the
    (k-1)-subsets of lattice subset c without its slot-j point, an intp
    ``(k, C(n-1, k))`` table.  No Python object is made per subset.
    """
    # popcount and highest set bit of every n-bit mask, by doubling
    popcount = np.zeros(1 << n, dtype=np.uint8)
    highest = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        popcount[1 << b : 2 << b] = popcount[: 1 << b] + 1
        highest[1 << b : 2 << b] = b
    masks = np.flatnonzero(popcount == k)[::-1]  # decreasing: rank order
    rank_of_mask = np.full(1 << n, -1, dtype=np.int32)
    rank_of_mask[masks] = np.arange(masks.size, dtype=np.int32)
    split = masks.size - math.comb(n - 1, k)
    lattice_masks = masks[split:]
    slots = np.empty((k, masks.size), dtype=np.uint8)
    swaps = np.empty((k, lattice_masks.size), dtype=np.intp)
    rest = masks
    for j in range(k):
        high = highest[rest]
        np.subtract(n - 1, high, out=slots[j])
        bit = np.left_shift(1, high, dtype=np.intp)
        # slot j's point swapped for point 0
        swapped = (lattice_masks ^ bit[split:]) | 1 << (n - 1)
        swaps[j] = rank_of_mask[swapped]
        rest = rest ^ bit
    lattice = slots[:, split:] - 1
    tables = (masks, rank_of_mask, slots, swaps, lattice)
    for table in tables:
        table.setflags(write=False)
    return tables


# unbounded: the scalar matchings ask for a few small k besides a space's k
@lru_cache(maxsize=None)
def _subset_layers(k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Index tables of ``matching_costs``' layers, one pair per layer j = 1..k.

    Layer j is the lattice of ``subset_lattice(k + 1, j)``, the j-subsets
    of range(k) in lexicographic order, and its pair that lattice's
    ``(swaps, lattice)``: ``before[m, s]`` is the index in layer j - 1 of
    subset s without ``member[m, s]``, its m-th smallest element, both
    ``(j, C(k, j))`` intp tables.
    """
    layers = []
    for j in range(1, k + 1):
        _, _, _, before, lattice = subset_lattice(k + 1, j)
        member = lattice.astype(np.intp)
        member.setflags(write=False)
        layers.append((before, member))
    return tuple(layers)


def min_pairwise_distance(config: Iterable[int], metric: MetricSpace) -> int:
    """Smallest distance between two distinct points of a configuration."""
    pts = canonical_configuration(config, metric.n)
    if len(pts) < 2:
        raise InputError("minimum pairwise distance needs at least two points")
    return min(
        metric.dist[a][b] for a, b in itertools.combinations(pts, 2)
    )


def random_metric(
    n: int, seed: int, weight_range: tuple[int, int] = (1, 9)
) -> MetricSpace:
    """Random integer metric: complete-graph weights, shortest-path closure.

    The closure forces the triangle inequality; weights >= 1 force
    positivity.  Deterministic per seed (weights are drawn for i < j in
    row-major order from a SplitMix64 stream).
    """
    from .rng import SplitMix64

    if not MIN_POINTS <= check_integer("point count", n, 1) <= MAX_POINTS:
        raise InputError(f"point count {n} outside supported range [{MIN_POINTS}, {MAX_POINTS}]")
    if (
        not _is_list(weight_range)
        or len(weight_range) != 2
        or any(isinstance(w, bool) or not isinstance(w, int) for w in weight_range)
        or not 1 <= weight_range[0] <= weight_range[1]
    ):
        raise InputError(f"weight range must be integers with 1 <= lo <= hi, got {weight_range}")
    lo, hi = weight_range
    stream = SplitMix64(check_seed(seed))
    weights = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            w = stream.randint(lo, hi)
            weights[i, j] = w
            weights[j, i] = w
    closed = weights.copy()
    for mid in range(n):
        closed = np.minimum(closed, closed[:, mid : mid + 1] + closed[mid : mid + 1, :])
    rows = tuple(tuple(int(x) for x in row) for row in closed)
    return MetricSpace(rows)


@dataclass(frozen=True)
class Instance:
    """A k-server instance: metric, server count, start, request sequence."""

    metric: MetricSpace
    k: int
    initial: Configuration
    requests: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.metric.n

    @classmethod
    def build(
        cls,
        metric: MetricSpace,
        k: int,
        initial: Iterable[int],
        requests: Iterable[int],
    ) -> "Instance":
        """Check every input: k in [1, n], k distinct initial points, each
        request a point (once, in order, naming the first bad one; numpy
        integers become ``int``), and the int64 bound of the work values."""
        check_integer("server count", k, 1)
        if k > metric.n:
            raise InputError(f"k exceeds n (k={k}, n={metric.n})")
        start = canonical_configuration(initial, metric.n)
        if len(start) != k:
            raise InputError(f"initial configuration has {len(start)} points, expected k={k}")
        n = metric.n
        reqs = tuple([check_point(p, n) for p in requests])
        check_work_bound(metric, k, len(reqs))
        return cls(metric, k, start, reqs)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "dist": [list(row) for row in self.metric.dist],
            "initial": list(self.initial),
            "requests": list(self.requests),
        }
        if self.metric.labels is not None:
            out["labels"] = list(self.metric.labels)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        required = {"n", "k", "dist", "initial", "requests"}
        check_fields(data, "instance", "document", required, {"labels"})
        for field in ("initial", "requests"):
            if not _is_list(data[field]):
                raise InputError(f"instance field {field!r} must be a list, got {data[field]!r}")
        metric = MetricSpace.from_matrix(data["dist"], data.get("labels"))
        if check_integer("n", data["n"], 1) != metric.n:
            raise InputError(f"declared n={data['n']} but matrix has {metric.n} rows")
        return cls.build(metric, data["k"], data["initial"], data["requests"])

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the instance's canonical JSON (sorted
        keys, no spaces).  Reports name their instance by it and C1b seeds
        its sample with it.  The module takes ``sha256`` from the
        interpreter's built-in module where there is one, as CPython's
        ``random`` does for ``_sha512``: ``hashlib`` would load OpenSSL
        into every process for this one hash.  The digest is the same."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()


def instance_to_json(inst: Instance) -> str:
    return json.dumps(inst.to_dict(), sort_keys=True, indent=2) + "\n"


def parse_json(text: str, source: str):
    """The document in ``text``; text that does not parse, that nests
    deeper than the parser can recurse, or that repeats a key in one
    object (which JSON leaves undefined) raises ``InputError`` naming
    ``source``."""

    def unique_keys(pairs):
        keys = set()
        for key, _ in pairs:
            if key in keys:
                raise InputError(f"{source} has duplicate key {key!r}")
            keys.add(key)
        return dict(pairs)

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{source} does not parse as JSON: {exc}") from exc
