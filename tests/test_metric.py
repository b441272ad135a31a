import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kserver
from kserver import (
    AxiomViolation,
    InputError,
    Instance,
    MetricSpace,
    canonical_configuration,
    final_work_vector,
    generate_instance,
    instance_to_json,
    matching_assignment,
    matching_cost,
    min_pairwise_distance,
    random_metric,
    validate_metric,
)
from kserver.metric import (
    _subset_layers,
    check_point,
    matching_costs,
    parse_json,
    sha256,
    subset_lattice,
)
from kserver.offline import oracle_work_vector
from vector_checks import vector_pairs

M3_MATRIX = [[0, 1, 3], [1, 0, 2], [3, 2, 0]]


def brute_force_distance(x, y, metric):
    """Independent oracle: minimum over all k! bijections."""
    return min(
        sum(metric.dist[a][b] for a, b in zip(x, perm))
        for perm in itertools.permutations(y)
    )


class TestValidateMetric:
    def test_two_point_ok(self):
        assert validate_metric([[0, 1], [1, 0]]).ok

    def test_m3_ok_against_exhaustive_check(self):
        # inline exhaustive triple check, then the validator
        n = len(M3_MATRIX)
        for i in range(n):
            assert M3_MATRIX[i][i] == 0
            for j in range(n):
                if i != j:
                    assert M3_MATRIX[i][j] > 0
                    assert M3_MATRIX[i][j] == M3_MATRIX[j][i]
                for l in range(n):
                    assert M3_MATRIX[i][j] <= M3_MATRIX[i][l] + M3_MATRIX[l][j]
        assert validate_metric(M3_MATRIX).ok

    def test_triangle_violation_with_witness(self):
        result = validate_metric([[0, 1, 5], [1, 0, 2], [5, 2, 0]])
        assert not result.ok
        assert AxiomViolation("triangle", (0, 2, 1)) in result.violations

    def test_symmetry_violation(self):
        result = validate_metric([[0, 1], [2, 0]])
        assert not result.ok
        assert any(v.axiom == "symmetry" and v.witness == (0, 1) for v in result.violations)

    def test_identity_violations(self):
        diag = validate_metric([[1, 1], [1, 0]])
        assert any(v.axiom == "identity" and v.witness == (0, 0) for v in diag.violations)
        offdiag = validate_metric([[0, 0], [0, 0]])
        assert any(v.axiom == "identity" and v.witness == (0, 1) for v in offdiag.violations)

    def test_structural_errors_raise(self):
        with pytest.raises(InputError):
            validate_metric([[0, 1], [1, 0], [2, 2]])
        with pytest.raises(InputError):
            validate_metric([[0, -1], [-1, 0]])
        with pytest.raises(InputError):
            validate_metric([[0, 1.5], [1.5, 0]])
        with pytest.raises(InputError):
            validate_metric([])

    def test_axiom_failure_does_not_raise(self):
        # violations are reported, not raised; structure was fine
        assert validate_metric([[0, 9, 1], [9, 0, 1], [1, 1, 0]]).ok is False


class TestConfigurationDistance:
    def test_identity(self, m3):
        for cfg in itertools.combinations(range(3), 2):
            assert matching_cost(cfg, cfg, m3) == 0

    def test_m3_values(self, m3):
        assert matching_cost((0, 1), (0, 2), m3) == 2
        assert matching_cost((0, 1), (1, 2), m3) == 3
        assert matching_cost((0, 1), (0, 2), m3) == brute_force_distance((0, 1), (0, 2), m3)
        assert matching_cost((0, 1), (1, 2), m3) == brute_force_distance((0, 1), (1, 2), m3)

    def test_symmetry(self, m3):
        for x, y in itertools.product(itertools.combinations(range(3), 2), repeat=2):
            assert matching_cost(x, y, m3) == matching_cost(y, x, m3)

    def test_errors(self, m3):
        # the matching routines refuse unequal sides
        with pytest.raises(InputError, match="matching sides differ"):
            matching_cost((0,), (0, 1), m3)
        with pytest.raises(InputError, match="matching sides differ"):
            matching_assignment((0, 1, 2), (0, 1), m3)

    @pytest.mark.parametrize("n,k,seed", [(6, 3, 11), (5, 2, 4), (4, 3, 8)])
    def test_is_metric_on_configurations(self, n, k, seed):
        # exhaustive over all pairs and triples of configurations
        metric = random_metric(n, seed=seed)
        configs = list(itertools.combinations(range(n), k))
        dmat = {
            (x, y): matching_cost(x, y, metric)
            for x in configs
            for y in configs
        }
        for x in configs:
            for y in configs:
                assert dmat[(x, y)] == dmat[(y, x)]
                assert (dmat[(x, y)] == 0) == (x == y)
                for z in configs:
                    assert dmat[(x, z)] <= dmat[(x, y)] + dmat[(y, z)]

    def test_matches_brute_force_k4_exhaustive(self):
        metric = random_metric(8, seed=5)
        configs = list(itertools.combinations(range(8), 4))
        for x in configs:
            for y in configs:
                assert matching_cost(x, y, metric) == brute_force_distance(x, y, metric)


class TestMatchingRoutes:
    def test_permutation_and_assignment_agree(self):
        # permutation oracle against the matching routine, stacked positions included
        metric = random_metric(9, seed=3)
        cases = [
            ((0, 1, 2, 3, 4, 5), (3, 4, 5, 6, 7, 8)),
            ((0, 0, 1, 2, 2, 5), (1, 3, 4, 6, 7, 8)),
            ((2, 3, 5, 7, 8, 1), (0, 1, 2, 3, 4, 5)),
            ((0, 0, 0, 4, 4, 8, 8), (1, 1, 2, 3, 5, 6, 7)),
        ]
        for sources, targets in cases:
            assert matching_cost(sources, targets, metric) == brute_force_distance(
                sources, targets, metric
            )

    @pytest.mark.parametrize("k", [7, 8])
    def test_k7_matches_permutation_oracle(self, k):
        metric = random_metric(16, seed=9)
        sources = tuple(range(k))
        targets = tuple(range(16 - k, 16))
        assert matching_cost(sources, targets, metric) == brute_force_distance(
            sources, targets, metric
        )

    def test_assignment_realizes_cost(self):
        metric = random_metric(8, seed=21)
        sources, targets = (0, 2, 4, 6), (1, 3, 5, 7)
        assigned = matching_assignment(sources, targets, metric)
        assert sorted(assigned) == sorted(targets)
        cost = sum(metric.dist[s][t] for s, t in zip(sources, assigned))
        assert cost == matching_cost(sources, targets, metric)

    def test_assignment_is_first_minimal_permutation(self):
        # trace extraction relies on this tie-break; small weights and
        # repeated points make ties common; then a few draws at k = 8,
        # the largest k the wide benchmark runs
        rng = random.Random(17)
        for n_range, k_range, count in (((2, 6), (1, 7), 300), ((2, 9), (8, 8), 4)):
            for _ in range(count):
                n = rng.randint(*n_range)
                k = rng.randint(*k_range)
                metric = random_metric(n, seed=rng.randrange(2**32), weight_range=(1, 3))
                sources = tuple(rng.randrange(n) for _ in range(k))
                targets = tuple(rng.randrange(n) for _ in range(k))
                first = min(
                    itertools.permutations(targets),
                    key=lambda perm: sum(metric.dist[s][t] for s, t in zip(sources, perm)),
                )
                assert matching_assignment(sources, targets, metric) == first

    def test_exact_beyond_float64(self):
        # distances 2^56 + r, 1 <= r <= 15, always satisfy the triangle
        # inequality; a float64 solver cannot tell the small parts apart.
        # 2^70 + r goes past int64 as well, where only Python integers stay exact
        for base, seed in itertools.product((2**56, 2**70), range(10)):
            rng = random.Random(seed)
            n = 14
            matrix = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    matrix[i][j] = matrix[j][i] = base + rng.randint(1, 15)
            metric = MetricSpace.from_matrix(matrix)
            x, y = tuple(range(7)), tuple(range(7, 14))
            assert matching_cost(x, y, metric) == brute_force_distance(x, y, metric)
            assigned = matching_assignment(x, y, metric)
            cost = sum(metric.dist[a][b] for a, b in zip(x, assigned))
            assert cost == matching_cost(x, y, metric)


@pytest.fixture(params=[np.int16, np.int64], ids=["int16", "int64"])
def matrix_dtype(request):
    return request.param


class TestMatchingCostsKernel:
    """The batched subset DP column by column, on the metric's int64
    matrix and on its int16 cast (C1b's, in a narrow space), the result in
    the matrix's dtype.

    Two references check different things.  The k! permutations of
    ``brute_force_distance`` check the recurrence itself, at k <= 5.
    ``matching_cost`` runs the same DP on one column over a pair table in
    Python integers, so it checks the batching (columns that share
    sources or targets, a broadcast origin) and the dtype, at every k.
    ``TestMatchingRoutes`` checks ``matching_cost`` and the assignment
    read off its layers against all k! permutations at every k from 1
    to 8.
    """

    @staticmethod
    def check_columns(metric, sources, targets, dtype=np.int64):
        # sources (k, N) or (k, 1), targets (k, N), as Python lists
        got = matching_costs(
            metric.matrix.astype(dtype),
            np.array(sources, dtype=np.intp),
            np.array(targets, dtype=np.intp),
        )
        assert got.dtype == dtype
        assert got.shape == (len(targets[0]),)
        for i, value in enumerate(got.tolist()):
            column = [row[i if len(row) > 1 else 0] for row in sources]
            target = [row[i] for row in targets]
            assert value == matching_cost(column, target, metric), (column, target)
            if len(target) <= 5:
                assert value == brute_force_distance(column, target, metric), (column, target)

    @staticmethod
    def random_columns(rng, n, k, count):
        # stacked sources, configurations as targets
        sources = [[rng.randrange(n) for _ in range(count)] for _ in range(k)]
        configs = [sorted(rng.sample(range(n), k)) for _ in range(count)]
        return sources, [list(row) for row in zip(*configs)]

    @staticmethod
    def shared_columns(rng, n, k):
        """Inputs whose adjacent columns share sources and leading target
        rows: repeated columns, a space's slots, widths 1 and 2."""
        origin = [[p] for p in rng.sample(range(n), k)]

        def blocks(count, size):
            # per-column sources, one random origin per block of columns
            cols = [rng.sample(range(n), k) for _ in range(-(-count // size))]
            return [[cols[i // size][row] for i in range(count)] for row in range(k)]

        # every configuration in rank order, as a space's slots (on the
        # first k + 3 points, to keep the scalar reference quick)
        ranked = [list(row) for row in zip(*itertools.combinations(range(min(n, k + 3)), k))]
        yield origin, ranked
        yield blocks(len(ranked[0]), 3), ranked
        # adjacent duplicate columns, duplicated sources with them
        repeats = [rng.randint(1, 3) for _ in range(8)]
        sources, targets = TestMatchingCostsKernel.random_columns(rng, n, k, len(repeats))
        dup = [[v for v, r in zip(row, repeats) for _ in range(r)] for row in sources + targets]
        yield dup[:k], dup[k:]
        yield origin, dup[k:]
        # runs that break only in the sources: one configuration throughout
        config = sorted(rng.sample(range(n), k))
        yield blocks(12, 2), [[p] * 12 for p in config]
        # runs that break only at the last target row
        last = [p for p in range(n) if p > config[-2]] if k > 1 else list(range(n))
        tails = [config[:-1] + [p] for p in last]
        yield origin, [list(row) for row in zip(*tails)]
        yield blocks(len(tails), len(tails)), [list(row) for row in zip(*tails)]
        # widths 1 and 2
        for count in (1, 2):
            yield TestMatchingCostsKernel.random_columns(rng, n, k, count)
        yield origin, [[p, p] for p in config]

    @pytest.mark.parametrize("weights", [(1, 1), (1, 9), (1, 1000)])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_columns_equal_matching_cost(self, k, weights, matrix_dtype):
        # k times 1000 fits int16: every partial sum is exact in it
        rng = random.Random(1000 * k + weights[1])
        n = rng.randint(max(k, 2), 16)
        metric = random_metric(n, seed=rng.randrange(2**32), weight_range=weights)
        sources, targets = self.random_columns(rng, n, k, 24)
        self.check_columns(metric, sources, targets, matrix_dtype)
        # one origin broadcast to every column
        origin = [[p] for p in rng.sample(range(n), k)]
        self.check_columns(metric, origin, targets, matrix_dtype)
        for sources, targets in self.shared_columns(rng, n, k):
            self.check_columns(metric, sources, targets, matrix_dtype)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_zero_and_one_column(self, k, matrix_dtype):
        metric = random_metric(10, seed=k)
        matrix = metric.matrix.astype(matrix_dtype)
        empty = matching_costs(matrix, np.zeros((k, 0), dtype=np.intp),
                               np.zeros((k, 0), dtype=np.intp))
        assert empty.shape == (0,) and empty.dtype == matrix_dtype
        broadcast = matching_costs(matrix, np.zeros((k, 1), dtype=np.intp),
                                   np.zeros((k, 0), dtype=np.intp))
        assert broadcast.shape == (0,)
        sources, targets = self.random_columns(random.Random(k), 10, k, 1)
        self.check_columns(metric, sources, targets, matrix_dtype)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_layer_tables_are_the_lexicographic_lattices(self, k):
        # layer j lists the j-subsets of range(k) in lexicographic order;
        # column s holds subset s's members in increasing order, and the
        # index in layer j - 1 of s without each member: the lattice of
        # subset_lattice(k + 1, j) and its swaps
        layers = _subset_layers(k)
        assert len(layers) == k
        previous = [()]
        for j, (before, member) in enumerate(layers, start=1):
            subsets = list(itertools.combinations(range(k), j))
            assert before.shape == member.shape == (j, len(subsets))
            assert before.dtype == member.dtype == np.intp
            assert not before.flags.writeable and not member.flags.writeable
            assert list(map(tuple, member.T.tolist())) == subsets
            for s, subset in enumerate(subsets):
                rests = [tuple(b for b in subset if b != a) for a in subset]
                assert before[:, s].tolist() == [previous.index(rest) for rest in rests]
            _, _, _, swaps, lattice = subset_lattice(k + 1, j)
            assert np.array_equal(before, swaps) and np.array_equal(member, lattice)
            previous = subsets

    def test_sixteen_servers_over_seventeen_points(self):
        # k = 16 matchings run over the lattices of 17 points, one more than
        # any metric has: with member a on bit 15 - a, a layer's masks
        # decrease (lexicographic order) and ``before`` drops one bit each
        layers = _subset_layers(16)
        masks = np.zeros(1, dtype=np.intp)
        for j, (before, member) in enumerate(layers, start=1):
            assert before.shape == member.shape == (j, math.comb(16, j))
            assert (np.diff(member, axis=0) > 0).all()
            bits = 1 << 15 - member
            grown = bits.sum(axis=0)
            assert (np.diff(grown) < 0).all()
            assert (masks[before] == grown - bits).all()
            masks = grown
        line = MetricSpace(tuple(tuple(abs(a - b) for b in range(17)) for a in range(17)))
        assert matching_cost(range(16), range(1, 17), line) == 16

    @pytest.mark.parametrize("k", range(1, 9))
    def test_largest_distance_the_int64_guard_admits(self, k):
        # k distances of (2^63 - 1) // k sum to at most int64's maximum;
        # entries in its upper half satisfy the triangle inequality
        far = INT64_MAX // k
        rng = random.Random(k)
        n = max(k + 2, 4)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = far - rng.randrange(4)
        metric = MetricSpace.from_matrix(matrix)
        sources, targets = self.random_columns(rng, n, k, 16)
        self.check_columns(metric, sources, targets)
        uniform = equidistant(2 * k, far)
        disjoint = matching_costs(uniform.matrix, np.arange(k)[:, None],
                                  np.arange(k, 2 * k)[:, None])
        assert disjoint.tolist() == [k * far]


def test_second_verify_builds_no_layer_tables():
    # a verify asks for the space's k and for its final relocations' 1-2
    # movers; a cache that kept only the last k would rebuild both each time
    inst = generate_instance(16, 6, 4, 2)
    kserver.verify_anchored_properties(inst, 11, 0, 3)
    misses = _subset_layers.cache_info().misses
    kserver.verify_anchored_properties(inst, 11, 0, 3)
    assert _subset_layers.cache_info().misses == misses


@pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (5, 5), (17, 17), (7, 3)])
def test_subset_lattice_matches_the_combinations(n, k):
    # k = n leaves an empty lattice, k = 1 a lattice whose swaps all land on
    # the empty set, and n = 17 is past every metric's points
    masks, rank_of_mask, slots, swaps, lattice = subset_lattice(n, k)
    subsets = list(itertools.combinations(range(n), k))
    assert slots.shape == (k, len(subsets)) and slots.dtype == np.uint8
    assert list(map(tuple, slots.T.tolist())) == subsets
    assert masks.tolist() == [sum(1 << n - 1 - p for p in subset) for subset in subsets]
    assert rank_of_mask.dtype == np.int32 and rank_of_mask.shape == (1 << n,)
    assert rank_of_mask[masks].tolist() == list(range(len(subsets)))
    assert (rank_of_mask >= 0).sum() == len(subsets)
    missing = list(itertools.combinations(range(n - 1), k))
    holding = list(itertools.combinations(range(n - 1), k - 1))
    assert swaps.shape == lattice.shape == (k, len(missing))
    assert swaps.dtype == np.intp and lattice.dtype == np.uint8
    assert list(map(tuple, lattice.T.tolist())) == missing
    for c, subset in enumerate(missing):
        rests = [subset[:j] + subset[j + 1 :] for j in range(k)]
        assert swaps[:, c].tolist() == [holding.index(rest) for rest in rests]
    assert not any(table.flags.writeable for table in (masks, rank_of_mask, slots, swaps, lattice))


def test_import_leaves_scipy_out():
    src = str(Path(kserver.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import kserver; "
        "print('scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestMinPairwiseDistance:
    def test_m3_pairs(self, m3):
        assert min_pairwise_distance((0, 1), m3) == 1
        assert min_pairwise_distance((0, 2), m3) == 3

    def test_uniform(self, uniform3):
        assert min_pairwise_distance((0, 1), uniform3) == 1
        assert min_pairwise_distance((0, 1, 2), uniform3) == 1

    def test_single_point_rejected(self, m3):
        with pytest.raises(InputError):
            min_pairwise_distance((0,), m3)


class TestRandomMetric:
    def test_deterministic(self):
        assert random_metric(5, seed=42).dist == random_metric(5, seed=42).dist

    def test_always_valid(self):
        for seed in range(1, 21):
            metric = random_metric(2 + seed % 7, seed=seed)
            assert validate_metric(metric.dist).ok

    def test_two_points(self):
        metric = random_metric(2, seed=7, weight_range=(1, 9))
        assert metric.n == 2
        assert metric.dist[0][0] == metric.dist[1][1] == 0
        assert 1 <= metric.dist[0][1] <= 9
        assert metric.dist[0][1] == metric.dist[1][0]

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            random_metric(1, seed=0)
        with pytest.raises(InputError):
            random_metric(17, seed=0)
        for n in (4.0, "4", True):
            with pytest.raises(InputError, match=rf"point count must be a positive integer, got {n!r}$"):
                random_metric(n, seed=0)
        with pytest.raises(InputError):
            random_metric(4, seed=0, weight_range=(0, 5))
        with pytest.raises(InputError):
            random_metric(4, seed=0, weight_range=(5, 4))
        for weights in ((1,), (1, 2, 3), None):
            with pytest.raises(InputError, match="weight range must be integers"):
                random_metric(4, seed=0, weight_range=weights)
        # SplitMix64 keeps 64 bits: 2^64 would alias 0, and -1 alias 2^64 - 1
        for seed in (-1, 2**64, True, 1.0):
            with pytest.raises(InputError, match=rf"seed .*got {seed!r}$"):
                random_metric(4, seed=seed)
        assert random_metric(4, seed=2**64 - 1).n == 4

    @pytest.mark.parametrize("weights", [(True, True), (1, True), (True, 2), (1.0, 2)])
    def test_weights_must_be_ints_not_bools(self, weights):
        with pytest.raises(InputError, match="weight range must be integers"):
            random_metric(4, 1, weights)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**62), n=st.integers(2, 9))
def test_random_metric_closure_property(seed, n):
    assert validate_metric(random_metric(n, seed).dist).ok


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**62))
def test_configuration_distance_triangle_random(seed):
    metric = random_metric(6, seed)
    configs = list(itertools.combinations(range(6), 2))
    stride = seed % 7 + 1
    picked = [configs[(i * stride) % len(configs)] for i in range(3)]
    x, y, z = picked
    assert matching_cost(x, z, metric) <= (
        matching_cost(x, y, metric) + matching_cost(y, z, metric)
    )


class TestCanonicalConfiguration:
    def test_sorts(self):
        assert canonical_configuration((2, 0, 1), 3) == (0, 1, 2)

    def test_rejects_repeats_and_range(self):
        with pytest.raises(InputError):
            canonical_configuration((0, 0), 3)
        with pytest.raises(InputError):
            canonical_configuration((0, 5), n=3)
        with pytest.raises(InputError):
            canonical_configuration((), 3)

    @pytest.mark.parametrize("bad", [True, 1.5, "1", None, 3, -1, np.int64(7)])
    def test_point_messages_match_check_point(self, m3, bad):
        with pytest.raises(InputError) as refused:
            check_point(bad, m3.n)
        with pytest.raises(InputError) as in_config:
            canonical_configuration((0, bad), n=3)
        assert str(in_config.value) == str(refused.value)

    def test_repeats_are_named_before_range(self):
        with pytest.raises(InputError, match="repeated points"):
            canonical_configuration((5, 5), n=3)


class TestRequestChecks:
    """``Instance.build`` checks every request once, in sequence order, and
    names the first bad one."""

    @pytest.mark.parametrize(
        "requests,message",
        [
            ([1, True, 0], "point identifier must be an integer, got True"),
            ([1, 1.0, 0], "point identifier must be an integer, got 1.0"),
            ([0, 3, 1], "point 3 out of range [0, 3)"),
            ([0, 7, 0, 9], "point 7 out of range [0, 3)"),
            ([0, 9, 1, True], "point 9 out of range [0, 3)"),
            ([2, True, 9], "point identifier must be an integer, got True"),
            ([0, 7, [1]], "point 7 out of range [0, 3)"),
            ([0, [1], 7], "point identifier must be an integer, got [1]"),
        ],
    )
    def test_refuses_and_names_the_first_bad_request(self, m3, requests, message):
        with pytest.raises(InputError) as refused:
            Instance.build(m3, 2, (0, 1), requests)
        assert str(refused.value) == message

    def test_one_check_call_per_point(self, m3, monkeypatch):
        # each start point and each request is checked by one call, and a
        # configuration checked against n calls once per point too
        import kserver.metric as metric

        calls = []
        check = metric.check_point
        monkeypatch.setattr(metric, "check_point", lambda *args: calls.append(args) or check(*args))
        Instance.build(m3, 2, (1, 0), [2, 0, np.int64(1), 2])
        assert [len(args) for args in calls] == [1, 1, 2, 2, 2, 2]
        calls.clear()
        assert canonical_configuration((2, 0, 1), n=3) == (0, 1, 2)
        assert len(calls) == 3

    def test_numpy_requests_become_ints(self, m3):
        requests = [np.int64(2), 2, np.uint8(0), np.int64(2), 1]
        inst = Instance.build(m3, 2, (0, 1), requests)
        assert inst.requests == (2, 2, 0, 2, 1)
        assert all(type(r) is int for r in inst.requests)


class TestInstanceJson:
    def test_round_trip(self, m3_instance):
        text = instance_to_json(m3_instance)
        again = Instance.from_dict(parse_json(text, "instance document"))
        assert again == m3_instance
        assert again.fingerprint() == m3_instance.fingerprint()

    def test_labels_survive(self, m3):
        labelled = MetricSpace.from_matrix(M3_MATRIX, labels=("a", "b", "c"))
        inst = Instance.build(labelled, 2, (0, 1), (2,))
        again = Instance.from_dict(parse_json(instance_to_json(inst), "instance document"))
        assert again.metric.labels == ("a", "b", "c")

    def test_k_exceeds_n(self, m3):
        with pytest.raises(InputError, match="k exceeds n"):
            Instance.build(m3, 9, (0, 1), ())

    def test_rejections(self, m3_instance):
        base = m3_instance.to_dict()

        def corrupt(**changes):
            doc = json.loads(json.dumps(base))
            doc.update(changes)
            return doc

        with pytest.raises(InputError):
            Instance.from_dict(corrupt(initial=[0, 0]))
        with pytest.raises(InputError):
            Instance.from_dict(corrupt(requests=[0, 7]))
        with pytest.raises(InputError):
            Instance.from_dict(corrupt(n=4))
        with pytest.raises(InputError):
            Instance.from_dict(corrupt(extra_field=1))
        doc = corrupt()
        del doc["dist"]
        with pytest.raises(InputError):
            Instance.from_dict(doc)
        with pytest.raises(InputError):
            Instance.from_dict(corrupt(labels=["only-one"]))
        with pytest.raises(InputError):
            parse_json("{not json", "instance document")
        with pytest.raises(InputError, match="does not parse"):
            parse_json("[" * 100_000, "instance document")  # deeper than the parser recurses
        # structurally wrong fields, each refused by name
        for field, value, named in (
            ("dist", 5, "distance matrix"),
            ("dist", [0, 1], "row 0 of the distance matrix"),
            ("initial", 5, "'initial'"),
            ("requests", 5, "'requests'"),
            ("labels", 5, "labels"),
            ("labels", [["a"], ["b"], ["c"]], "labels must be strings"),
            ("n", 3.0, "n must be a positive integer"),
        ):
            with pytest.raises(InputError, match=named):
                Instance.from_dict(corrupt(**{field: value}))
        with pytest.raises(InputError, match="distance matrix"):
            MetricSpace.from_matrix(5)

    def test_fingerprint_distinguishes(self, m3_instance):
        other = Instance.build(m3_instance.metric, 2, (0, 1), (2, 0))
        assert other.fingerprint() != m3_instance.fingerprint()


def canonical_digest(inst):
    """The fingerprint as its definition states it, through ``hashlib``."""
    canonical = json.dumps(inst.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestFingerprintDigest:
    """``metric.sha256`` comes from the interpreter's built-in module where
    there is one; every digest must equal ``hashlib``'s."""

    def test_fingerprint_is_the_canonical_sha256(self):
        labelled = MetricSpace.from_matrix(M3_MATRIX, labels=("a", "b", "c"))
        big = 2**50
        near = MetricSpace.from_matrix([[0, big, big + 3], [big, 0, big + 1], [big + 3, big + 1, 0]])
        for inst in (
            Instance.build(labelled, 2, (0, 1), (2,)),
            generate_instance(16, 8, 300, 1),
            Instance.build(near, 2, (0, 1), (2, 0, 2, 1)),
        ):
            assert inst.fingerprint() == canonical_digest(inst)

    @pytest.mark.parametrize("size", [0, 55, 56, 63, 64, 65, 100_000])
    def test_padding_boundaries(self, size):
        data = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
        assert len(data) == size
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    def test_hashlib_fallback(self, m3_instance):
        src = str(Path(kserver.__file__).parents[1])
        code = (
            "import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
            f"sys.path.insert(0, {src!r}); import hashlib; "
            "from kserver import Instance, MetricSpace; from kserver import metric; "
            "assert metric.sha256 is hashlib.sha256; "
            f"inst = Instance.build(MetricSpace.from_matrix({M3_MATRIX!r}), 2, (0, 1), (2,)); "
            "print(inst.fingerprint())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == m3_instance.fingerprint() == canonical_digest(m3_instance)


INT64_MAX = 2**63 - 1


def equidistant(n, distance):
    return MetricSpace.from_matrix(
        [[0 if i == j else distance for j in range(n)] for i in range(n)]
    )


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), count=st.integers(0, 40))
def test_work_values_must_fit_int64(k, count):
    # after t requests every work value is at most (t + k) times the
    # largest distance; one more than the largest distance that keeps
    # that in int64 is refused, and so is one more request
    inside = INT64_MAX // (count + k)
    requests = [(k + i) % (k + 1) for i in range(count)]
    inst = Instance.build(equidistant(k + 1, inside), k, range(k), requests)
    with pytest.raises(InputError, match="int64 bound"):
        Instance.build(equidistant(k + 1, inside + 1), k, range(k), requests)
    with pytest.raises(InputError, match="int64 bound"):
        Instance.build(inst.metric, k, inst.initial, requests + [k])


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 2), count=st.integers(0, 8))
def test_values_at_the_int64_bound_are_exact(k, count):
    inside = INT64_MAX // (count + k)
    requests = [(k + i) % (k + 1) for i in range(count)]
    inst = Instance.build(equidistant(k + 1, inside), k, range(k), requests)
    assert dict(vector_pairs(final_work_vector(inst))) == oracle_work_vector(inst)
