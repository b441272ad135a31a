import pytest

from kserver.rng import SplitMix64


def loop_sample(stream, population, count):
    """Reference: partial Fisher-Yates over the whole index table, one
    scalar draw per swap."""
    table = list(range(population))
    for i in range(count):
        j = stream.randint(i, population - 1)
        table[i], table[j] = table[j], table[i]
    return sorted(table[:count])


@pytest.mark.parametrize("seed", [0, 1, 20260808, (1 << 63) + 12345, (1 << 64) - 1])
@pytest.mark.parametrize("population", [1, 2, 7, 100, 12870])
def test_sample_equals_the_scalar_loop(seed, population):
    for count in sorted({0, 1, min(512, population), population}):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        fast.next_u64(), slow.next_u64()  # a stream already in use
        assert fast.sample(population, count) == loop_sample(slow, population, count)
        # the stream goes on where the scalar loop leaves it
        assert [fast.next_u64() for _ in range(3)] == [slow.next_u64() for _ in range(3)]


def test_sample_returns_python_ints():
    drawn = SplitMix64(5).sample(12870, 512)
    assert len(set(drawn)) == 512 and all(type(i) is int for i in drawn)


@pytest.mark.parametrize("population, count", [(3, 4), (0, 1), (5, -1)])
def test_sample_refuses_impossible_counts(population, count):
    with pytest.raises(ValueError, match="cannot sample"):
        SplitMix64(1).sample(population, count)
