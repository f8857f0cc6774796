"""The bulk byte draws equal :class:`random.Random`'s own, draw for draw."""

import random

import pytest

from repro.workloads.draws import draw_bytes, sample_pair


@pytest.mark.parametrize("size", [1, 2, 10, 16, 255])
def test_draws_equal_choice_and_leave_the_same_state(size):
    population = bytes((7 + i) % 256 for i in range(size))
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        count = seed % 97
        expected = bytes(slow.choice(population) for _ in range(count))
        assert draw_bytes(fast, population, count) == expected
        assert fast.getstate() == slow.getstate()
        # Later draws of any kind continue the same stream.
        assert fast.random() == slow.random()


def test_draws_equal_randrange_over_nonzero_bytes():
    population = bytes(range(1, 256))
    for seed in range(100):
        fast, slow = random.Random(seed), random.Random(seed)
        expected = bytes(slow.randrange(1, 256) for _ in range(48))
        assert draw_bytes(fast, population, 48) == expected
        assert fast.getstate() == slow.getstate()


def test_repeated_and_unordered_populations():
    for population in (b"zzza", b"\xff\x00\x80", bytes(range(255, 0, -1))):
        fast, slow = random.Random(3), random.Random(3)
        expected = bytes(slow.choice(population) for _ in range(300))
        assert draw_bytes(fast, population, 300) == expected
        assert fast.getstate() == slow.getstate()


def test_large_population_takes_the_one_at_a_time_path():
    population = bytes(range(256)) * 2
    fast, slow = random.Random(5), random.Random(5)
    expected = bytes(slow.choice(population) for _ in range(64))
    assert draw_bytes(fast, population, 64) == expected
    assert fast.getstate() == slow.getstate()


def test_empty_population_raises_like_choice():
    assert draw_bytes(random.Random(1), b"", 0) == b""
    with pytest.raises(IndexError):
        draw_bytes(random.Random(1), b"", 3)


@pytest.mark.parametrize("size", [2, 3, 20, 21, 22, 32, 100])
def test_pairs_equal_sample_and_leave_the_same_state(size):
    population = [f"s{i}" for i in range(size)]
    for seed in range(300):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sample_pair(fast, population) == tuple(slow.sample(population, 2))
        assert fast.getstate() == slow.getstate()


def test_pair_from_too_small_a_population_raises_like_sample():
    with pytest.raises(ValueError):
        sample_pair(random.Random(1), [1])
