"""Tests for the seeded RNG and Zipfian generators."""

from collections import Counter

import pytest

from repro.utils.rng import (
    ScrambledZipfianGenerator,
    SeededRng,
    ZipfianGenerator,
    weighted_choice,
    zipf_pmf,
)
from repro.obs import Stopwatch


def test_seeded_rng_deterministic():
    first = SeededRng(42)
    second = SeededRng(42)
    assert [first.randint(0, 100) for _ in range(10)] == [second.randint(0, 100) for _ in range(10)]


def test_fork_independent_of_draw_order():
    parent_a = SeededRng(7)
    parent_b = SeededRng(7)
    parent_b.random()  # consume one draw
    assert parent_a.fork("x").randint(0, 1_000_000) == parent_b.fork("x").randint(0, 1_000_000)


def test_bernoulli_bounds():
    rng = SeededRng(0)
    draws = [rng.bernoulli(0.2) for _ in range(2000)]
    assert 0.1 < sum(draws) / len(draws) < 0.3


def test_zipfian_values_in_range_and_skewed():
    generator = ZipfianGenerator(1000, theta=0.99, rng=SeededRng(1))
    values = [generator.next_value() for _ in range(5000)]
    assert all(0 <= value < 1000 for value in values)
    counts = Counter(values)
    assert counts[0] > counts.get(500, 0)


def test_zipfian_invalid_parameters():
    with pytest.raises(ValueError):
        ZipfianGenerator(0)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, theta=1.5)


def test_scrambled_zipfian_spreads_hot_keys():
    generator = ScrambledZipfianGenerator(1000, rng=SeededRng(2))
    values = [generator.next_value() for _ in range(5000)]
    assert all(0 <= value < 1000 for value in values)
    hot = Counter(values).most_common(5)
    # Scrambling should not leave all hot keys at the start of the key space.
    assert any(key > 100 for key, _count in hot)


def test_weighted_choice_distribution():
    rng = SeededRng(3)
    draws = Counter(
        weighted_choice(rng, [("a", 0.9), ("b", 0.1)]) for _ in range(2000)
    )
    assert draws["a"] > draws["b"] * 3


def test_weighted_choice_requires_positive_weights():
    with pytest.raises(ValueError):
        weighted_choice(SeededRng(0), [("a", 0.0)])


def test_zipf_pmf_sums_to_one():
    pmf = zipf_pmf(50, 0.9)
    assert abs(sum(pmf) - 1.0) < 1e-9
    assert pmf[0] > pmf[-1]


def test_timer_measures_elapsed():
    with Stopwatch() as timer:
        sum(range(1000))
    assert timer.elapsed >= 0.0
    timer.start()
    assert timer.stop() >= 0.0
