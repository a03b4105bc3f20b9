"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import (
    ensure_rng,
    sample_without_replacement,
    seeds_from,
    shuffled_indices,
    spawn_rngs,
)


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_children_are_independent(self):
        children = spawn_rngs(0, 2)
        assert children[0].random() != children[1].random()

    def test_reproducible_from_seed(self):
        first = [g.random() for g in spawn_rngs(7, 3)]
        second = [g.random() for g in spawn_rngs(7, 3)]
        assert first == second

    def test_different_roots_give_different_streams(self):
        assert [g.random() for g in spawn_rngs(0, 2)] != [
            g.random() for g in spawn_rngs(1, 2)
        ]

    def test_stream_depends_only_on_its_index(self):
        """Stream ``k`` is the same however many siblings are spawned with it,
        so a class's training stream does not depend on the class count."""
        reference = [g.random() for g in spawn_rngs(11, 3)]
        for count in (3, 5, 10):
            assert [g.random() for g in spawn_rngs(11, count)[:3]] == reference

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestSeedsFrom:
    def test_count_and_range(self):
        seeds = seeds_from(3, 10)
        assert len(seeds) == 10
        assert all(0 <= s < 2**31 for s in seeds)

    def test_reproducible(self):
        assert seeds_from(5, 4) == seeds_from(5, 4)


class TestShuffledIndices:
    def test_is_permutation(self):
        indices = shuffled_indices(10, rng=0)
        assert sorted(indices.tolist()) == list(range(10))

    def test_seeded_reproducibility(self):
        np.testing.assert_array_equal(shuffled_indices(8, rng=1), shuffled_indices(8, rng=1))


class TestSampleWithoutReplacement:
    def test_distinct(self):
        sample = sample_without_replacement(range(20), 5, rng=0)
        assert len(set(sample.tolist())) == 5

    def test_too_many_raises(self):
        with pytest.raises(ValueError):
            sample_without_replacement(range(3), 5, rng=0)


class TestSpawnRngsSeedSequenceUnification:
    """Regression: Generator seeds must spawn from the generator's SeedSequence."""

    def test_generator_seed_matches_int_seed(self):
        from_int = [g.random() for g in spawn_rngs(123, 3)]
        from_generator = [g.random() for g in spawn_rngs(np.random.default_rng(123), 3)]
        assert from_int == from_generator

    def test_generator_children_are_independent(self):
        children = spawn_rngs(np.random.default_rng(0), 2)
        assert children[0].random() != children[1].random()

    def test_repeated_spawns_from_same_generator_differ(self):
        root = np.random.default_rng(9)
        first = [g.random() for g in spawn_rngs(root, 2)]
        second = [g.random() for g in spawn_rngs(root, 2)]
        assert first != second
