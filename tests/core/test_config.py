"""Unit tests for AlgorithmConfig parameter derivations."""

import math

import pytest

from repro.core.config import (
    AlgorithmConfig,
    FINDANY_SUCCESS_PROBABILITY,
    TESTOUT_SUCCESS_PROBABILITY,
)
from repro.network.errors import AlgorithmError


class TestValidation:
    def test_rejects_tiny_n(self):
        with pytest.raises(AlgorithmError):
            AlgorithmConfig(n=0)

    def test_rejects_c_below_one(self):
        with pytest.raises(AlgorithmError):
            AlgorithmConfig(n=10, c=0.5)

    def test_rejects_word_size_one(self):
        with pytest.raises(AlgorithmError):
            AlgorithmConfig(n=10, word_size=1)


class TestDerivedQuantities:
    def test_default_word_size_is_log_n(self):
        config = AlgorithmConfig(n=1024)
        assert config.word_size == 10

    def test_word_size_floor_of_two(self):
        config = AlgorithmConfig(n=2)
        assert config.word_size >= 2

    def test_epsilon_is_inverse_polynomial(self):
        config = AlgorithmConfig(n=100, c=2)
        assert config.epsilon() == pytest.approx(100 ** -3)

    def test_findmin_budget_grows_with_weight_range(self):
        config = AlgorithmConfig(n=64)
        small = config.findmin_budget(max_weight=2 ** 10)
        large = config.findmin_budget(max_weight=2 ** 40)
        assert large > small

    def test_findmin_c_budget_smaller_than_findmin_for_polynomial_weights(self):
        # With maxWt polynomial in n, the worst-case (c/q)·lg n term dominates
        # FindMin's budget, so the capped variant's budget is smaller.
        config = AlgorithmConfig(n=2 ** 20, c=2)
        assert config.findmin_c_budget(2 ** 20) <= config.findmin_budget(2 ** 20)

    def test_findany_budget_matches_formula(self):
        config = AlgorithmConfig(n=64, c=1)
        expected = math.ceil(16 * math.log(1 / config.epsilon()))
        assert config.findany_budget() == expected

    def test_phase_budget_is_the_paper_cap(self):
        # (40c/C)·lg n with C = 2/3, the FindMin-C success bound.
        assert AlgorithmConfig(n=256).build_phase_budget() == 480
        assert AlgorithmConfig(n=256, c=2).build_phase_budget() == 960

    def test_success_probability_constants(self):
        assert TESTOUT_SUCCESS_PROBABILITY == pytest.approx(1 / 8)
        assert FINDANY_SUCCESS_PROBABILITY == pytest.approx(1 / 16)


class TestRandomness:
    def test_seeded_rng_reproducible(self):
        a = AlgorithmConfig(n=32, seed=5)
        b = AlgorithmConfig(n=32, seed=5)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]

    def test_spawn_derives_new_stream(self):
        config = AlgorithmConfig(n=32, seed=5)
        child_a = config.spawn()
        child_b = config.spawn()
        assert child_a.random() != child_b.random()
