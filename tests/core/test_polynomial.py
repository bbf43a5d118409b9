"""Unit tests for the Schwartz–Zippel set-equality sketches (HP-TestOut core)."""

import random
from functools import reduce

import pytest

from repro.core.polynomial import (
    SetEqualitySketch,
    combine_products,
    local_product,
    product_pair_reducer,
)
from repro.core.primes import next_prime
from repro.network.errors import AlgorithmError

P = next_prime(10 ** 6)


class TestLocalProduct:
    def test_empty_set_is_one(self):
        assert local_product([], alpha=5, p=P) == 1

    def test_matches_direct_computation(self):
        edges = [17, 99, 12345]
        alpha = 777
        expected = 1
        for e in edges:
            expected = (expected * (alpha - e)) % P
        assert local_product(edges, alpha, P) == expected

    def test_rejects_tiny_modulus(self):
        with pytest.raises(AlgorithmError):
            local_product([1], alpha=0, p=1)

    def test_combine_products(self):
        assert combine_products([], P) == 1
        assert combine_products([3, 5, 7], P) == 105 % P


class TestSketch:
    def test_equal_sets_always_equal_products(self):
        rng = random.Random(1)
        edges = [rng.randrange(1, 10 ** 5) for _ in range(20)]
        for _ in range(30):
            alpha = rng.randrange(P)
            sketch = SetEqualitySketch.from_local_edges(edges, list(edges), alpha, P)
            assert sketch.sides_equal

    def test_different_sets_rarely_equal(self):
        rng = random.Random(2)
        up = [rng.randrange(1, 10 ** 5) for _ in range(20)]
        down = up[:-1] + [10 ** 5 + 7]   # differ in exactly one element
        agreements = 0
        trials = 200
        for _ in range(trials):
            alpha = rng.randrange(P)
            sketch = SetEqualitySketch.from_local_edges(up, down, alpha, P)
            if sketch.sides_equal:
                agreements += 1
        # Schwartz-Zippel error <= degree/p ~ 2e-5; zero collisions expected.
        assert agreements == 0

    def test_payload_bits(self):
        sketch = SetEqualitySketch(1, 1, alpha=0, p=P)
        assert sketch.payload_bits() == 2 * P.bit_length()


class TestProductPairReducer:
    def test_reduction_is_distributed_product(self):
        """Reducing per-node (up, down) pairs equals the sketch of the union."""
        rng = random.Random(3)
        alpha = rng.randrange(P)
        node_edges = {
            1: ([10, 20], [30]),
            2: ([40], []),
            3: ([], [50, 60]),
        }
        pairs = [
            (local_product(up, alpha, P), local_product(down, alpha, P))
            for up, down in node_edges.values()
        ]
        reducer = product_pair_reducer(P)
        combined = reduce(reducer.op, pairs, reducer.identity)
        all_up = [e for up, _ in node_edges.values() for e in up]
        all_down = [e for _, down in node_edges.values() for e in down]
        direct = SetEqualitySketch.from_local_edges(all_up, all_down, alpha, P)
        assert combined == (direct.up, direct.down)

    def test_per_node_combine_matches_reduction(self):
        reducer = product_pair_reducer(101)
        local, children = (7, 9), [(3, 50), (100, 2)]
        assert reducer.combine(local, children) == reduce(
            reducer.op, [local] + children, reducer.identity
        )

    def test_identity_is_neutral(self):
        alpha = 12
        pair = (local_product([5, 9], alpha, P), local_product([7], alpha, P))
        reducer = product_pair_reducer(P)
        assert reducer.op(pair, reducer.identity) == pair
        assert reducer.op(reducer.identity, pair) == pair
