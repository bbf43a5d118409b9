"""Property-based tests for the hash families and sketches."""

import random
from functools import reduce

from hypothesis import given, settings, strategies as st

from repro.core.hashing import random_odd_hash, random_pairwise_hash
from repro.core.polynomial import SetEqualitySketch
from repro.core.primes import is_prime, next_prime
from repro.core.sketches import (
    local_prefix_parities,
    local_xor_below,
    pack_parity_word,
    unpack_parity_word,
)
from repro.network.broadcast import XOR_REDUCER


class TestOddHashProperties:
    @given(st.integers(min_value=1, max_value=2 ** 40), st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=80, deadline=None)
    def test_output_binary_and_deterministic(self, universe, seed):
        rng = random.Random(seed)
        h = random_odd_hash(universe, rng)
        x = (seed % universe) + 1
        value = h(x)
        assert value in (0, 1)
        assert h(x) == value

    @given(
        st.lists(st.integers(min_value=1, max_value=2 ** 20), min_size=0, max_size=40),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_parity_matches_sum(self, elements, seed):
        rng = random.Random(seed)
        h = random_odd_hash(2 ** 20, rng)
        assert h.parity_of(elements) == sum(h(x) for x in elements) % 2

    @given(
        st.lists(st.integers(min_value=1, max_value=2 ** 20), min_size=1, max_size=30, unique=True),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_duplicated_set_has_even_parity(self, elements, seed):
        """XOR-ing a set with itself (both endpoints in the tree) cancels."""
        rng = random.Random(seed)
        h = random_odd_hash(2 ** 20, rng)
        assert h.parity_of(elements + elements) == 0


class TestPairwiseHashProperties:
    @given(
        st.integers(min_value=4, max_value=2 ** 20),
        st.sampled_from([4, 8, 16, 64, 256]),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_respected(self, universe, range_size, seed):
        rng = random.Random(seed)
        h = random_pairwise_hash(universe, range_size, rng)
        for x in range(1, min(universe, 50)):
            assert 0 <= h(x) < range_size

    @given(
        st.lists(st.integers(min_value=1, max_value=2 ** 16), min_size=0, max_size=25, unique=True),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_prefix_parities_consistent_with_xor_below(self, elements, seed):
        rng = random.Random(seed)
        h = random_pairwise_hash(2 ** 16, 64, rng)
        parities = local_prefix_parities(elements, h)
        for i in range(h.log_range + 1):
            selected = [e for e in elements if h(e) < (1 << i)]
            assert parities[i] == len(selected) % 2
            xor = 0
            for e in selected:
                xor ^= e
            assert local_xor_below(elements, h, i) == xor


class TestSketchAndWordProperties:
    @given(st.lists(st.sampled_from([0, 1]), min_size=0, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_pack_unpack_roundtrip(self, bits):
        assert unpack_parity_word(pack_parity_word(bits), len(bits)) == bits

    @given(
        st.lists(
            st.lists(st.sampled_from([0, 1]), min_size=6, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_xor_reducer_over_packed_vectors_is_componentwise_parity(self, vectors):
        word = reduce(XOR_REDUCER.op, map(pack_parity_word, vectors), XOR_REDUCER.identity)
        combined = unpack_parity_word(word, 6)
        for index in range(6):
            assert combined[index] == sum(v[index] for v in vectors) % 2

    @given(
        st.lists(st.integers(min_value=1, max_value=10 ** 6), min_size=0, max_size=20, unique=True),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_equal_multisets_always_agree(self, edges, seed):
        rng = random.Random(seed)
        p = next_prime(10 ** 7)
        alpha = rng.randrange(p)
        sketch = SetEqualitySketch.from_local_edges(edges, list(reversed(edges)), alpha, p)
        assert sketch.sides_equal


class TestPrimeProperties:
    @given(st.integers(min_value=2, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_next_prime_is_prime_and_greater(self, n):
        p = next_prime(n)
        assert p > n
        assert is_prime(p)
        # no prime strictly between n and p for small gaps we can check cheaply
        for candidate in range(n + 1, min(p, n + 50)):
            assert not is_prime(candidate)
