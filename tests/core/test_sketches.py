"""Unit tests for the node-local sketch values carried by echoes."""

import random
from functools import reduce

import pytest

from repro.core.hashing import random_odd_hash, random_pairwise_hash
from repro.core.sketches import (
    local_parity,
    local_prefix_parities,
    local_range_parities,
    local_xor_below,
    pack_parity_word,
    unpack_parity_word,
)
from repro.network.broadcast import XOR_REDUCER


class TestParityWords:
    def test_pack_unpack_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        word = pack_parity_word(bits)
        assert unpack_parity_word(word, len(bits)) == bits

    def test_pack_empty(self):
        assert pack_parity_word([]) == 0

    def test_unpack_width(self):
        assert unpack_parity_word(0b101, 5) == [1, 0, 1, 0, 0]


class TestXorReducer:
    def test_xor_reducer(self):
        assert XOR_REDUCER.combine(0b1100, [0b1010, 0b0001]) == 0b0111

    def test_xor_reducer_no_children(self):
        assert XOR_REDUCER.combine(7, []) == 7

    def test_xor_reducer_over_packed_vectors(self):
        vectors = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
        words = map(pack_parity_word, vectors)
        word = reduce(XOR_REDUCER.op, words, XOR_REDUCER.identity)
        assert unpack_parity_word(word, 3) == [0, 0, 0]

    def test_xor_reducer_preserves_vector_length(self):
        word = reduce(XOR_REDUCER.op, [pack_parity_word([0, 1])], XOR_REDUCER.identity)
        assert unpack_parity_word(word, 2) == [0, 1]


class TestLocalParity:
    def test_matches_hash_parity(self):
        rng = random.Random(0)
        h = random_odd_hash(1000, rng)
        edges = [3, 77, 400, 999]
        assert local_parity(edges, h) == sum(h(e) for e in edges) % 2


class TestRangeParities:
    def test_edges_counted_only_in_matching_ranges(self):
        rng = random.Random(1)
        h = random_odd_hash(10 ** 4, rng)
        # (augmented weight, edge number) pairs
        edges = [(5, 100), (15, 200), (25, 300)]
        ranges = [(0, 9), (10, 19), (20, 29)]
        parities = local_range_parities(edges, h, ranges)
        assert parities == [h(100), h(200), h(300)]

    def test_overlapping_ranges_count_twice(self):
        rng = random.Random(2)
        h = random_odd_hash(10 ** 4, rng)
        edges = [(5, 123)]
        ranges = [(0, 9), (0, 9)]
        parities = local_range_parities(edges, h, ranges)
        assert parities[0] == parities[1] == h(123)

    def test_same_hash_shared_across_ranges(self):
        """The same hash function is reused for every sub-range (Section 3.1)."""
        rng = random.Random(3)
        h = random_odd_hash(10 ** 4, rng)
        edges = [(5, 111), (6, 111)]
        # Same edge number listed twice inside one range -> parity cancels.
        parities = local_range_parities(edges, h, [(0, 10)])
        assert parities == [0]


class TestPrefixParities:
    def test_last_entry_counts_all_edges(self):
        rng = random.Random(4)
        h = random_pairwise_hash(10 ** 5, 64, rng)
        edges = [7, 19, 23, 54321]
        parities = local_prefix_parities(edges, h)
        assert len(parities) == h.log_range + 1
        assert parities[-1] == len(edges) % 2

    def test_prefix_monotonicity_of_counts(self):
        """Membership in [2^i] is monotone in i, so counts only grow."""
        rng = random.Random(5)
        h = random_pairwise_hash(10 ** 5, 32, rng)
        edges = [rng.randrange(1, 10 ** 5) for _ in range(10)]
        counts = [
            sum(1 for e in edges if h(e) < (1 << i)) for i in range(h.log_range + 1)
        ]
        assert counts == sorted(counts)
        parities = local_prefix_parities(edges, h)
        assert parities == [count % 2 for count in counts]

    def test_no_edges_gives_zero_vector(self):
        rng = random.Random(6)
        h = random_pairwise_hash(1000, 16, rng)
        assert local_prefix_parities([], h) == [0] * (h.log_range + 1)


class TestXorBelow:
    def test_xor_of_selected_edges(self):
        rng = random.Random(7)
        h = random_pairwise_hash(10 ** 5, 64, rng)
        edges = [rng.randrange(1, 10 ** 5) for _ in range(12)]
        for prefix in range(h.log_range + 1):
            expected = 0
            for e in edges:
                if h(e) < (1 << prefix):
                    expected ^= e
            assert local_xor_below(edges, h, prefix) == expected

    def test_single_selected_edge_is_recovered(self):
        rng = random.Random(8)
        h = random_pairwise_hash(10 ** 5, 64, rng)
        edges = [11111, 22222, 33333]
        # pick a prefix where exactly one edge lands (if any)
        for prefix in range(h.log_range + 1):
            selected = [e for e in edges if h(e) < (1 << prefix)]
            if len(selected) == 1:
                assert local_xor_below(edges, h, prefix) == selected[0]
                break
