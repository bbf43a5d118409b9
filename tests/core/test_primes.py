"""Unit tests for primality testing and HP-TestOut prime selection."""

import random

import pytest

from repro.core.hashing import random_pairwise_hash
from repro.core.primes import is_prime, next_prime, prime_at_least, prime_for_field


KNOWN_PRIMES = [2, 3, 5, 7, 11, 13, 97, 101, 7919, 104729, 2 ** 31 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 9, 100, 7917, 104730, 2 ** 31, 561, 41041, 825265]
# 561, 41041, 825265 are Carmichael numbers (strong pseudoprime stress cases).

# (maxEdgeNum, B, ε) triples.  ε = 32^-5 is n = 32, c = 4, where B/ε ≈ B·2^25
# beats every maxEdgeNum below 2^12, so many triples share one bound.
FIELD_GRID = [
    (max_edge_number, endpoints, epsilon)
    for max_edge_number in (2, 700, 4095, 10 ** 9)
    for endpoints in (1, 6, 90)
    for epsilon in (0.5, 0.01, 32.0 ** -5)
]


class TestIsPrime:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_primes_detected(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("c", KNOWN_COMPOSITES)
    def test_composites_rejected(self, c):
        assert not is_prime(c)

    def test_large_prime(self):
        # 2^61 - 1 is a Mersenne prime.
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)

    def test_negative_numbers(self):
        assert not is_prime(-7)

    def test_agrees_with_sieve_below_2000(self):
        limit = 2000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for n in range(limit):
            assert is_prime(n) == sieve[n], n


class TestNextPrime:
    def test_next_prime_basic(self):
        assert next_prime(1) == 2
        assert next_prime(2) == 3
        assert next_prime(10) == 11
        assert next_prime(13) == 17
        assert next_prime(7918) == 7919

    def test_prime_at_least(self):
        assert prime_at_least(13) == 13
        assert prime_at_least(14) == 17
        assert prime_at_least(1) == 2

    def test_result_is_prime_for_large_inputs(self):
        p = next_prime(10 ** 12)
        assert p > 10 ** 12
        assert is_prime(p)


class TestPrimeForField:
    def test_exceeds_both_bounds(self):
        p = prime_for_field(max_edge_number=1000, num_endpoints=50, epsilon=0.01)
        assert p > 1000
        assert p > 50 / 0.01
        assert is_prime(p)

    def test_edge_number_dominates(self):
        p = prime_for_field(max_edge_number=10 ** 9, num_endpoints=10, epsilon=0.5)
        assert p > 10 ** 9

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            prime_for_field(100, 10, epsilon=0.0)
        with pytest.raises(ValueError):
            prime_for_field(100, 10, epsilon=1.5)

    def test_memoised_with_a_fixed_bound_and_errors_not_cached(self):
        first = prime_for_field(100, 10, 0.01)
        assert prime_for_field(100, 10, 0.01) == first == next_prime(1001)
        assert next_prime.cache_info().maxsize is not None
        for _ in range(2):
            with pytest.raises(ValueError):
                prime_for_field(100, 10, 0.0)

    def test_memo_is_keyed_by_the_bound(self):
        for max_edge_number, endpoints, epsilon in FIELD_GRID:
            bound = max(max_edge_number, int(endpoints / epsilon) + 1, 3)
            expected = next_prime.__wrapped__(bound)
            assert prime_for_field(max_edge_number, endpoints, epsilon) == expected
        # Two maxEdgeNums below B/ε give one bound: one miss, then a hit.
        next_prime.cache_clear()
        epsilon = 32.0 ** -5
        first = prime_for_field(3, 6, epsilon)
        assert prime_for_field(4000, 6, epsilon) == first
        info = next_prime.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_pairwise_hash_draws_unchanged_by_the_memo(self, seed):
        # Cold and warm memo alike, random_pairwise_hash draws the (a, b, p)
        # that randrange gives on a twin generator.
        next_prime.cache_clear()
        reference, twin = random.Random(seed), random.Random(seed)
        for _ in range(2):
            for universe, range_size in ((100, 4), (4095, 64), (2 ** 40, 1024)):
                p = next_prime.__wrapped__(max(universe, range_size ** 2, 1 << 16))
                expected = (reference.randrange(1, p), reference.randrange(0, p), p)
                drawn = random_pairwise_hash(universe, range_size, twin)
                assert (drawn.a, drawn.b, drawn.p) == expected
        assert twin.getstate() == reference.getstate()
        assert next_prime.cache_info().hits >= 3
