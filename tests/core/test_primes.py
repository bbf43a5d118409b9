"""Unit tests for primality testing and HP-TestOut prime selection."""

import pytest

from repro.core.primes import is_prime, next_prime, prime_at_least, prime_for_field


KNOWN_PRIMES = [2, 3, 5, 7, 11, 13, 97, 101, 7919, 104729, 2 ** 31 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 9, 100, 7917, 104730, 2 ** 31, 561, 41041, 825265]
# 561, 41041, 825265 are Carmichael numbers (strong pseudoprime stress cases).


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
        assert prime_for_field.cache_info().maxsize is not None
        for _ in range(2):
            with pytest.raises(ValueError):
                prime_for_field(100, 10, 0.0)
