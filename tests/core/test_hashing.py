"""Unit + statistical tests for the hash families of Section 2.1 / 4.1."""

import random

import pytest

from repro.core.hashing import (
    KarpRabinFingerprint,
    OddHashFunction,
    PairwiseIndependentHash,
    draw_below,
    draw_odd_hash,
    random_fingerprint,
    random_odd_hash,
    random_pairwise_hash,
)
from repro.core.primes import next_prime, prime_for_field
from repro.network.errors import AlgorithmError


#: Widths ``2^k - 1`` (no rejection), ``2^k`` (about half the draws
#: rejected), ``2^k + 1``, and HP-TestOut field primes, small to huge.
DRAW_WIDTHS = sorted(
    {width for k in range(1, 80, 3) for width in (2 ** k - 1, 2 ** k, 2 ** k + 1)}
    | {prime_for_field(m, b, 32.0 ** -2) for m, b in ((2, 1), (700, 90), (2 ** 40, 5000))}
    | {next_prime(2 ** 61), next_prime(2 ** 200)}
)


class TestDrawBelow:
    """The probes' draws equal ``Random.randrange`` on a twin generator.

    Every hash and ``α`` a search draws is drawn by :func:`draw_below`'s
    loop (inline in ``CutProbe.search``, which
    ``tests/core/test_testout.py::TestProbeDrawOrder`` pins against
    :func:`draw_odd_hash`), so if CPython's ``randrange`` ever consumed bits
    differently, the counters would move; this pins the equality on every
    Python CI runs.
    """

    @pytest.mark.parametrize("seed", range(0, 400, 7))
    def test_matches_randrange(self, seed):
        reference, twin = random.Random(seed), random.Random(seed)
        for width in DRAW_WIDTHS:
            for start in (0, 1):
                expected = reference.randrange(start, start + width)
                assert start + draw_below(twin.getrandbits, width) == expected
        assert twin.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", range(0, 400, 7))
    def test_odd_hash_matches_randrange_draws(self, seed):
        reference, twin = random.Random(seed), random.Random(seed)
        for word_bits in (1, 2, 5, 8, 13, 32, 61, 64, 100):
            size = 1 << word_bits
            multiplier = reference.randrange(1, size)
            if multiplier % 2 == 0:
                multiplier -= 1
            threshold = reference.randrange(1, size + 1)
            expected = OddHashFunction(multiplier, threshold, word_bits)
            assert draw_odd_hash(word_bits, twin.getrandbits) == expected
        assert twin.getstate() == reference.getstate()


class TestOddHashConstruction:
    def test_requires_odd_multiplier(self):
        with pytest.raises(AlgorithmError):
            OddHashFunction(multiplier=4, threshold=3, word_bits=8)

    def test_threshold_range(self):
        with pytest.raises(AlgorithmError):
            OddHashFunction(multiplier=3, threshold=0, word_bits=8)
        with pytest.raises(AlgorithmError):
            OddHashFunction(multiplier=3, threshold=257, word_bits=8)

    def test_output_is_binary(self):
        rng = random.Random(0)
        h = random_odd_hash(1000, rng)
        assert set(h(x) for x in range(1, 200)) <= {0, 1}

    def test_rejects_negative_input(self):
        h = random_odd_hash(100, random.Random(0))
        with pytest.raises(AlgorithmError):
            h(-5)

    def test_parity_of(self):
        h = OddHashFunction(multiplier=1, threshold=4, word_bits=3)
        # With multiplier 1 and word 3: h(x) = 1 iff (x mod 8) <= 4.
        assert h.parity_of([1, 2]) == 0  # both hash to 1 -> even
        assert h.parity_of([1, 7]) == 1  # exactly one hashes to 1

    def test_description_bits(self):
        h = random_odd_hash(2 ** 20, random.Random(1))
        assert h.description_bits() == 2 * h.word_bits

    def test_deterministic_given_seed(self):
        a = random_odd_hash(10 ** 6, random.Random(9))
        b = random_odd_hash(10 ** 6, random.Random(9))
        assert a == b


class TestOddHashIsOdd:
    """Empirical check of the 1/8-oddness property ([33])."""

    @pytest.mark.parametrize("set_size", [1, 2, 5, 17, 64])
    def test_odd_parity_probability_at_least_eighth(self, set_size):
        rng = random.Random(set_size)
        universe = 2 ** 16
        elements = rng.sample(range(1, universe), set_size)
        trials = 400
        odd = 0
        for _ in range(trials):
            h = random_odd_hash(universe, rng)
            if sum(h(x) for x in elements) % 2 == 1:
                odd += 1
        # The bound is 1/8 = 50/400; allow statistical slack but stay well
        # above "never": observed frequency must exceed 6%.
        assert odd / trials > 0.06

    def test_empty_set_never_odd(self):
        rng = random.Random(3)
        for _ in range(50):
            h = random_odd_hash(1000, rng)
            assert h.parity_of([]) == 0


class TestPairwiseHash:
    def test_range_is_power_of_two(self):
        with pytest.raises(AlgorithmError):
            PairwiseIndependentHash(a=1, b=0, p=101, range_size=12)

    def test_output_in_range(self):
        rng = random.Random(2)
        h = random_pairwise_hash(10 ** 6, 64, rng)
        assert all(0 <= h(x) < 64 for x in range(1, 500))

    def test_log_range(self):
        rng = random.Random(2)
        h = random_pairwise_hash(1000, 128, rng)
        assert h.log_range == 7

    def test_rejects_non_power_range(self):
        with pytest.raises(AlgorithmError):
            random_pairwise_hash(1000, 100, random.Random(0))

    def test_roughly_uniform(self):
        rng = random.Random(7)
        h = random_pairwise_hash(10 ** 6, 16, rng)
        counts = [0] * 16
        n_samples = 4096
        for x in range(1, n_samples + 1):
            counts[h(x)] += 1
        expected = n_samples / 16
        assert max(counts) < 2 * expected
        assert min(counts) > expected / 2

    def test_pairwise_collision_rate(self):
        """Pr[h(x) == h(y)] should be close to 1/r for random pairs."""
        rng = random.Random(11)
        r = 32
        collisions = 0
        trials = 600
        for _ in range(trials):
            h = random_pairwise_hash(10 ** 6, r, rng)
            x, y = rng.sample(range(1, 10 ** 6), 2)
            if h(x) == h(y):
                collisions += 1
        assert collisions / trials < 3.0 / r + 0.05


class TestKarpRabin:
    def test_fingerprint_is_mod(self):
        fp = KarpRabinFingerprint(p=97)
        assert fp(1000) == 1000 % 97

    def test_rejects_negative(self):
        fp = KarpRabinFingerprint(p=97)
        with pytest.raises(AlgorithmError):
            fp(-1)

    def test_random_fingerprint_compresses_exponential_ids(self):
        rng = random.Random(5)
        n, id_bits = 64, 128
        fp = random_fingerprint(n=n, c=1.0, id_bits=id_bits, rng=rng)
        ids = [rng.getrandbits(id_bits) | 1 for _ in range(n)]
        fingerprints = [fp(x) for x in ids]
        # Output space is polynomial in n -> far fewer bits than the input.
        assert fp.p.bit_length() < id_bits
        # W.h.p. all fingerprints are distinct.
        assert len(set(fingerprints)) == n

    def test_random_fingerprint_validates_input(self):
        with pytest.raises(AlgorithmError):
            random_fingerprint(n=0, c=1.0, id_bits=8, rng=random.Random(0))
