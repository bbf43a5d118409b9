"""Hash families used by the paper's sampling procedures.

Three constructions live here:

* :class:`OddHashFunction` — the ε-odd hash of Section 2.1 / [33]:
  ``h(x) = 1 iff (a · x mod 2^w) ≤ t`` for a uniformly random *odd*
  multiplier ``a`` and uniform threshold ``t``.  For any non-empty set
  ``S``, an odd number of elements of ``S`` hash to 1 with probability at
  least 1/8, which is exactly what makes a single parity bit a useful
  "is-the-cut-empty?" test (``TestOut``).

* :class:`PairwiseIndependentHash` — a Carter–Wegman 2-universal hash into
  ``[r]`` (``r`` a power of two), used by ``FindAny`` (Section 4.1) to
  isolate a single cut edge (Lemma 4).

* :class:`KarpRabinFingerprint` — the classic fingerprint mod a random prime,
  mentioned in Section 1 as the way to compress an exponential ID space into
  a polynomial one w.h.p.

All three are plain value objects: they are generated at the initiating node,
broadcast to the tree in ``O(log(n + u))`` bits (their :meth:`description_bits`
reports the width), and evaluated locally at each node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..network.errors import AlgorithmError
from .primes import next_prime, prime_at_least

__all__ = [
    "OddHashFunction",
    "PairwiseIndependentHash",
    "KarpRabinFingerprint",
    "random_odd_hash",
    "random_pairwise_hash",
    "random_fingerprint",
]


_set_field = object.__setattr__


@dataclass(frozen=True, init=False)
class OddHashFunction:
    """The multiply-threshold 1/8-odd hash ``h(x) = [a·x mod 2^w ≤ t]``.

    FindMin draws one per iteration, so the constructor checks the
    arguments and sets the frozen fields directly rather than going through
    the generated ``__init__`` and ``__post_init__``.
    """

    multiplier: int
    threshold: int
    word_bits: int

    def __init__(self, multiplier: int, threshold: int, word_bits: int) -> None:
        if word_bits < 1:
            raise AlgorithmError("word_bits must be positive")
        if multiplier % 2 == 0:
            raise AlgorithmError("the multiplier of an odd hash must be odd")
        size = 1 << word_bits
        if not (1 <= multiplier < size):
            raise AlgorithmError("multiplier out of range [1, 2^w)")
        if not (1 <= threshold <= size):
            raise AlgorithmError("threshold out of range [1, 2^w]")
        _set_field(self, "multiplier", multiplier)
        _set_field(self, "threshold", threshold)
        _set_field(self, "word_bits", word_bits)

    def __call__(self, x: int) -> int:
        """Hash a non-negative integer to {0, 1}."""
        if x < 0:
            raise AlgorithmError("odd hash inputs must be non-negative")
        value = (self.multiplier * x) & ((1 << self.word_bits) - 1)
        return 1 if value <= self.threshold else 0

    def parity_of(self, values: Iterable[int]) -> int:
        """Parity of the number of elements of ``values`` hashing to 1.

        The multiply-threshold test is inlined so a whole incident-edge
        array is hashed in one pass without per-element attribute lookups
        (this is the building block of the fast sketch kernels in
        :mod:`repro.core.sketches`).
        """
        multiplier = self.multiplier
        threshold = self.threshold
        mask = (1 << self.word_bits) - 1
        parity = 0
        for value in values:
            if value < 0:
                raise AlgorithmError("odd hash inputs must be non-negative")
            if (multiplier * value) & mask <= threshold:
                parity ^= 1
        return parity

    def description_bits(self) -> int:
        """Bits needed to broadcast the function (multiplier + threshold)."""
        return 2 * self.word_bits


def random_odd_hash(universe_max: int, rng: random.Random) -> OddHashFunction:
    """Draw an odd hash for the universe ``[1, universe_max]``."""
    if universe_max < 1:
        raise AlgorithmError("universe_max must be at least 1")
    word_bits = max(universe_max.bit_length(), 1)
    multiplier = rng.randrange(1, 1 << word_bits)
    if multiplier % 2 == 0:
        multiplier -= 1
    threshold = rng.randrange(1, (1 << word_bits) + 1)
    return OddHashFunction(multiplier=multiplier, threshold=threshold, word_bits=word_bits)


@dataclass(frozen=True)
class PairwiseIndependentHash:
    """Carter–Wegman 2-universal hash ``x -> ((a·x + b) mod p) mod r``.

    ``r`` must be a power of two (FindAny inspects prefixes ``[2^i]`` of the
    range).  ``p`` is a prime much larger than both the universe and ``r``,
    so the distribution over ``[r]`` is uniform up to an ``O(r/p)`` bias.
    """

    a: int
    b: int
    p: int
    range_size: int

    def __post_init__(self) -> None:
        if self.range_size < 2 or self.range_size & (self.range_size - 1):
            raise AlgorithmError("range_size must be a power of two >= 2")
        if not (1 <= self.a < self.p) or not (0 <= self.b < self.p):
            raise AlgorithmError("hash coefficients out of range")

    def __call__(self, x: int) -> int:
        if x < 0:
            raise AlgorithmError("hash inputs must be non-negative")
        return ((self.a * x + self.b) % self.p) % self.range_size

    @property
    def log_range(self) -> int:
        return self.range_size.bit_length() - 1

    def description_bits(self) -> int:
        """Bits to broadcast the function: a, b (mod p) and lg r."""
        return 2 * self.p.bit_length() + self.range_size.bit_length()


def random_pairwise_hash(
    universe_max: int, range_size: int, rng: random.Random
) -> PairwiseIndependentHash:
    """Draw a 2-universal hash from ``[0, universe_max]`` into ``[range_size]``."""
    if range_size < 2 or range_size & (range_size - 1):
        raise AlgorithmError("range_size must be a power of two >= 2")
    # p must comfortably exceed the universe and the range so that the
    # double-mod bias is negligible.
    p = next_prime(max(universe_max, range_size * range_size, 1 << 16))
    a = rng.randrange(1, p)
    b = rng.randrange(0, p)
    return PairwiseIndependentHash(a=a, b=b, p=p, range_size=range_size)


@dataclass(frozen=True)
class KarpRabinFingerprint:
    """Karp–Rabin fingerprint: ``fp(x) = x mod p`` for a random prime ``p``.

    With ``p`` drawn uniformly from the primes below ``P``, two distinct
    IDs of at most ``id_bits`` bits collide with probability
    ``O(id_bits / (P / ln P))``; choosing ``P`` polynomial in ``n`` with a
    suitable exponent makes all ``O(n^2)`` pairwise collisions unlikely, which
    is the ID-space compression invoked in Section 1.
    """

    p: int

    def __call__(self, x: int) -> int:
        if x < 0:
            raise AlgorithmError("fingerprint inputs must be non-negative")
        return x % self.p

    def description_bits(self) -> int:
        return self.p.bit_length()


def random_fingerprint(
    n: int, c: float, id_bits: int, rng: random.Random
) -> KarpRabinFingerprint:
    """Draw a Karp–Rabin fingerprint suitable for ``n`` IDs of ``id_bits`` bits.

    The modulus is a uniformly random prime from ``[P, 2P]`` where
    ``P = n^(c+2) · id_bits`` (so that a union bound over all ID pairs keeps
    the collision probability below ``n^{-c}``).
    """
    if n < 1 or id_bits < 1:
        raise AlgorithmError("n and id_bits must be positive")
    lower = max(int(float(n) ** (c + 2)) * id_bits, 1 << 16)
    candidate = rng.randrange(lower, 2 * lower)
    return KarpRabinFingerprint(p=prime_at_least(candidate))
