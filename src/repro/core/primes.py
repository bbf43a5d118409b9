"""Primality testing and prime selection for HP-TestOut's field ``Z_p``.

Section 2.2 requires a prime ``p > max(maxEdgeNum(T), B/ε(n))`` where ``B``
is the number of edge endpoints incident to the tree and ``ε(n)`` is the
target error probability; arithmetic for the polynomial identity test is then
carried out modulo ``p``.

The Miller–Rabin test below is *deterministic* for every integer smaller than
3.3 · 10^24 thanks to the known minimal witness set {2, 3, 5, 7, 11, 13, 17,
19, 23, 29, 31, 37}; for larger inputs it falls back to a large number of
pseudo-random bases, which keeps the error probability far below anything
that matters for the simulation (and the primes we need are far smaller
anyway).
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Optional

__all__ = ["is_prime", "next_prime", "prime_for_field", "prime_at_least"]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller–Rabin round; True means "probably prime for base a"."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int, rng: Optional[random.Random] = None) -> bool:
    """Primality test (deterministic below ~3.3e24, Miller–Rabin above)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < _DETERMINISTIC_LIMIT:
        witnesses: Iterable[int] = _DETERMINISTIC_WITNESSES
    else:
        rng = rng if rng is not None else random.Random(0xC0FFEE)
        witnesses = [rng.randrange(2, n - 1) for _ in range(64)]

    for a in witnesses:
        if a % n == 0:
            continue
        if not _miller_rabin_round(n, a, d, r):
            return False
    return True


def next_prime(n: int) -> int:
    """The smallest prime strictly greater than ``n``."""
    candidate = max(n + 1, 2)
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        if candidate == 2:
            return 2
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def prime_at_least(n: int) -> int:
    """The smallest prime ``>= n``."""
    if n <= 2:
        return 2
    if is_prime(n):
        return n
    return next_prime(n)


@functools.lru_cache(maxsize=1024)
def prime_for_field(max_edge_number: int, num_endpoints: int, epsilon: float) -> int:
    """The prime ``p`` used by HP-TestOut (Section 2.2).

    ``p`` must exceed both ``maxEdgeNum(T)`` (so edge numbers are distinct
    field elements) and ``B / ε(n)`` (so the Schwartz–Zippel error is at most
    ``ε(n)``), where ``B`` is the number of edge endpoints incident to nodes
    of the tree.  Pure, so memoised (a raised error is not cached).
    """
    if epsilon <= 0 or epsilon >= 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    bound = max(max_edge_number, int(num_endpoints / epsilon) + 1, 3)
    return next_prime(bound)
