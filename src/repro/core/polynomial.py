"""Schwartz–Zippel set-equality sketches over ``Z_p`` (Section 2.2).

``HP-TestOut`` decides whether any edge leaves the tree by testing whether
the two multisets

* ``E↑(T)`` — edges whose *smaller* endpoint lies in ``T``, and
* ``E↓(T)`` — edges whose *larger* endpoint lies in ``T``

are equal (Observation 1): an edge with both endpoints in ``T`` contributes
its edge number to both sides, while an edge with exactly one endpoint in
``T`` contributes to exactly one side, so the multisets differ iff the cut is
non-empty.

Set equality is tested with the Blum–Kannan / Schwartz–Zippel polynomial
identity check: for an edge set ``D`` define ``P(D)(z) = Π_{e∈D} (z − #e)
mod p``; for a random evaluation point ``α ∈ Z_p`` the two products differ
with probability at least ``1 − B/p`` whenever the multisets differ, where
``B`` bounds the degree.

Each node only ever computes the product over *its own* incident edges
(:func:`local_product`); the per-node ``(up, down)`` pairs are multiplied up
the tree by the echo (:func:`product_pair_reducer`: multiplication mod p is
commutative and associative), which is what Lemma 1 needs.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from ..network.broadcast import Reducer
from ..network.errors import AlgorithmError

__all__ = [
    "local_product",
    "combine_products",
    "product_pair_reducer",
    "SetEqualitySketch",
]


def local_product(edge_numbers: Iterable[int], alpha: int, p: int) -> int:
    """``Π (alpha − e) mod p`` over the given edge numbers (1 for empty sets)."""
    if p < 2:
        raise AlgorithmError("the field modulus must be at least 2")
    product = 1
    for edge_number in edge_numbers:
        product = (product * (alpha - edge_number)) % p
    return product


def combine_products(values: Sequence[int], p: int) -> int:
    """Multiply already-reduced products modulo ``p`` (1 for an empty list)."""
    product = 1
    for value in values:
        product = (product * value) % p
    return product


def product_pair_reducer(p: int) -> Reducer:
    """Echo aggregation of ``(up, down)`` product pairs: componentwise ``× mod p``."""

    def multiply(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
        return (a[0] * b[0]) % p, (a[1] * b[1]) % p

    return Reducer(multiply, (1, 1))


class SetEqualitySketch:
    """The root's ``(up, down)`` products with the evaluation parameters.

    The sketch of a tree is the pair of field elements
    ``(P(E↑)(α), P(E↓)(α))``, the product of its nodes' pairs under
    :func:`product_pair_reducer`.  ``HP-TestOut`` declares the cut non-empty
    iff the two components differ.
    """

    __slots__ = ("up", "down", "alpha", "p")

    def __init__(self, up: int, down: int, alpha: int, p: int) -> None:
        if p < 2:
            raise AlgorithmError("the field modulus must be at least 2")
        self.up = up % p
        self.down = down % p
        self.alpha = alpha % p
        self.p = p

    @classmethod
    def from_local_edges(
        cls,
        up_edge_numbers: Iterable[int],
        down_edge_numbers: Iterable[int],
        alpha: int,
        p: int,
    ) -> "SetEqualitySketch":
        """Sketch of a single node from its locally known incident edges."""
        return cls(
            up=local_product(up_edge_numbers, alpha, p),
            down=local_product(down_edge_numbers, alpha, p),
            alpha=alpha,
            p=p,
        )

    @property
    def sides_equal(self) -> bool:
        """True iff the two products agree (i.e. the test says "no leaving edge")."""
        return self.up == self.down

    def payload_bits(self) -> int:
        """Bits carried by an echo transporting this sketch (two field elements)."""
        return 2 * self.p.bit_length()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SetEqualitySketch(up={self.up}, down={self.down}, p={self.p})"
