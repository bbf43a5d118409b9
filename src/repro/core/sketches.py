"""Node-local sketch values carried by the echoes of the KKT procedures.

Every procedure in the paper aggregates *node-local* quantities up the tree:

* ``TestOut`` — the parity of the hashed incident-edge set of each node
  (:func:`local_parity`); parities XOR up the tree, and edges internal to the
  tree cancel because they are counted at both endpoints.

* ``FindAny`` — (i) the prefix-parity vector ``h_i(y)`` = parity of the
  node's incident edges hashing into ``[2^i]`` (:func:`local_prefix_parities`),
  and (ii) the XOR of the edge numbers of the incident edges hashing below a
  chosen prefix (:func:`local_xor_below`); both cancel on internal edges and
  therefore isolate cut edges.

* ``FindMin`` — ``w`` parities in parallel, one per weight sub-range
  (:func:`local_range_parities`), packed into a single ``w``-bit echo word.

These are pure functions of a node's incident edge list plus the broadcast
parameters, matching the locality contract of the broadcast-and-echo
executor.

Each kernel has two implementations, one per tier of :mod:`repro.fastpath`:

* the **reference** form (the ``local_*`` functions below) — one call per
  node, re-hashing every incident edge once per prefix level / weight range
  and returning parity *lists*; the broadcast-and-echo executor folds them
  node by node;
* the **columnar** form (``*_words_all``, ``hp_products_all``) — one fused
  call per broadcast-and-echo that returns the tree's *aggregate*, the value
  the echo delivers at the root (HP-TestOut's: the answer its aggregate
  gives), read from the tree's cut column of the graph's
  :class:`~repro.network.columnar.ColumnarGraph` snapshot.  It hashes each
  cut edge exactly once, derives every prefix parity from ``h(e).bit_length()``
  (``h(e) < 2^i`` iff ``i ≥ bitlen(h(e))``, so one XOR with a precomputed
  mask flips all the prefixes an edge belongs to), and packs parities into
  a single int word.

A columnar kernel's aggregate equals the reference fold over the tree's
rows, bit for bit (pinned by ``tests/core/test_columnar_kernels.py``), and
it reads only the tree's cut column
(:class:`~repro.network.columnar.CutColumn`, memoised per tree by
:meth:`~repro.network.broadcast.TreeStructure.cut_column`): one bisection
finds the tested window.  An edge with both endpoints in the tree adds the
same value at each end of an XOR and cancels, so the XOR kernels see only
cut edges anyway.  HP-TestOut's internal edges multiply the same factor
``I`` into both products instead — ``up = I·C↑`` and ``down = I·C↓`` over
the cut edges' products ``C↑`` and ``C↓`` — so over a prime field
``up ≡ down`` iff ``C↑ ≡ C↓`` or ``I ≡ 0``, and ``I ≡ 0`` iff some in-window
internal edge has ``#e ≡ α (mod p)``.  The kernel looks up the edge numbers
``α, α + p, …`` up to the tree's largest edge number (its statistics echo's
``maxEdgeNum``) — only ``α`` when ``p`` exceeds it, which
:func:`~repro.core.primes.prime_for_field` guarantees — so it returns the
reference fold's *answer* exactly, though not its pair of products.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Sequence, Tuple

from ..network.columnar import ColumnarGraph, CutColumn
from .hashing import OddHashFunction, PairwiseIndependentHash

__all__ = [
    "local_parity",
    "local_range_parities",
    "local_prefix_parities",
    "local_xor_below",
    "prefix_flip_masks",
    "range_parity_words_all",
    "prefix_parity_words_all",
    "xor_below_words_all",
    "hp_products_all",
    "pack_parity_word",
    "unpack_parity_word",
]

def local_parity(
    edge_numbers: Iterable[int],
    odd_hash: OddHashFunction,
) -> int:
    """Parity (0/1) of the number of given edge numbers hashing to 1."""
    return odd_hash.parity_of(edge_numbers)


def local_range_parities(
    edges: Sequence[Tuple[int, int]],
    odd_hash: OddHashFunction,
    ranges: Sequence[Tuple[int, int]],
) -> List[int]:
    """Per-range parities for FindMin's parallel TestOuts.

    ``edges`` is a list of ``(augmented_weight, edge_number)`` pairs for the
    node's incident edges; ``ranges`` is the list of ``[j_i, k_i]`` intervals
    (inclusive) being tested in parallel.  The same hash function is reused
    for every range, exactly as in Section 3.1.
    """
    parities = [0] * len(ranges)
    for weight, edge_number in edges:
        hashed = odd_hash(edge_number)
        if not hashed:
            continue
        for index, (low, high) in enumerate(ranges):
            if low <= weight <= high:
                parities[index] ^= 1
    return parities


def local_prefix_parities(
    edge_numbers: Iterable[int],
    pairwise_hash: PairwiseIndependentHash,
) -> List[int]:
    """FindAny step 3(b): parity of incident edges hashing into ``[2^i]``.

    Index ``i`` runs from 0 to ``lg r`` inclusive, so the last entry is the
    parity of *all* incident edges.
    """
    log_range = pairwise_hash.log_range
    parities = [0] * (log_range + 1)
    for edge_number in edge_numbers:
        value = pairwise_hash(edge_number)
        for i in range(log_range + 1):
            if value < (1 << i):
                parities[i] ^= 1
    return parities


def local_xor_below(
    edge_numbers: Iterable[int],
    pairwise_hash: PairwiseIndependentHash,
    prefix_exponent: int,
) -> int:
    """FindAny step 3(d): XOR of incident edge numbers hashing below ``2^prefix``."""
    result = 0
    for edge_number in edge_numbers:
        if pairwise_hash(edge_number) < (1 << prefix_exponent):
            result ^= edge_number
    return result


# ---------------------------------------------------------------------- #
# columnar kernels over the tree's cut column (see repro.fastpath)
# ---------------------------------------------------------------------- #
def prefix_flip_masks(log_range: int) -> List[int]:
    """``masks[b]`` flips every prefix parity an edge with bit-length ``b`` joins.

    ``h(e) < 2^i`` iff ``i >= h(e).bit_length()``, so hashing into value
    ``v`` flips parities ``bitlen(v) .. log_range`` — one precomputed XOR
    mask per possible bit length.
    """
    full = (1 << (log_range + 1)) - 1
    return [full & ~((1 << b) - 1) for b in range(log_range + 1)]


def range_parity_words_all(
    odd_hash: OddHashFunction,
    lows: Sequence[int],
    highs: Sequence[int],
    cut: CutColumn,
) -> int:
    """FindMin's parallel TestOut parity word, aggregated over a tree.

    Returns the XOR over the tree's nodes of the word whose bit ``i`` is
    ``local_range_parities(...)[i]`` for the ranges ``[lows[i], highs[i]]``,
    which must be sorted and disjoint (``highs[i] < lows[i + 1]``) so that an
    edge flips exactly one range bit; ``FindMin``'s ``w``-wise splits and
    ``Sample``'s pivot intervals always are.  ``cut`` is the tree's cut
    column; each of its edges inside ``[lows[0], highs[-1]]`` is hashed once
    and finds its containing range by bisection.
    """
    multiplier = odd_hash.multiplier
    threshold = odd_hash.threshold
    word_mask = (1 << odd_hash.word_bits) - 1
    aug = cut.aug
    start = bisect_left(aug, lows[0])
    stop = bisect_right(aug, highs[-1], start)
    word = 0
    for weight, number in zip(aug[start:stop], cut.numbers[start:stop]):
        if (multiplier * number) & word_mask <= threshold:
            index = bisect_right(lows, weight) - 1
            if weight <= highs[index]:
                word ^= 1 << index
    return word


def prefix_parity_words_all(
    pairwise: PairwiseIndependentHash,
    masks: Sequence[int],
    cut: CutColumn,
) -> int:
    """FindAny's prefix-parity word, aggregated over a tree.

    Returns the XOR over the tree's nodes of the word whose bit ``i`` is
    ``local_prefix_parities(...)[i]``, the parity of the node's incident
    edges hashing into ``[2^i]``; ``masks`` comes from
    :func:`prefix_flip_masks` and ``cut`` is the tree's cut column.
    """
    a, b, p = pairwise.a, pairwise.b, pairwise.p
    range_size = pairwise.range_size
    word = 0
    for number in cut.numbers:
        word ^= masks[(((a * number + b) % p) % range_size).bit_length()]
    return word


def xor_below_words_all(
    pairwise: PairwiseIndependentHash,
    prefix_exponent: int,
    cut: CutColumn,
) -> int:
    """FindAny's XOR of edge numbers hashing below ``2^prefix``, over a tree.

    Returns the XOR over the tree's nodes of ``local_xor_below(...)``;
    ``cut`` is the tree's cut column.
    """
    limit = 1 << prefix_exponent
    a, b, p = pairwise.a, pairwise.b, pairwise.p
    range_size = pairwise.range_size
    result = 0
    for number in cut.numbers:
        if ((a * number + b) % p) % range_size < limit:
            result ^= number
    return result


def _internal_factor_vanishes(
    cols: ColumnarGraph,
    alpha: int,
    p: int,
    low: int,
    high: int,
    row_mask: bytearray,
    max_number: int,
) -> bool:
    """Whether an in-window edge inside ``row_mask`` has ``#e ≡ α (mod p)``.

    Walks the edge numbers ``α, α + p, …`` up to ``max_number``, the largest
    edge number incident to the rows (no internal edge exceeds it), decodes
    each to its endpoints ``(u, v)`` and bisects ``u``'s row (whose slots
    are sorted by edge number) for it.
    """
    id_bits = cols.id_bits
    id_mask = (1 << id_bits) - 1
    pos, indptr = cols.pos, cols.indptr
    numbers, augmented = cols.numbers, cols.augmented
    for number in range(alpha % p, max_number + 1, p):
        urow = pos.get(number >> id_bits)
        vrow = pos.get(number & id_mask)
        if urow is None or vrow is None or not (row_mask[urow] and row_mask[vrow]):
            continue
        stop = indptr[urow + 1]
        slot = bisect_left(numbers, number, indptr[urow], stop)
        if slot < stop and numbers[slot] == number and low <= augmented[slot] <= high:
            return True
    return False


def hp_products_all(
    cols: ColumnarGraph,
    alpha: int,
    p: int,
    low: int,
    high: int,
    row_mask: bytearray,
    max_number: int,
    cut: CutColumn,
) -> bool:
    """HP-TestOut's answer over a tree: do its two products differ?

    The reference echo is the componentwise product mod ``p`` of the pairs
    ``local_product`` computes over each node's "up" and "down" incident
    edges with augmented weight in ``[low, high]``: ``(α − #e)`` joins
    ``up`` once if the edge's smaller endpoint is in the tree and ``down``
    once if its larger one is.  Returns ``up != down``, which is exact for
    a prime ``p``: the kernel multiplies only the cut edges' factors and
    asks :func:`_internal_factor_vanishes` whether the internal edges'
    common factor vanishes (see the module docstring).  ``row_mask`` is the
    tree's row membership mask, ``max_number`` its largest incident edge
    number and ``cut`` its cut column.
    """
    aug = cut.aug
    start = bisect_left(aug, low)
    stop = bisect_right(aug, high, start)
    up_product = down_product = 1
    for number, up in zip(cut.numbers[start:stop], cut.up[start:stop]):
        if up:
            up_product = up_product * (alpha - number) % p
        else:
            down_product = down_product * (alpha - number) % p
    if up_product == down_product:
        return False
    return not _internal_factor_vanishes(cols, alpha, p, low, high, row_mask, max_number)


def pack_parity_word(parities: Sequence[int]) -> int:
    """Pack a list of single-bit parities into one word (bit i = parity i)."""
    word = 0
    for index, bit in enumerate(parities):
        if bit:
            word |= 1 << index
    return word


def unpack_parity_word(word: int, width: int) -> List[int]:
    """Inverse of :func:`pack_parity_word`."""
    return [(word >> index) & 1 for index in range(width)]
