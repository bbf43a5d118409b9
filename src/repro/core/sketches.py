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

Each kernel has two implementations:

* the **reference** form (the original names below) — re-hashes every
  incident edge once per prefix level / weight range, returning parity
  *lists*;
* the **one-pass** form (``prefix_parity_word``, ``range_parity_word``,
  ``xor_below_from_numbers``) — hashes each incident edge exactly once,
  derives every prefix parity from ``h(e).bit_length()`` (``h(e) < 2^i`` iff
  ``i ≥ bitlen(h(e))``, so one XOR with a precomputed mask flips all the
  prefixes an edge belongs to), locates the one weight range containing an
  edge by bisection, and accumulates everything as single-int parity words.

The two forms are numerically identical (pinned by ``tests/core/
test_sketches.py``); :mod:`repro.fastpath` decides which one the procedures
call.

A third tier — the **batched** kernels (``*_words_all``, ``hp_products_all``)
— computes the same per-node words for *every node of the graph in one pass*
over the flat :class:`~repro.network.columnar.ColumnarGraph` columns, instead
of one kernel call per node per broadcast-and-echo.  Each batched kernel is
word-for-word equal to mapping its per-node counterpart over the nodes
(pinned by ``tests/core/test_columnar_kernels.py``), so the dispatch decision
in :func:`repro.fastpath.should_batch` is wall-clock-only.  When numpy is
importable (:mod:`repro.accel`) the batched kernels vectorise internally —
but only where exact: uint64 wrap-around multiplication for the odd hash, and
the Carter–Wegman hash only when its products fit int64; otherwise they run
the same stdlib loops.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..accel import numpy_or_none
from ..network.columnar import ColumnarGraph
from ..network.graph import Edge, Graph
from .hashing import OddHashFunction, PairwiseIndependentHash

__all__ = [
    "local_parity",
    "local_range_parities",
    "local_prefix_parities",
    "local_xor_below",
    "range_parity_word",
    "prefix_parity_word",
    "prefix_flip_masks",
    "xor_below_from_numbers",
    "range_parity_words_all",
    "prefix_parity_words_all",
    "xor_below_words_all",
    "hp_products_all",
    "ranges_are_disjoint_sorted",
    "pack_parity_word",
    "unpack_parity_word",
]

_UINT64_MAX = (1 << 64) - 1


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
# one-pass fast kernels (see repro.fastpath)
# ---------------------------------------------------------------------- #
def ranges_are_disjoint_sorted(ranges: Sequence[Tuple[int, int]]) -> bool:
    """True iff the ranges are sorted ascending and pairwise disjoint.

    ``FindMin``'s ``w``-wise splits and ``Sample``'s pivot intervals always
    are; the bisection kernel below requires it (an edge flips exactly one
    range bit), so callers fall back to the reference kernel otherwise.
    """
    return all(
        ranges[i][1] < ranges[i + 1][0] for i in range(len(ranges) - 1)
    )


def range_parity_word(
    weights_sorted: Sequence[int],
    edge_numbers: Sequence[int],
    odd_hash: OddHashFunction,
    lows: Sequence[int],
    highs: Sequence[int],
) -> int:
    """One-pass, word-packed :func:`local_range_parities`.

    ``weights_sorted`` must be ascending, with ``edge_numbers`` parallel to
    it (the :class:`~repro.network.graph.IncidentArrays` ``aug_sorted`` /
    ``numbers_by_aug`` pair); ``lows``/``highs`` are the (sorted, disjoint)
    range bounds.  The kernel bisects straight to the incident edges inside
    ``[lows[0], highs[-1]]`` — after a few FindMin narrowings that span is a
    tiny fraction of the degree — hashes each exactly once (the
    multiply-threshold test inlined), finds its containing range by a second
    bisection, and accumulates the parities as a single int: bit ``i`` of the
    result is ``local_range_parities(...)[i]``.
    """
    start = bisect_left(weights_sorted, lows[0])
    stop = bisect_right(weights_sorted, highs[-1], start)
    multiplier = odd_hash.multiplier
    threshold = odd_hash.threshold
    mask = (1 << odd_hash.word_bits) - 1
    word = 0
    for weight, number in zip(
        weights_sorted[start:stop], edge_numbers[start:stop]
    ):
        if (multiplier * number) & mask <= threshold:
            index = bisect_right(lows, weight) - 1
            if weight <= highs[index]:
                word ^= 1 << index
    return word


def prefix_flip_masks(log_range: int) -> List[int]:
    """``masks[b]`` flips every prefix parity an edge with bit-length ``b`` joins.

    ``h(e) < 2^i`` iff ``i >= h(e).bit_length()``, so hashing into value
    ``v`` flips parities ``bitlen(v) .. log_range`` — one precomputed XOR
    mask per possible bit length.
    """
    full = (1 << (log_range + 1)) - 1
    return [full & ~((1 << b) - 1) for b in range(log_range + 1)]


def prefix_parity_word(
    edge_numbers: Sequence[int],
    pairwise_hash: PairwiseIndependentHash,
    masks: Sequence[int],
) -> int:
    """One-pass, word-packed :func:`local_prefix_parities`.

    Bit ``i`` of the result is the parity of the incident edges hashing into
    ``[2^i]``; ``masks`` comes from :func:`prefix_flip_masks`.  Each edge is
    hashed exactly once instead of once per prefix level.
    """
    a, b, p = pairwise_hash.a, pairwise_hash.b, pairwise_hash.p
    range_size = pairwise_hash.range_size
    word = 0
    for number in edge_numbers:
        word ^= masks[(((a * number + b) % p) % range_size).bit_length()]
    return word


def xor_below_from_numbers(
    edge_numbers: Sequence[int],
    pairwise_hash: PairwiseIndependentHash,
    prefix_exponent: int,
) -> int:
    """:func:`local_xor_below` over a precomputed edge-number array."""
    a, b, p = pairwise_hash.a, pairwise_hash.b, pairwise_hash.p
    range_size = pairwise_hash.range_size
    limit = 1 << prefix_exponent
    result = 0
    for number in edge_numbers:
        if ((a * number + b) % p) % range_size < limit:
            result ^= number
    return result


# ---------------------------------------------------------------------- #
# batched whole-graph kernels over ColumnarGraph columns
# ---------------------------------------------------------------------- #
def _xor_segments(np, values, indptr) -> List[int]:
    """Per-CSR-segment XOR of ``values``, as Python ints (numpy tier).

    ``reduceat`` mis-handles empty segments two ways: an empty row's result
    is ``values[start]`` rather than the identity, and an out-of-bounds
    start (a trailing empty row has ``start == len(values)``) cannot simply
    be clipped — a clipped start steals the last slot from the *previous*
    row's segment.  Reducing only at the non-empty rows' starts (strictly
    increasing, always in bounds) sidesteps both: empty rows between them
    contribute no slots, so each non-empty segment still ends exactly at
    its own stop.
    """
    num_rows = len(indptr) - 1
    out = np.zeros(num_rows, dtype=values.dtype)
    if values.size == 0:
        return out.tolist()
    starts = indptr[:-1]
    nonempty = starts < indptr[1:]
    out[nonempty] = np.bitwise_xor.reduceat(values, starts[nonempty])
    return out.tolist()


def _pairwise_fits_int64(pairwise: PairwiseIndependentHash, max_number: int) -> bool:
    """True iff ``a * x + b`` stays below 2^63 for every edge number."""
    return pairwise.a * max_number + pairwise.b < (1 << 63)


def range_parity_words_all(
    cols: ColumnarGraph,
    odd_hash: OddHashFunction,
    lows: Sequence[int],
    highs: Sequence[int],
) -> List[int]:
    """:func:`range_parity_word` for every node, one pass over the columns.

    ``words[cols.pos[node]]`` equals ``range_parity_word(...)`` over that
    node's incident edges.  ``lows``/``highs`` must be sorted and disjoint
    (same contract as the per-node kernel).
    """
    np = numpy_or_none()
    if np is not None and cols.fits64 and odd_hash.word_bits <= 64 and len(lows) <= 64:
        # Highs clamp to the graph maximum (value-identical: no weight can
        # exceed it), which brings FindMin's open upper bound 2^256 back
        # into uint64 territory.
        bounded_highs = [min(high, cols.max_augmented) for high in highs]
        if all(low <= _UINT64_MAX for low in lows) and all(
            high <= _UINT64_MAX for high in bounded_highs
        ):
            npc = cols.numpy_columns()
            weights = npc.aug_sorted
            hashed = (np.uint64(odd_hash.multiplier) * npc.numbers_by_aug) & np.uint64(
                (1 << odd_hash.word_bits) - 1
            )
            ok = hashed <= np.uint64(odd_hash.threshold)
            lows_arr = np.asarray(lows, dtype=np.uint64)
            highs_arr = np.asarray(bounded_highs, dtype=np.uint64)
            index = np.searchsorted(lows_arr, weights, side="right").astype(np.int64) - 1
            clipped = np.maximum(index, 0)
            valid = ok & (index >= 0) & (weights <= highs_arr[clipped])
            contrib = np.where(
                valid, np.uint64(1) << clipped.astype(np.uint64), np.uint64(0)
            )
            return _xor_segments(np, contrib, npc.indptr)

    indptr = cols.indptr
    aug_sorted = cols.aug_sorted
    numbers = cols.numbers_by_aug
    multiplier = odd_hash.multiplier
    threshold = odd_hash.threshold
    mask = (1 << odd_hash.word_bits) - 1
    low0 = lows[0]
    high_last = highs[-1]
    words = [0] * cols.num_nodes
    for row in range(cols.num_nodes):
        begin, end = indptr[row], indptr[row + 1]
        start = bisect_left(aug_sorted, low0, begin, end)
        stop = bisect_right(aug_sorted, high_last, start, end)
        word = 0
        for slot in range(start, stop):
            if (multiplier * numbers[slot]) & mask <= threshold:
                weight = aug_sorted[slot]
                index = bisect_right(lows, weight) - 1
                if weight <= highs[index]:
                    word ^= 1 << index
        words[row] = word
    return words


def prefix_parity_words_all(
    cols: ColumnarGraph,
    pairwise: PairwiseIndependentHash,
    masks: Sequence[int],
) -> List[int]:
    """:func:`prefix_parity_word` for every node, one pass over the columns."""
    np = numpy_or_none()
    log_range = pairwise.log_range
    if (
        np is not None
        and cols.fits64
        and log_range + 1 <= 63
        and _pairwise_fits_int64(pairwise, cols.max_number)
    ):
        npc = cols.numpy_columns()
        numbers = npc.numbers.astype(np.int64)
        hashed = ((np.int64(pairwise.a) * numbers + np.int64(pairwise.b)) % np.int64(
            pairwise.p
        )) % np.int64(pairwise.range_size)
        # bit_length(h) == #{powers of two <= h} for the powers below the
        # range, which searchsorted counts directly.
        powers = np.left_shift(
            np.int64(1), np.arange(max(log_range, 1), dtype=np.int64)
        )
        bitlens = np.searchsorted(powers, hashed, side="right")
        flips = np.asarray(masks, dtype=np.uint64)[bitlens]
        return _xor_segments(np, flips, npc.indptr)

    a, b, p = pairwise.a, pairwise.b, pairwise.p
    range_size = pairwise.range_size
    indptr = cols.indptr
    numbers = cols.numbers
    words = [0] * cols.num_nodes
    for row in range(cols.num_nodes):
        word = 0
        for slot in range(indptr[row], indptr[row + 1]):
            word ^= masks[(((a * numbers[slot] + b) % p) % range_size).bit_length()]
        words[row] = word
    return words


def xor_below_words_all(
    cols: ColumnarGraph,
    pairwise: PairwiseIndependentHash,
    prefix_exponent: int,
) -> List[int]:
    """:func:`xor_below_from_numbers` for every node, one pass over the columns."""
    np = numpy_or_none()
    if (
        np is not None
        and cols.fits64
        and _pairwise_fits_int64(pairwise, cols.max_number)
    ):
        npc = cols.numpy_columns()
        numbers = npc.numbers.astype(np.int64)
        hashed = ((np.int64(pairwise.a) * numbers + np.int64(pairwise.b)) % np.int64(
            pairwise.p
        )) % np.int64(pairwise.range_size)
        below = hashed < np.int64(1 << prefix_exponent)
        contrib = np.where(below, npc.numbers, np.uint64(0))
        return _xor_segments(np, contrib, npc.indptr)

    a, b, p = pairwise.a, pairwise.b, pairwise.p
    range_size = pairwise.range_size
    limit = 1 << prefix_exponent
    indptr = cols.indptr
    numbers = cols.numbers
    words = [0] * cols.num_nodes
    for row in range(cols.num_nodes):
        result = 0
        for slot in range(indptr[row], indptr[row + 1]):
            number = numbers[slot]
            if ((a * number + b) % p) % range_size < limit:
                result ^= number
        words[row] = result
    return words


def hp_products_all(
    cols: ColumnarGraph,
    alpha: int,
    p: int,
    low: int,
    high: int,
) -> List[Tuple[int, int]]:
    """HP-TestOut's per-node ``(up, down)`` products for every node at once.

    ``products[cols.pos[node]]`` is the pair of Schwartz–Zippel products over
    the node's incident edges with augmented weight in ``[low, high]``.
    Stays on the stdlib loop at every scale: the mod-``p`` product chain has
    no exact vectorised form (intermediate products overflow any fixed
    width), and multiplication mod ``p`` being commutative makes the
    weight-sorted slot order harmless — same argument as the per-node path.
    """
    indptr = cols.indptr
    aug_sorted = cols.aug_sorted
    numbers = cols.numbers_by_aug
    up = cols.up_by_aug
    products: List[Tuple[int, int]] = [(1, 1)] * cols.num_nodes
    for row in range(cols.num_nodes):
        begin, end = indptr[row], indptr[row + 1]
        start = bisect_left(aug_sorted, low, begin, end)
        stop = bisect_right(aug_sorted, high, start, end)
        if start == stop:
            continue
        up_product = down_product = 1
        for slot in range(start, stop):
            if up[slot]:
                up_product = (up_product * (alpha - numbers[slot])) % p
            else:
                down_product = (down_product * (alpha - numbers[slot])) % p
        products[row] = (up_product, down_product)
    return products


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
