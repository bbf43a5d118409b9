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
  and returning parity *lists*;
* the **columnar** form (``*_words_all``, ``hp_products_all``) — one call per
  broadcast-and-echo, reading the tree's rows of the graph's
  :class:`~repro.network.columnar.ColumnarGraph` snapshot.  It hashes each
  incident edge exactly once, derives every prefix parity from
  ``h(e).bit_length()`` (``h(e) < 2^i`` iff ``i ≥ bitlen(h(e))``, so one XOR
  with a precomputed mask flips all the prefixes an edge belongs to), bisects
  each row's weight-sorted slots to the tested window, and packs the parities
  of a node into a single int word.

A columnar kernel maps the node of every row it is given to the packed
reference value of that node, word for word (pinned by
``tests/core/test_columnar_kernels.py``).  Its stdlib loop visits only the
given rows.  When numpy is importable (:mod:`repro.accel`) and the tree
holds at least half the graph (:func:`repro.fastpath.covers_half`), it
instead vectorises one pass over every row — but only where exact: uint64
wrap-around multiplication for the odd hash, and the Carter–Wegman hash only
when its products fit int64; otherwise the stdlib loop runs.  Either way the
words are identical, so the choice is wall-clock-only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import fastpath
from ..accel import numpy_or_none
from ..network.columnar import ColumnarGraph
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
# columnar kernels over the tree's rows (see repro.fastpath)
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


def prefix_flip_masks(log_range: int) -> List[int]:
    """``masks[b]`` flips every prefix parity an edge with bit-length ``b`` joins.

    ``h(e) < 2^i`` iff ``i >= h(e).bit_length()``, so hashing into value
    ``v`` flips parities ``bitlen(v) .. log_range`` — one precomputed XOR
    mask per possible bit length.
    """
    full = (1 << (log_range + 1)) - 1
    return [full & ~((1 << b) - 1) for b in range(log_range + 1)]


def _xor_segments(np, values, cols: ColumnarGraph) -> Dict[int, int]:
    """Per-row XOR of the slot ``values``, keyed by node ID (numpy tier).

    ``reduceat`` mis-handles empty segments two ways: an empty row's result
    is ``values[start]`` rather than the identity, and an out-of-bounds
    start (a trailing empty row has ``start == len(values)``) cannot simply
    be clipped — a clipped start steals the last slot from the *previous*
    row's segment.  Reducing only at the non-empty rows' starts (strictly
    increasing, always in bounds) sidesteps both: empty rows between them
    contribute no slots, so each non-empty segment still ends exactly at
    its own stop.
    """
    indptr = cols.numpy_columns().indptr
    out = np.zeros(cols.num_nodes, dtype=values.dtype)
    if values.size:
        starts = indptr[:-1]
        nonempty = starts < indptr[1:]
        out[nonempty] = np.bitwise_xor.reduceat(values, starts[nonempty])
    return dict(zip(cols.ids, out.tolist()))


def _pairwise_fits_int64(pairwise: PairwiseIndependentHash, max_number: int) -> bool:
    """True iff ``a * x + b`` stays below 2^63 for every edge number."""
    return pairwise.a * max_number + pairwise.b < (1 << 63)


def _whole_graph_numpy(cols: ColumnarGraph, rows: Sequence[int]) -> Optional[Any]:
    """numpy when a vectorised whole-graph pass should replace the row loop."""
    np = numpy_or_none()
    if np is None or not cols.fits64:
        return None
    return np if fastpath.covers_half(len(rows), cols.num_nodes) else None


def range_parity_words_all(
    cols: ColumnarGraph,
    odd_hash: OddHashFunction,
    lows: Sequence[int],
    highs: Sequence[int],
    rows: Sequence[int],
) -> Dict[int, int]:
    """FindMin's parallel TestOut parity words for the given rows.

    Maps the node of each row to its word: bit ``i`` is
    ``local_range_parities(...)[i]`` over the node's incident edges, for
    the ranges ``[lows[i], highs[i]]`` (sorted and disjoint, see
    :func:`ranges_are_disjoint_sorted`).  Each row bisects straight to its
    slots inside ``[lows[0], highs[-1]]`` — after a few FindMin narrowings a
    tiny fraction of the degree — hashes each exactly once and finds its
    containing range by a second bisection.
    """
    np = _whole_graph_numpy(cols, rows)
    if np is not None and odd_hash.word_bits <= 64 and len(lows) <= 64:
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
            return _xor_segments(np, contrib, cols)

    indptr = cols.indptr
    aug_sorted = cols.aug_sorted
    numbers = cols.numbers_by_aug
    multiplier = odd_hash.multiplier
    threshold = odd_hash.threshold
    mask = (1 << odd_hash.word_bits) - 1
    low0 = lows[0]
    high_last = highs[-1]
    ids = cols.ids
    words = dict.fromkeys(map(ids.__getitem__, rows), 0)
    for row in rows:
        begin, end = indptr[row], indptr[row + 1]
        start = bisect_left(aug_sorted, low0, begin, end)
        stop = bisect_right(aug_sorted, high_last, start, end)
        if start == stop:
            continue
        word = 0
        for slot in range(start, stop):
            if (multiplier * numbers[slot]) & mask <= threshold:
                weight = aug_sorted[slot]
                index = bisect_right(lows, weight) - 1
                if weight <= highs[index]:
                    word ^= 1 << index
        words[ids[row]] = word
    return words


def prefix_parity_words_all(
    cols: ColumnarGraph,
    pairwise: PairwiseIndependentHash,
    masks: Sequence[int],
    rows: Sequence[int],
) -> Dict[int, int]:
    """FindAny's prefix-parity words for the given rows.

    Maps the node of each row to its word: bit ``i`` is
    ``local_prefix_parities(...)[i]``, the parity of the node's incident
    edges hashing into ``[2^i]``; ``masks`` comes from
    :func:`prefix_flip_masks`.
    """
    np = _whole_graph_numpy(cols, rows)
    log_range = pairwise.log_range
    if (
        np is not None
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
        return _xor_segments(np, flips, cols)

    a, b, p = pairwise.a, pairwise.b, pairwise.p
    range_size = pairwise.range_size
    indptr = cols.indptr
    numbers = cols.numbers
    ids = cols.ids
    words: Dict[int, int] = {}
    for row in rows:
        word = 0
        for slot in range(indptr[row], indptr[row + 1]):
            word ^= masks[(((a * numbers[slot] + b) % p) % range_size).bit_length()]
        words[ids[row]] = word
    return words


def xor_below_words_all(
    cols: ColumnarGraph,
    pairwise: PairwiseIndependentHash,
    prefix_exponent: int,
    rows: Sequence[int],
) -> Dict[int, int]:
    """FindAny's XOR of edge numbers hashing below ``2^prefix`` for the given rows.

    Maps the node of each row to ``local_xor_below(...)`` over its incident
    edges.
    """
    np = _whole_graph_numpy(cols, rows)
    if np is not None and _pairwise_fits_int64(pairwise, cols.max_number):
        npc = cols.numpy_columns()
        numbers = npc.numbers.astype(np.int64)
        hashed = ((np.int64(pairwise.a) * numbers + np.int64(pairwise.b)) % np.int64(
            pairwise.p
        )) % np.int64(pairwise.range_size)
        below = hashed < np.int64(1 << prefix_exponent)
        contrib = np.where(below, npc.numbers, np.uint64(0))
        return _xor_segments(np, contrib, cols)

    a, b, p = pairwise.a, pairwise.b, pairwise.p
    range_size = pairwise.range_size
    limit = 1 << prefix_exponent
    indptr = cols.indptr
    numbers = cols.numbers
    ids = cols.ids
    words: Dict[int, int] = {}
    for row in rows:
        result = 0
        for slot in range(indptr[row], indptr[row + 1]):
            number = numbers[slot]
            if ((a * number + b) % p) % range_size < limit:
                result ^= number
        words[ids[row]] = result
    return words


def hp_products_all(
    cols: ColumnarGraph,
    alpha: int,
    p: int,
    low: int,
    high: int,
    rows: Sequence[int],
) -> Dict[int, Tuple[int, int]]:
    """HP-TestOut's per-node ``(up, down)`` products for the given rows.

    Maps the node of each row to the pair of Schwartz–Zippel products
    ``local_product`` computes over its "up" and "down" incident edges
    with augmented weight in ``[low, high]``.  Always the stdlib row loop:
    the mod-``p`` product chain has no exact vectorised form (intermediate
    products overflow any fixed width), and multiplication mod ``p`` being
    commutative makes the weight-sorted slot order harmless.
    """
    indptr = cols.indptr
    aug_sorted = cols.aug_sorted
    numbers = cols.numbers_by_aug
    up = cols.up_by_aug
    ids = cols.ids
    products = dict.fromkeys(map(ids.__getitem__, rows), (1, 1))
    for row in rows:
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
        products[ids[row]] = (up_product, down_product)
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
