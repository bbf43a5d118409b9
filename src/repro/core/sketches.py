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
  the echo delivers at the root, read from the graph's
  :class:`~repro.network.columnar.ColumnarGraph` snapshot.  It hashes each
  edge exactly once, derives every prefix parity from ``h(e).bit_length()``
  (``h(e) < 2^i`` iff ``i ≥ bitlen(h(e))``, so one XOR with a precomputed
  mask flips all the prefixes an edge belongs to), and packs parities into
  a single int word.

A columnar kernel's aggregate equals the reference fold over the rows it is
given, bit for bit (pinned by ``tests/core/test_columnar_kernels.py``).  It
reaches it by one of two passes, chosen by the half-graph rule
(:func:`repro.fastpath.covers_half`) on the number of rows:

* a **row pass** for smaller trees: each row bisects its weight-sorted slots
  to the tested window and folds them straight into the aggregate;
* an **edge-window pass** for trees holding at least half the graph: one
  bisection of the graph-wide weight-sorted edge column finds the window,
  and the tree's row mask says which endpoints of each in-window edge the
  tree holds.  The XOR kernels keep only edges with exactly one endpoint in
  the tree — an edge with both is counted twice and cancels, whatever the
  row set — so TestOut and FindAny hash only cut edges; HP-TestOut
  multiplies ``(α − #e)`` into ``up`` if the tree holds ``u`` and into
  ``down`` if it holds ``v``.

When numpy is importable (:mod:`repro.accel`) and the window holds at least
half the graph's edges (the same rule, on edge counts), the XOR kernels
vectorise the window pass — but only where exact: uint64 wrap-around
multiplication for the odd hash, and the Carter–Wegman hash only when its
products fit int64; otherwise the stdlib loop runs.  Either way the
aggregate is identical, so the choice is wall-clock-only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

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
def prefix_flip_masks(log_range: int) -> List[int]:
    """``masks[b]`` flips every prefix parity an edge with bit-length ``b`` joins.

    ``h(e) < 2^i`` iff ``i >= h(e).bit_length()``, so hashing into value
    ``v`` flips parities ``bitlen(v) .. log_range`` — one precomputed XOR
    mask per possible bit length.
    """
    full = (1 << (log_range + 1)) - 1
    return [full & ~((1 << b) - 1) for b in range(log_range + 1)]


def _row_numbers(cols: ColumnarGraph, rows: Sequence[int]) -> Iterator[int]:
    """Row pass: the edge number of every slot of the given rows."""
    indptr = cols.indptr
    numbers = cols.numbers
    return chain.from_iterable(
        numbers[indptr[row] : indptr[row + 1]] for row in rows
    )


def _edge_window(cols: ColumnarGraph, low: int, high: int) -> Tuple[int, int]:
    """Window pass: the ``[lo, hi)`` of ``edge_aug`` inside ``[low, high]``."""
    lo = bisect_left(cols.edge_aug, low)
    return lo, bisect_right(cols.edge_aug, high, lo)


def _cut_edges(
    cols: ColumnarGraph, row_mask: bytearray, lo: int, hi: int
) -> List[int]:
    """Window pass: the edges in ``[lo, hi)`` with one endpoint in ``row_mask``.

    These are the only edges an XOR aggregate over the masked rows sees:
    an edge with both endpoints inside contributes the same value at each
    and cancels, and one with neither contributes nothing.
    """
    urow = cols.edge_urow
    vrow = cols.edge_vrow
    return [
        edge for edge in range(lo, hi) if row_mask[urow[edge]] != row_mask[vrow[edge]]
    ]


def _window_numpy(cols: ColumnarGraph, lo: int, hi: int) -> Optional[Any]:
    """numpy when the window ``[lo, hi)`` holds at least half the graph's edges."""
    np = numpy_or_none()
    if np is None or not cols.fits64:
        return None
    return np if fastpath.covers_half(hi - lo, cols.num_edges) else None


def _numpy_cut(np, cols: ColumnarGraph, row_mask: bytearray, lo: int, hi: int):
    """:func:`_cut_edges` as a boolean selector over the window (numpy tier)."""
    npc = cols.numpy_columns()
    inside = np.frombuffer(row_mask, dtype=np.bool_)
    return inside[npc.edge_urow[lo:hi]] != inside[npc.edge_vrow[lo:hi]]


def _numpy_xor(np, values) -> int:
    """XOR of a uint64 vector as a Python int (0 when empty)."""
    return int(np.bitwise_xor.reduce(values, initial=np.uint64(0)))


def _pairwise_fits_int64(pairwise: PairwiseIndependentHash, max_number: int) -> bool:
    """True iff ``a * x + b`` stays below 2^63 for every edge number."""
    return pairwise.a * max_number + pairwise.b < (1 << 63)


def _numpy_pairwise(np, pairwise: PairwiseIndependentHash, numbers):
    """``pairwise`` over uint64 edge numbers (exact if :func:`_pairwise_fits_int64`)."""
    signed = numbers.astype(np.int64)
    return ((np.int64(pairwise.a) * signed + np.int64(pairwise.b)) % np.int64(
        pairwise.p
    )) % np.int64(pairwise.range_size)


def range_parity_words_all(
    cols: ColumnarGraph,
    odd_hash: OddHashFunction,
    lows: Sequence[int],
    highs: Sequence[int],
    rows: Sequence[int],
    row_mask: bytearray,
) -> int:
    """FindMin's parallel TestOut parity word, aggregated over the given rows.

    Returns the XOR over the rows' nodes of the word whose bit ``i`` is
    ``local_range_parities(...)[i]`` for the ranges ``[lows[i], highs[i]]``,
    which must be sorted and disjoint (``highs[i] < lows[i + 1]``) so that an
    edge flips exactly one range bit; ``FindMin``'s ``w``-wise splits and
    ``Sample``'s pivot intervals always are.  Each edge inside
    ``[lows[0], highs[-1]]`` is hashed once and finds its containing range by
    bisection.  ``row_mask`` is the rows' membership mask
    (:meth:`~repro.network.broadcast.TreeStructure.row_mask`).
    """
    low, high = lows[0], highs[-1]
    multiplier = odd_hash.multiplier
    threshold = odd_hash.threshold
    word_mask = (1 << odd_hash.word_bits) - 1
    word = 0
    if fastpath.covers_half(len(rows), cols.num_nodes):
        lo, hi = _edge_window(cols, low, high)
        if lo == hi:
            return 0
        np = _window_numpy(cols, lo, hi)
        if (
            np is not None
            and odd_hash.word_bits <= 64
            and len(lows) <= 64
            and all(bound <= _UINT64_MAX for bound in lows)
        ):
            # Highs clamp to the graph maximum (value-identical: no weight
            # can exceed it), which brings FindMin's open upper bound 2^256
            # back into uint64 territory.
            bounded_highs = [min(bound, cols.max_augmented) for bound in highs]
            npc = cols.numpy_columns()
            cut = _numpy_cut(np, cols, row_mask, lo, hi)
            weights = npc.edge_aug[lo:hi][cut]
            hashed = (
                np.uint64(odd_hash.multiplier) * npc.edge_numbers[lo:hi][cut]
            ) & np.uint64((1 << odd_hash.word_bits) - 1)
            # Every window weight is >= lows[0], so the index is >= 0.
            index = np.searchsorted(
                np.asarray(lows, dtype=np.uint64), weights, side="right"
            ) - 1
            valid = (hashed <= np.uint64(odd_hash.threshold)) & (
                weights <= np.asarray(bounded_highs, dtype=np.uint64)[index]
            )
            return _numpy_xor(np, np.uint64(1) << index[valid].astype(np.uint64))
        edge_aug = cols.edge_aug
        edge_numbers = cols.edge_numbers
        for edge in _cut_edges(cols, row_mask, lo, hi):
            if (multiplier * edge_numbers[edge]) & word_mask <= threshold:
                weight = edge_aug[edge]
                index = bisect_right(lows, weight) - 1
                if weight <= highs[index]:
                    word ^= 1 << index
        return word

    # Row pass: bisect each row's weight-sorted slots to the window.
    indptr = cols.indptr
    aug_sorted = cols.aug_sorted
    numbers = cols.numbers_by_aug
    for row in rows:
        end = indptr[row + 1]
        start = bisect_left(aug_sorted, low, indptr[row], end)
        for slot in range(start, bisect_right(aug_sorted, high, start, end)):
            if (multiplier * numbers[slot]) & word_mask <= threshold:
                weight = aug_sorted[slot]
                index = bisect_right(lows, weight) - 1
                if weight <= highs[index]:
                    word ^= 1 << index
    return word


def prefix_parity_words_all(
    cols: ColumnarGraph,
    pairwise: PairwiseIndependentHash,
    masks: Sequence[int],
    rows: Sequence[int],
    row_mask: bytearray,
) -> int:
    """FindAny's prefix-parity word, aggregated over the given rows.

    Returns the XOR over the rows' nodes of the word whose bit ``i`` is
    ``local_prefix_parities(...)[i]``, the parity of the node's incident
    edges hashing into ``[2^i]``; ``masks`` comes from
    :func:`prefix_flip_masks` and ``row_mask`` is the rows' membership mask.
    """
    if fastpath.covers_half(len(rows), cols.num_nodes):
        num_edges = cols.num_edges
        np = _window_numpy(cols, 0, num_edges)
        log_range = pairwise.log_range
        if (
            np is not None
            and log_range + 1 <= 63
            and _pairwise_fits_int64(pairwise, cols.max_number)
        ):
            cut = _numpy_cut(np, cols, row_mask, 0, num_edges)
            numbers_np = cols.numpy_columns().edge_numbers[cut]
            hashed = _numpy_pairwise(np, pairwise, numbers_np)
            # bit_length(h) == #{powers of two <= h} for the powers below the
            # range, which searchsorted counts directly.
            powers = np.left_shift(
                np.int64(1), np.arange(max(log_range, 1), dtype=np.int64)
            )
            bitlens = np.searchsorted(powers, hashed, side="right")
            return _numpy_xor(np, np.asarray(masks, dtype=np.uint64)[bitlens])
        edge_numbers = cols.edge_numbers
        numbers: Iterable[int] = map(
            edge_numbers.__getitem__, _cut_edges(cols, row_mask, 0, num_edges)
        )
    else:
        numbers = _row_numbers(cols, rows)

    a, b, p = pairwise.a, pairwise.b, pairwise.p
    range_size = pairwise.range_size
    word = 0
    for number in numbers:
        word ^= masks[(((a * number + b) % p) % range_size).bit_length()]
    return word


def xor_below_words_all(
    cols: ColumnarGraph,
    pairwise: PairwiseIndependentHash,
    prefix_exponent: int,
    rows: Sequence[int],
    row_mask: bytearray,
) -> int:
    """FindAny's XOR of edge numbers hashing below ``2^prefix``, over the given rows.

    Returns the XOR over the rows' nodes of ``local_xor_below(...)``;
    ``row_mask`` is the rows' membership mask.
    """
    limit = 1 << prefix_exponent
    if fastpath.covers_half(len(rows), cols.num_nodes):
        num_edges = cols.num_edges
        np = _window_numpy(cols, 0, num_edges)
        if np is not None and _pairwise_fits_int64(pairwise, cols.max_number):
            cut = _numpy_cut(np, cols, row_mask, 0, num_edges)
            candidates = cols.numpy_columns().edge_numbers[cut]
            below = _numpy_pairwise(np, pairwise, candidates) < np.int64(limit)
            return _numpy_xor(np, candidates[below])
        edge_numbers = cols.edge_numbers
        numbers: Iterable[int] = map(
            edge_numbers.__getitem__, _cut_edges(cols, row_mask, 0, num_edges)
        )
    else:
        numbers = _row_numbers(cols, rows)

    a, b, p = pairwise.a, pairwise.b, pairwise.p
    range_size = pairwise.range_size
    result = 0
    for number in numbers:
        if ((a * number + b) % p) % range_size < limit:
            result ^= number
    return result


def hp_products_all(
    cols: ColumnarGraph,
    alpha: int,
    p: int,
    low: int,
    high: int,
    rows: Sequence[int],
    row_mask: bytearray,
) -> Tuple[int, int]:
    """HP-TestOut's ``(up, down)`` products, aggregated over the given rows.

    Returns the componentwise product mod ``p`` of the pairs
    ``local_product`` computes over each node's "up" and "down" incident
    edges with augmented weight in ``[low, high]``: ``(α − #e)`` joins
    ``up`` once if the edge's smaller endpoint is a given row and ``down``
    once if its larger one is (``row_mask`` is the rows' membership mask).
    Always stdlib: the mod-``p`` product chain has no exact vectorised form
    (intermediate products overflow any fixed width), and multiplication
    mod ``p`` being commutative makes any visiting order harmless.
    """
    up_product = down_product = 1
    if fastpath.covers_half(len(rows), cols.num_nodes):
        lo, hi = _edge_window(cols, low, high)
        edge_numbers = cols.edge_numbers
        urow = cols.edge_urow
        vrow = cols.edge_vrow
        for edge in range(lo, hi):
            if row_mask[urow[edge]]:
                up_product = up_product * (alpha - edge_numbers[edge]) % p
            if row_mask[vrow[edge]]:
                down_product = down_product * (alpha - edge_numbers[edge]) % p
        return up_product, down_product

    indptr = cols.indptr
    aug_sorted = cols.aug_sorted
    numbers = cols.numbers_by_aug
    up = cols.up_by_aug
    for row in rows:
        end = indptr[row + 1]
        start = bisect_left(aug_sorted, low, indptr[row], end)
        for slot in range(start, bisect_right(aug_sorted, high, start, end)):
            if up[slot]:
                up_product = up_product * (alpha - numbers[slot]) % p
            else:
                down_product = down_product * (alpha - numbers[slot]) % p
    return up_product, down_product


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
