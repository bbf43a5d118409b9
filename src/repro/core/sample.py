"""FindMin for superpolynomial edge weights (Appendix A, Theorem A.1).

When the maximum edge weight ``u`` is superpolynomial in ``n``, augmented
weights have ``w`` bits with ``w ≫ log n`` and the oblivious ``w``-wise
splitting of Section 3.1 would need ``Θ(w / log log n)`` iterations.  The
appendix replaces the oblivious pivots with *sampled* pivots: each iteration
draws a handful of random edges incident to the tree (the ``Sample`` routine)
whose weights partition the current range, so the number of candidate edges —
not the width of the weight range — shrinks geometrically, and
``O(log n / log log n)`` iterations suffice in expectation regardless of how
wide the weights are.

The appendix's pseudocode contains several typos (see DESIGN.md §4); this
module implements its stated idea:

1. ``Sample``: one broadcast-and-echo draws ``s`` edges uniformly at random
   from the multiset of non-tree edges incident to ``T`` whose augmented
   weight lies in the current range ``[low, high]``.  The sampling is
   performed with per-edge random keys merged up the tree (distributed
   reservoir sampling), so each echo carries at most ``s`` weight prefixes —
   the same ``O(w)`` bits per message as the appendix's ``Sample(p)``.
2. The sampled weights become pivots; the pivot intervals (including the
   singleton interval at each pivot) are tested with one parallel
   ``TestOut`` word, the lowest positive interval is verified with
   ``HP-TestOut`` (no lighter interval missed, chosen interval non-empty),
   and the range narrows to it.  This is FindMin's narrowing loop,
   :meth:`~repro.core.testout.CutProbe.search`, given the pivot sampler:
   the loop calls it every round, where FindMin's ``w``-wise split is
   computed once per range.
3. When the range narrows to a single augmented weight, that weight *is* the
   minimum leaving edge.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..network.accounting import MessageAccountant
from ..network.broadcast import Reducer, TreeStructure
from ..network.fragments import SpanningForest
from ..network.graph import Graph
from .config import AlgorithmConfig
from .findmin import FindResult
from .testout import CutProbe, CutTester

__all__ = ["SuperpolyFindMin", "k_smallest_reducer"]

#: One sampled offer: (node-local random key, augmented weight).
Offer = Tuple[float, int]

#: ``qualifying(node, low, high)``: the node's incident non-tree edges'
#: augmented weights inside ``[low, high]``.
Qualifying = Callable[[int, int, int], Iterator[int]]


def k_smallest_reducer(k: int) -> Reducer:
    """Echo aggregation keeping the ``k`` smallest offers as a sorted list.

    The ``k`` smallest of a union are the ``k`` smallest of the parts' ``k``
    smallest, so the merge is associative, and it ignores operand order.
    """

    def merge(a: List[Offer], b: List[Offer]) -> List[Offer]:
        return sorted(a + b)[:k]

    return Reducer(merge, [])


class SuperpolyFindMin:
    """Sampled-pivot FindMin for arbitrarily large edge weights."""

    def __init__(
        self,
        graph: Graph,
        forest: SpanningForest,
        config: AlgorithmConfig,
        accountant: Optional[MessageAccountant] = None,
    ) -> None:
        self.graph = graph
        self.forest = forest
        self.config = config
        self.accountant = accountant if accountant is not None else MessageAccountant()
        self.tester = CutTester(graph, forest, config, self.accountant)
        self._rng = config.spawn()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, root: int, max_iterations: Optional[int] = None) -> FindResult:
        """Find the minimum-weight edge leaving ``T_root`` (∅ if none)."""
        accountant = self.accountant
        start = accountant.snapshot()
        tree = self.forest.rooted_structure(root)

        stats = self.tester.tree_statistics(root, tree=tree)
        if not stats.has_incident_edges:
            return FindResult.since(accountant, start, None, True, 0)
        probe = self.tester.probe(root, tree, stats)

        high = stats.max_augmented_weight
        if not probe.hp(0, high):
            return FindResult.since(accountant, start, None, True, 0)

        budget = (
            max_iterations
            if max_iterations is not None
            else 8 * self.config.findmin_budget(max(high, 2))
        )
        num_pivots = max(2, self.config.word_size // 2)
        qualifying = self._qualifying(probe)

        def pivots(low: int, high: int) -> Tuple[List[int], List[int]]:
            sampled = self._sample_pivots(root, tree, low, high, num_pivots, qualifying)
            return self._pivot_ranges(low, high, sampled)

        edge, verified_empty, iterations = probe.search(high, budget, pivots)
        return FindResult.since(accountant, start, edge, verified_empty, iterations)

    # ------------------------------------------------------------------ #
    # the Sample routine
    # ------------------------------------------------------------------ #
    def _qualifying(self, probe: CutProbe) -> Qualifying:
        """The candidate weights of a node, read on the probe's tier."""
        id_bits = self.graph.id_bits
        is_marked = self.forest.is_marked
        cols = probe.cols

        if cols is not None:
            pos, indptr = cols.pos, cols.indptr
            numbers, augmented = cols.numbers, cols.augmented
            id_mask = (1 << id_bits) - 1

            def qualifying(node: int, low: int, high: int) -> Iterator[int]:
                row = pos[node]
                for slot in range(indptr[row], indptr[row + 1]):
                    number = numbers[slot]
                    if is_marked(number >> id_bits, number & id_mask):
                        continue
                    weight = augmented[slot]
                    if low <= weight <= high:
                        yield weight

        else:
            incident_edges = self.graph.incident_edges

            def qualifying(node: int, low: int, high: int) -> Iterator[int]:
                for edge in incident_edges(node):
                    if is_marked(edge.u, edge.v):
                        continue
                    weight = edge.augmented_weight(id_bits)
                    if low <= weight <= high:
                        yield weight

        return qualifying

    def _sample_pivots(
        self,
        root: int,
        tree: TreeStructure,
        low: int,
        high: int,
        count: int,
        qualifying: Qualifying,
    ) -> List[int]:
        """One B&E drawing up to ``count`` random qualifying incident weights.

        Each node locally attaches a random key to each of its qualifying
        incident non-tree edges and offers its ``count`` smallest; the echo
        keeps the ``count`` smallest keys overall, which yields a uniform
        random subset of the qualifying multiset.  Messages carry ``count``
        weight prefixes, i.e. ``O(w)`` bits, as in the appendix.
        """
        # Per-iteration seed so that every node's "local randomness" is drawn
        # from the run's reproducible stream but stays node-local.
        iteration_seed = self._rng.getrandbits(64)

        def local(node: int) -> List[Offer]:
            node_rng = random.Random((iteration_seed << 20) ^ node)
            offers = sorted(
                (node_rng.random(), weight) for weight in qualifying(node, low, high)
            )
            return offers[:count]

        weight_bits = max(high.bit_length(), 1)
        samples = self.tester.executor.broadcast_and_echo(
            root=root,
            local_value=local,
            reducer=k_smallest_reducer(count),
            broadcast_bits=2 * weight_bits + 8,
            echo_bits=max(weight_bits, count),
            tree=tree,
            kind="sample",
        )
        return sorted({weight for _, weight in samples})

    @staticmethod
    def _pivot_ranges(
        low: int, high: int, pivots: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        """Intervals induced by the pivots, with a singleton at each pivot.

        For pivots ``p_1 < … < p_s`` inside ``[low, high]`` the intervals are
        ``[low, p_1−1], [p_1, p_1], [p_1+1, p_2−1], …, [p_s+1, high]`` with
        empty intervals dropped; returns their ``(lows, highs)``.
        """
        lows: List[int] = []
        highs: List[int] = []
        cursor = low
        for pivot in pivots:
            if pivot < low or pivot > high:
                continue
            if cursor <= pivot - 1:
                lows.append(cursor)
                highs.append(pivot - 1)
            lows.append(pivot)
            highs.append(pivot)
            cursor = pivot + 1
        if cursor <= high:
            lows.append(cursor)
            highs.append(high)
        return lows, highs
