"""``FindMin`` and ``FindMin-C`` (Section 3.1, Lemma 2).

``FindMin(x)`` returns the minimum-weight edge leaving the maintained tree
``T_x`` (or ∅ if none exists) using a ``w``-wise search over the augmented
weight range:

1. one broadcast-and-echo determines ``maxWt(T_x)``, ``maxEdgeNum(T_x)`` and
   the endpoint count ``B`` (used to pick the HP-TestOut prime);
2. the current range ``[j, k]`` is split into ``w`` sub-ranges and all ``w``
   TestOuts are answered by a *single* broadcast-and-echo whose echo is a
   ``w``-bit word (the same odd hash serves every sub-range);
3. the smallest sub-range reporting a ``1`` is verified with two
   ``HP-TestOut`` calls — no lighter edge was missed (``TestLow``) and the
   sub-range really contains a leaving edge (``TestInterval``) — and then
   becomes the new range;
4. when the range is a single augmented weight, that weight *is* the edge
   (augmented weights are unique), and the search stops.

Because each narrowing divides the range size by ``w = Θ(log n)``, an
expected ``O(log n / log log n)`` iterations — hence broadcast-and-echoes —
suffice, each costing ``O(|T_x|)`` messages of ``O(log n)`` bits.

``FindMin-C`` is the capped variant: the iteration budget is twice the
expectation, so its cost is worst-case ``O(|T_x|·log n / log log n)`` and it
returns the correct edge with probability at least ``2/3 − n^{-c}`` (and
either the correct edge or ∅ w.h.p.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..network.accounting import CostDelta, MessageAccountant
from ..network.broadcast import TreeStructure
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph
from .config import AlgorithmConfig
from .hashing import random_odd_hash
from .primes import prime_for_field
from .testout import CutTester, TreeStatistics

__all__ = ["FindResult", "FindMin"]


@dataclass
class FindResult:
    """Outcome of FindMin / FindMin-C / FindAny / FindAny-C.

    Attributes
    ----------
    edge:
        The returned edge, or ``None`` for ∅.
    verified_empty:
        True iff ∅ was returned because HP-TestOut certified that no edge
        leaves the tree (as opposed to the iteration budget running out).
        Build-MST's adaptive termination keys off this flag.
    iterations:
        Number of executions of the main loop (TestOut rounds).
    broadcast_echoes:
        Number of broadcast-and-echo primitives used.
    cost:
        Message/bit/round cost of the whole call.
    """

    edge: Optional[Edge]
    verified_empty: bool
    iterations: int
    broadcast_echoes: int
    cost: CostDelta

    @property
    def found(self) -> bool:
        return self.edge is not None


class FindMin:
    """The FindMin / FindMin-C procedures over a maintained forest."""

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

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, root: int, capped: bool = False) -> FindResult:
        """Run FindMin (or FindMin-C when ``capped``) from ``root``.

        Returns a :class:`FindResult`; ``result.edge`` is the minimum-weight
        edge leaving ``T_root`` (w.h.p. for FindMin, with probability
        ``≥ 2/3`` for FindMin-C), or ``None``.
        """
        start = self.accountant.snapshot()
        start_be = self.accountant.broadcast_echoes
        tree = self.forest.rooted_structure(root)

        # Step 2: one B&E for maxWt, maxEdgeNum and B; derive epsilon/p.
        stats = self.tester.tree_statistics(root, tree=tree)
        if not stats.has_incident_edges:
            # An isolated component with no incident edges at all: nothing
            # can leave it, and no randomness is needed to know that.
            return self._result(None, True, 0, start, start_be)
        field_prime = prime_for_field(
            max_edge_number=max(stats.max_edge_number, 2),
            num_endpoints=max(stats.num_endpoints, 1),
            epsilon=self.config.epsilon(),
        )

        low = 0
        high = stats.max_augmented_weight
        budget = (
            self.config.findmin_c_budget(max(high, 2))
            if capped
            else self.config.findmin_budget(max(high, 2))
        )
        word_size = self.config.word_size
        rng = self.config.rng
        universe = max(stats.max_edge_number, 1)

        iterations = 0
        while iterations < budget:
            iterations += 1
            # Steps 4-5: one B&E answering w TestOuts in parallel.
            ranges = self._split_range(low, high, word_size)
            word = self.tester.test_out_word(
                root=root,
                ranges=ranges,
                odd_hash=random_odd_hash(universe, rng),
                max_edge_number=stats.max_edge_number,
                tree=tree,
            )
            min_index = self._lowest_set_bit(word, len(ranges))

            if min_index is None:
                # No sub-range fired.  Either the cut (within [low, high]) is
                # empty, or every TestOut failed this round; HP-TestOut
                # distinguishes the two w.h.p.
                any_left = self.tester.hp_test_out(
                    root, low, high, field_prime=field_prime, tree=tree
                )
                if not any_left:
                    return self._result(None, True, iterations, start, start_be)
                continue

            range_low, range_high = ranges[min_index]
            # Step 6: verify with HP-TestOut that no lighter sub-range was
            # missed and that the chosen sub-range really is non-empty.
            test_low = False
            if range_low > low:
                test_low = self.tester.hp_test_out(
                    root, low, range_low - 1, field_prime=field_prime, tree=tree
                )
            test_interval = self.tester.hp_test_out(
                root, range_low, range_high, field_prime=field_prime, tree=tree
            )

            if test_low or not test_interval:
                # Inconsistent evidence: repeat without narrowing (step 7/8).
                continue

            if range_low == range_high:
                edge = self.graph.edge_from_augmented_weight(range_low)
                if edge is None:
                    # The sub-range is a single augmented weight that does
                    # not correspond to an existing edge; treat as a failed
                    # round (can only happen if HP-TestOut erred).
                    continue
                return self._result(edge, False, iterations, start, start_be)
            low, high = range_low, range_high

        return self._result(None, False, iterations, start, start_be)

    # Convenience wrappers matching the paper's procedure names.
    def find_min(self, root: int) -> FindResult:
        """``FindMin(x)`` — expected-cost variant (Lemma 2)."""
        return self.run(root, capped=False)

    def find_min_capped(self, root: int) -> FindResult:
        """``FindMin-C(x)`` — worst-case-cost variant (Lemma 2)."""
        return self.run(root, capped=True)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _split_range(low: int, high: int, word_size: int) -> List[Tuple[int, int]]:
        """Split [low, high] into at most ``word_size`` contiguous sub-ranges."""
        if low > high:
            raise AlgorithmError(f"invalid range [{low}, {high}]")
        chunk = max(1, -(-(high - low + 1) // word_size))
        ranges = [(start, start + chunk - 1) for start in range(low, high + 1, chunk)]
        ranges[-1] = (ranges[-1][0], high)
        return ranges

    @staticmethod
    def _lowest_set_bit(word: int, width: int) -> Optional[int]:
        """Index of the lowest set bit among ``word``'s low ``width`` bits."""
        word &= (1 << width) - 1
        return (word & -word).bit_length() - 1 if word else None

    def _result(
        self,
        edge: Optional[Edge],
        verified_empty: bool,
        iterations: int,
        start_snapshot,
        start_broadcast_echoes: int,
    ) -> FindResult:
        return FindResult(
            edge=edge,
            verified_empty=verified_empty,
            iterations=iterations,
            broadcast_echoes=self.accountant.broadcast_echoes - start_broadcast_echoes,
            cost=self.accountant.since(start_snapshot),
        )
