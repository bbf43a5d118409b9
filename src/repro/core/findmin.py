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
   becomes the new range; if no sub-range fired, one ``HP-TestOut`` on
   ``[j, k]`` tells an empty cut (∅, verified) from a failed round;
4. when the range is a single augmented weight, that weight *is* the edge
   (augmented weights are unique), and the search stops.

Steps 2–4 are one loop per search,
:meth:`~repro.core.testout.CutProbe.search`, which the sampled-pivot search
of :mod:`repro.core.sample` shares.  It binds the tree, its cut and the
echo widths once, draws each round's odd hash (and, on the columnar tier,
each ``α``) inline, and splits a range only when the range moves: a round
in which no TestOut fired re-tests the same sub-ranges under a fresh hash.

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
from typing import Optional

from ..network.accounting import CostDelta, CostSnapshot, MessageAccountant
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph
from .config import AlgorithmConfig
from .testout import CutTester, split_range

__all__ = ["FindResult", "FindMin", "split_range"]


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

    @classmethod
    def since(
        cls,
        accountant: MessageAccountant,
        start: CostSnapshot,
        edge: Optional[Edge],
        verified_empty: bool,
        iterations: int,
    ) -> "FindResult":
        """The result of a search that began at ``accountant``'s ``start``."""
        cost = accountant.since(start)
        return cls(edge, verified_empty, iterations, cost.broadcast_echoes, cost)


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
        accountant = self.accountant
        start = accountant.snapshot()
        tree = self.forest.rooted_structure(root)

        # Step 2: one B&E for maxWt, maxEdgeNum and B; derive epsilon/p.
        stats = self.tester.tree_statistics(root, tree=tree)
        if not stats.has_incident_edges:
            # An isolated component with no incident edges at all: nothing
            # can leave it, and no randomness is needed to know that.
            return FindResult.since(accountant, start, None, True, 0)
        probe = self.tester.probe(root, tree, stats)

        high = stats.max_augmented_weight
        budget = (
            self.config.findmin_c_budget(max(high, 2))
            if capped
            else self.config.findmin_budget(max(high, 2))
        )
        # Steps 2-4: the narrowing loop, w TestOuts per B&E.
        edge, verified_empty, iterations = probe.search(high, budget)
        return FindResult.since(accountant, start, edge, verified_empty, iterations)

    # Convenience wrappers matching the paper's procedure names.
    def find_min(self, root: int) -> FindResult:
        """``FindMin(x)`` — expected-cost variant (Lemma 2)."""
        return self.run(root, capped=False)

    def find_min_capped(self, root: int) -> FindResult:
        """``FindMin-C(x)`` — worst-case-cost variant (Lemma 2)."""
        return self.run(root, capped=True)
