"""``FindAny`` and ``FindAny-C`` (Section 4.1, Lemmas 4–5).

``FindAny(x)`` returns *some* edge leaving the maintained tree ``T_x`` (or ∅
if none exists) in an expected **constant** number of broadcast-and-echoes —
a ``log n / log log n`` factor cheaper than ``FindMin`` — which is what makes
spanning-tree construction ``O(n log n)`` and ST repair ``O(n)``.

One attempt works as follows (steps 3–5 of the paper):

* the root broadcasts a pairwise-independent hash ``h`` into ``[r]`` with
  ``r`` a power of two exceeding the number of edge endpoints in ``T``;
* every node reports, for each prefix ``[2^i]``, the parity of its incident
  edges hashing into that prefix; the parity vectors XOR up the tree.
  Internal edges cancel, so bit ``i`` of the root's vector is the parity of
  the *cut* edges hashing into ``[2^i]``;
* the root picks ``min``, the smallest ``i`` with an odd count, and asks for
  the XOR of the edge numbers of the (cut) edges hashing into ``[2^min]``:
  if exactly one cut edge lands there — which Lemma 4 shows happens with
  probability ≥ 1/16 — the XOR *is* its edge number;
* a final broadcast of that candidate edge number counts how many endpoints
  in ``T`` are incident to it: exactly one endpoint confirms a cut edge.

``FindAny`` first certifies a non-empty cut with ``HP-TestOut`` and then
repeats attempts until one succeeds (expected ≤ 16 attempts, hard cap
``16·ln(1/ε)``); ``FindAny-C`` makes a single attempt, so its cost is
worst-case ``O(|T_x|)`` and its success probability at least ``1/16``.
"""

from __future__ import annotations

from typing import Optional

from ..network.accounting import MessageAccountant
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph
from .config import AlgorithmConfig
from .findmin import FindResult
from .hashing import random_pairwise_hash
from .testout import CutProbe, CutTester, TreeStatistics, lowest_set_bit

__all__ = ["FindAny"]


class FindAny:
    """The FindAny / FindAny-C procedures over a maintained forest."""

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
        """Run FindAny (or FindAny-C when ``capped``) from ``root``."""
        accountant = self.accountant
        start = accountant.snapshot()
        tree = self.forest.rooted_structure(root)

        # Statistics B&E: maxEdgeNum (hash universe), B (range size, prime).
        stats = self.tester.tree_statistics(root, tree=tree)
        if not stats.has_incident_edges:
            return FindResult.since(accountant, start, None, True, 0)
        probe = self.tester.probe(root, tree, stats)

        # Step 2: certify a non-empty cut w.h.p. before searching.
        if not probe.hp():
            return FindResult.since(accountant, start, None, True, 0)

        budget = 1 if capped else self.config.findany_budget()
        attempts = 0
        while attempts < budget:
            attempts += 1
            edge = self._attempt(probe, stats)
            if edge is not None:
                return FindResult.since(accountant, start, edge, False, attempts)
        return FindResult.since(accountant, start, None, False, attempts)

    def find_any(self, root: int) -> FindResult:
        """``FindAny(x)`` — expected-constant broadcast-and-echoes (Lemma 5)."""
        return self.run(root, capped=False)

    def find_any_capped(self, root: int) -> FindResult:
        """``FindAny-C(x)`` — single attempt, worst-case O(|T|) messages."""
        return self.run(root, capped=True)

    # ------------------------------------------------------------------ #
    # one attempt (steps 3-4 of the paper)
    # ------------------------------------------------------------------ #
    def _attempt(self, probe: CutProbe, stats: TreeStatistics) -> Optional[Edge]:
        pairwise = random_pairwise_hash(
            universe_max=max(stats.max_edge_number, 2),
            range_size=self._power_of_two_above(max(stats.num_endpoints, 2)),
            rng=self.config.rng,
        )
        # Step 3(a-c): bit i of the word is the parity of the cut edges
        # hashing into [2^i]; the smallest odd prefix is ``min``.
        word = probe.prefix_word(pairwise)
        min_prefix = lowest_set_bit(word, pairwise.log_range + 1)
        if min_prefix is None:
            return None
        # Step 3(d): XOR of the cut's edge numbers hashing below 2^min.
        candidate = probe.xor_below(pairwise, min_prefix)
        if candidate == 0:
            return None
        # Step 4: the Test — count endpoints in T incident to the candidate.
        return probe.candidate_edge(candidate)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _power_of_two_above(value: int) -> int:
        """The smallest power of two strictly greater than ``value``."""
        power = 1
        while power <= value:
            power <<= 1
        return max(power, 2)
