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

from typing import Any, Dict, List, Optional

from .. import fastpath
from ..network.accounting import MessageAccountant
from ..network.broadcast import SUM_REDUCER, XOR_REDUCER, TreeStructure
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph
from .config import AlgorithmConfig
from .findmin import FindResult
from .hashing import PairwiseIndependentHash, random_pairwise_hash
from .primes import prime_for_field
from .sketches import (
    local_prefix_parities,
    local_xor_below,
    pack_parity_word,
    prefix_flip_masks,
    prefix_parity_words_all,
    unpack_parity_word,
    xor_below_words_all,
)
from .testout import CutTester

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
        start = self.accountant.snapshot()
        start_be = self.accountant.broadcast_echoes
        tree = self.forest.rooted_structure(root)

        # Statistics B&E: maxEdgeNum (hash universe), B (range size, prime).
        stats = self.tester.tree_statistics(root, tree=tree)
        if not stats.has_incident_edges:
            return self._result(None, True, 0, start, start_be)
        field_prime = prime_for_field(
            max_edge_number=max(stats.max_edge_number, 2),
            num_endpoints=max(stats.num_endpoints, 1),
            epsilon=self.config.epsilon(),
        )

        # Step 2: certify a non-empty cut w.h.p. before searching.
        if not self.tester.hp_test_out(root, field_prime=field_prime, tree=tree):
            return self._result(None, True, 0, start, start_be)

        budget = 1 if capped else self.config.findany_budget()
        attempts = 0
        while attempts < budget:
            attempts += 1
            edge = self._attempt(root, tree, stats.max_edge_number, stats.num_endpoints)
            if edge is not None:
                return self._result(edge, False, attempts, start, start_be)
        return self._result(None, False, attempts, start, start_be)

    def find_any(self, root: int) -> FindResult:
        """``FindAny(x)`` — expected-constant broadcast-and-echoes (Lemma 5)."""
        return self.run(root, capped=False)

    def find_any_capped(self, root: int) -> FindResult:
        """``FindAny-C(x)`` — single attempt, worst-case O(|T|) messages."""
        return self.run(root, capped=True)

    # ------------------------------------------------------------------ #
    # one attempt (steps 3-4 of the paper)
    # ------------------------------------------------------------------ #
    def _attempt(
        self,
        root: int,
        tree: TreeStructure,
        max_edge_number: int,
        num_endpoints: int,
    ) -> Optional[Edge]:
        id_bits = self.graph.id_bits
        range_size = self._power_of_two_above(max(num_endpoints, 2))
        pairwise = random_pairwise_hash(
            universe_max=max(max_edge_number, 2),
            range_size=range_size,
            rng=self.config.rng,
        )

        fast = fastpath.is_enabled()

        # Step 3(a-c): prefix-parity vector, XORed up the tree as one parity
        # word per node (bit i = prefix parity i).  On the fast path one
        # fused columnar pass hashes each edge once, derives all prefixes
        # from its bit length and returns the tree's word.
        echo: Dict[str, Any]
        if fast:
            cols = self.graph.columnar()
            cut = tree.cut_column(cols)
            masks = prefix_flip_masks(pairwise.log_range)
            echo = {"aggregate": prefix_parity_words_all(pairwise, masks, cut)}

        else:

            def local_word(node: int) -> int:
                numbers = [
                    e.edge_number(id_bits) for e in self.graph.incident_edges(node)
                ]
                return pack_parity_word(local_prefix_parities(numbers, pairwise))

            echo = {"local_value": local_word, "reducer": XOR_REDUCER}

        word = self.tester.executor.broadcast_and_echo(
            root=root,
            broadcast_bits=pairwise.description_bits(),
            echo_bits=pairwise.log_range + 1,
            tree=tree,
            kind="findany:vector",
            **echo,
        )
        vector: List[int] = unpack_parity_word(word, pairwise.log_range + 1)
        min_prefix = next((i for i, bit in enumerate(vector) if bit), None)
        if min_prefix is None:
            return None

        # Step 3(d): XOR of edge numbers hashing below 2^min.
        if fast:
            echo = {"aggregate": xor_below_words_all(pairwise, min_prefix, cut)}

        else:

            def local_xor(node: int) -> int:
                numbers = [
                    e.edge_number(id_bits) for e in self.graph.incident_edges(node)
                ]
                return local_xor_below(numbers, pairwise, min_prefix)

            echo = {"local_value": local_xor, "reducer": XOR_REDUCER}

        candidate = self.tester.executor.broadcast_and_echo(
            root=root,
            broadcast_bits=max(pairwise.log_range.bit_length(), 1),
            echo_bits=2 * id_bits,
            tree=tree,
            kind="findany:xor",
            **echo,
        )
        if candidate == 0:
            return None

        # Step 4: the Test — count endpoints in T incident to the candidate.
        # Only the edge the candidate number decodes to (if the graph has
        # it) is incident to it, so on the fast path the count is how many
        # of its two endpoints the tree holds.
        edge = self.graph.edge_from_number(candidate)
        if fast:
            row_mask = tree.row_mask(cols)
            echo = {
                "aggregate": 0
                if edge is None
                else row_mask[cols.pos[edge.u]] + row_mask[cols.pos[edge.v]]
            }

        else:

            def local_count(node: int) -> int:
                return sum(
                    1
                    for e in self.graph.incident_edges(node)
                    if e.edge_number(id_bits) == candidate
                )

            echo = {"local_value": local_count, "reducer": SUM_REDUCER}

        endpoint_count = self.tester.executor.broadcast_and_echo(
            root=root,
            broadcast_bits=2 * id_bits,
            echo_bits=2,
            tree=tree,
            kind="findany:test",
            **echo,
        )
        return edge if endpoint_count == 1 else None

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
