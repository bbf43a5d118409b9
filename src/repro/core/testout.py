"""``TestOut`` and ``HP-TestOut`` (Section 2, Lemma 1).

Both procedures answer the question *"does any edge leave the maintained tree
``T_x`` (optionally: with weight in ``[j, k]``)?"* with a single
broadcast-and-echo:

* :meth:`CutTester.test_out` — the constant-probability test.  The root
  broadcasts an odd hash function ``h``; every node returns the parity of
  ``h`` over its incident edges (restricted to the weight range); parities
  XOR up the tree.  Edges internal to ``T`` are counted at both endpoints and
  cancel, so the root's bit is the parity of ``h`` over the *cut*.  A ``1``
  therefore proves the cut is non-empty; if the cut is non-empty the bit is
  ``1`` with probability at least 1/8.  The echo is a single bit.

* :meth:`CutTester.hp_test_out` — the high-probability test.  Rather than
  amplifying TestOut, the paper tests whether the multisets ``E↑(T)`` and
  ``E↓(T)`` are equal (Observation 1) using the Schwartz–Zippel identity
  check over ``Z_p``: the root broadcasts a random ``α ∈ Z_p``; every node
  returns the pair of products over its "up" and "down" incident edges; the
  pairs multiply up the tree.  If no edge leaves, the two products are always
  equal; if some edge leaves they differ with probability ``≥ 1 − ε(n)``.

Throughout this package, weight intervals refer to **augmented weights**
(weight concatenated with the edge number, see :mod:`repro.network.graph`),
which is exactly the paper's device for making weights distinct.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import fastpath
from ..network.accounting import MessageAccountant
from ..network.broadcast import XOR_REDUCER, BroadcastEchoExecutor, Reducer, TreeStructure
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph
from .config import AlgorithmConfig
from .hashing import OddHashFunction, random_odd_hash
from .polynomial import SetEqualitySketch, local_product, product_pair_reducer
from .primes import prime_for_field
from .sketches import (
    hp_products_all,
    local_range_parities,
    pack_parity_word,
    range_parity_words_all,
)

__all__ = ["TreeStatistics", "CutTester", "STATS_REDUCER"]

#: The upper bound of an open weight range: above every augmented weight.
_OPEN_HIGH = 1 << 256


@dataclass(frozen=True)
class TreeStatistics:
    """Aggregates computed by one broadcast-and-echo over ``T_x``.

    These are the quantities the paper's procedures ask the root to determine
    before searching: ``maxEdgeNum(T)``, ``maxWt(T)`` (as an augmented
    weight) and ``B``, the total number of edge endpoints incident to nodes
    of ``T`` (the sum of degrees).
    """

    size: int
    max_edge_number: int
    max_augmented_weight: int
    num_endpoints: int

    @property
    def has_incident_edges(self) -> bool:
        return self.num_endpoints > 0


def _merge_stats(
    a: Tuple[int, int, int, int], b: Tuple[int, int, int, int]
) -> Tuple[int, int, int, int]:
    return (a[0] + b[0], max(a[1], b[1]), max(a[2], b[2]), a[3] + b[3])


#: Echo of the statistics B&E: (size, maxEdgeNum, maxWt, B) merged as
#: (sum, max, max, sum); every component is non-negative, so 0 is neutral.
STATS_REDUCER = Reducer(_merge_stats, (0, 0, 0, 0))


class CutTester:
    """TestOut / HP-TestOut over the maintained forest of a graph."""

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
        self.executor = BroadcastEchoExecutor(graph, forest, self.accountant)

    # ------------------------------------------------------------------ #
    # statistics (FindMin step 2 / HP-TestOut step 0)
    # ------------------------------------------------------------------ #
    def tree_statistics(
        self, root: int, tree: Optional[TreeStructure] = None
    ) -> TreeStatistics:
        """One broadcast-and-echo computing size, maxEdgeNum, maxWt and B."""
        id_bits = self.graph.id_bits
        if tree is None:
            tree = self.forest.rooted_structure(root)

        echo: Dict[str, Any]
        if fastpath.is_enabled():
            # The tree memoises its fold of the snapshot's per-row maxima
            # and degrees (which also makes the graph's max weight O(1)).
            echo = {"aggregate": tree.statistics(self.graph.columnar())}
        else:

            def local(node: int) -> Tuple[int, int, int, int]:
                edges = self.graph.incident_edges(node)
                max_edge_number = max(
                    (e.edge_number(id_bits) for e in edges), default=0
                )
                max_augmented = max(
                    (e.augmented_weight(id_bits) for e in edges), default=0
                )
                return (1, max_edge_number, max_augmented, len(edges))

            echo = {"local_value": local, "reducer": STATS_REDUCER}

        payload_bits = max(8, 2 * id_bits + self.graph.max_weight().bit_length() + 4)
        size, max_en, max_aw, endpoints = self.executor.broadcast_and_echo(
            root=root,
            broadcast_bits=8,
            echo_bits=payload_bits,
            tree=tree,
            kind="stats",
            **echo,
        )
        return TreeStatistics(
            size=size,
            max_edge_number=max_en,
            max_augmented_weight=max_aw,
            num_endpoints=endpoints,
        )

    # ------------------------------------------------------------------ #
    # TestOut
    # ------------------------------------------------------------------ #
    def test_out(
        self,
        root: int,
        low: Optional[int] = None,
        high: Optional[int] = None,
        odd_hash: Optional[OddHashFunction] = None,
        max_edge_number: Optional[int] = None,
        tree: Optional[TreeStructure] = None,
    ) -> bool:
        """TestOut(x, j, k): one-bit-echo cut test, never false positive.

        ``low``/``high`` bound the *augmented* weight of the edges considered
        (both ``None`` means "any edge", the plain ``TestOut(x)``).  A result
        of ``True`` is always correct; a non-empty cut is detected with
        probability at least 1/8.
        """
        word = self.test_out_word(
            root=root,
            ranges=[(low, high)],
            odd_hash=odd_hash,
            max_edge_number=max_edge_number,
            tree=tree,
        )
        return bool(word & 1)

    def test_out_word(
        self,
        root: int,
        ranges: Sequence[Tuple[Optional[int], Optional[int]]],
        odd_hash: Optional[OddHashFunction] = None,
        max_edge_number: Optional[int] = None,
        tree: Optional[TreeStructure] = None,
    ) -> int:
        """Up to ``w`` TestOuts in parallel sharing one broadcast-and-echo.

        This is the device of Section 3.1: because each TestOut's echo is a
        single bit and the same hash function is reused for every sub-range,
        ``w`` weight ranges can be tested with one B&E whose echo is a
        ``w``-bit word.  Bit ``i`` of the returned word is the outcome of
        ``TestOut(x, ranges[i])``.
        """
        count = len(ranges)
        if not count:
            raise AlgorithmError("at least one range is required")
        if count > 64 and count > max(self.config.word_size, 1):
            raise AlgorithmError(f"{count} parallel ranges exceed the word size")
        id_bits = self.graph.id_bits
        if tree is None:
            tree = self.forest.rooted_structure(root)
        # On the fast path the snapshot is read first, so the graph's
        # maxima below are O(1).
        cols = self.graph.columnar() if fastpath.is_enabled() else None
        if max_edge_number is None:
            max_edge_number = max(self.graph.max_edge_number(), 1)
        hash_fn = (
            odd_hash
            if odd_hash is not None
            else random_odd_hash(max_edge_number, self.config.rng)
        )
        lows, highs = zip(*ranges)
        if None in lows:
            lows = tuple(0 if low is None else low for low in lows)
        if None in highs:
            highs = tuple(_OPEN_HIGH if high is None else high for high in highs)
        range_bits = 2 * max(max(map(int.bit_length, highs)), 1)
        broadcast_bits = hash_fn.description_bits() + min(range_bits, 4 * id_bits + 64)

        # Fused columnar kernel when the ranges are sorted and disjoint (the
        # bisection needs it): the tree's parity word in one pass, hashing
        # each in-window edge once and locating its weight range by bisection.
        if cols is not None and all(map(operator.lt, highs, lows[1:])):
            return self.executor.broadcast_and_echo(
                root=root,
                broadcast_bits=broadcast_bits,
                echo_bits=count,
                tree=tree,
                kind="testout",
                aggregate=range_parity_words_all(
                    hash_fn, lows, highs, tree.cut_column(cols)
                ),
            )

        resolved_ranges = list(zip(lows, highs))

        def local(node: int) -> int:
            incident = [
                (e.augmented_weight(id_bits), e.edge_number(id_bits))
                for e in self.graph.incident_edges(node)
            ]
            parities = local_range_parities(incident, hash_fn, resolved_ranges)
            return pack_parity_word(parities)

        return self.executor.broadcast_and_echo(
            root=root,
            local_value=local,
            reducer=XOR_REDUCER,
            broadcast_bits=broadcast_bits,
            echo_bits=len(ranges),
            tree=tree,
            kind="testout",
        )

    # ------------------------------------------------------------------ #
    # HP-TestOut
    # ------------------------------------------------------------------ #
    def hp_test_out(
        self,
        root: int,
        low: Optional[int] = None,
        high: Optional[int] = None,
        field_prime: Optional[int] = None,
        statistics: Optional[TreeStatistics] = None,
        tree: Optional[TreeStructure] = None,
    ) -> bool:
        """HP-TestOut(x, j, k): w.h.p.-correct cut test via set equality.

        Returns ``True`` iff the test reports an edge leaving ``T_root`` with
        augmented weight in ``[low, high]``.  If no such edge exists the
        answer is always ``False``; if one exists the answer is ``True`` with
        probability at least ``1 − ε(n)``.

        ``field_prime`` (and the statistics used to derive it) may be passed
        in by callers that already ran the statistics broadcast — FindMin
        does — so that this is a single broadcast-and-echo (Lemma 1);
        otherwise the "step 0" statistics B&E is run (and charged) here.
        """
        if tree is None:
            tree = self.forest.rooted_structure(root)
        if field_prime is None:
            if statistics is None:
                statistics = self.tree_statistics(root, tree=tree)
            field_prime = prime_for_field(
                max_edge_number=max(statistics.max_edge_number, 2),
                num_endpoints=max(statistics.num_endpoints, 1),
                epsilon=self.config.epsilon(),
            )
        p = field_prime
        alpha = self.config.rng.randrange(0, p)
        id_bits = self.graph.id_bits
        low_bound = low if low is not None else 0
        high_bound = high if high is not None else _OPEN_HIGH
        prime_bits = p.bit_length()
        broadcast_bits = prime_bits + min(4 * id_bits + 64, 256)
        echo_bits = 2 * prime_bits

        # Each node's echo value is its (up, down) pair of Schwartz–Zippel
        # products; the pairs multiply up the tree componentwise mod p.
        if fastpath.is_enabled():
            # Fused columnar kernel: the answer the tree's pair gives, in
            # one pass.
            cols = self.graph.columnar()
            return self.executor.broadcast_and_echo(
                root=root,
                broadcast_bits=broadcast_bits,
                echo_bits=echo_bits,
                tree=tree,
                kind="hp_testout",
                aggregate=hp_products_all(
                    cols,
                    alpha,
                    p,
                    low_bound,
                    high_bound,
                    tree.row_mask(cols),
                    tree.statistics(cols)[1],
                    tree.cut_column(cols),
                ),
            )

        else:

            def local(node: int) -> Tuple[int, int]:
                up_numbers = []
                down_numbers = []
                for edge in self.graph.incident_edges(node):
                    weight = edge.augmented_weight(id_bits)
                    if not (low_bound <= weight <= high_bound):
                        continue
                    number = edge.edge_number(id_bits)
                    if node == edge.u:
                        up_numbers.append(number)
                    else:
                        down_numbers.append(number)
                return local_product(up_numbers, alpha, p), local_product(
                    down_numbers, alpha, p
                )

            up, down = self.executor.broadcast_and_echo(
                root=root,
                local_value=local,
                reducer=product_pair_reducer(p),
                broadcast_bits=broadcast_bits,
                echo_bits=echo_bits,
                tree=tree,
                kind="hp_testout",
            )

        return not SetEqualitySketch(up, down, alpha, p).sides_equal

    # ------------------------------------------------------------------ #
    # convenience for verification / experiments (God's-eye view)
    # ------------------------------------------------------------------ #
    def true_cut_edges(
        self, root: int, low: Optional[int] = None, high: Optional[int] = None
    ) -> List[Edge]:
        """Ground-truth list of edges leaving ``T_root`` in the weight range.

        Used only by tests and experiment harnesses to check the Monte Carlo
        answers; the distributed procedures never call it.
        """
        component = self.forest.component_of(root)
        id_bits = self.graph.id_bits
        low_bound = low if low is not None else 0
        high_bound = high if high is not None else _OPEN_HIGH
        result = []
        for edge in self.forest.outgoing_edges(component):
            weight = edge.augmented_weight(id_bits)
            if low_bound <= weight <= high_bound:
                result.append(edge)
        return result
