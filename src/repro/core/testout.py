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

A search (FindMin, Sample, FindAny) runs dozens of these over one fixed tree,
so it binds them to the tree once: :meth:`CutTester.probe` returns a
:class:`CutProbe` holding everything fixed for the search — the kernel tier,
the tree, the odd hashes' word bits, HP-TestOut's prime and every echo width.
Each of its echoes draws its randomness, computes the tree's aggregate (one
columnar kernel call, or one reference fold) and is charged by one
:meth:`~repro.network.broadcast.BroadcastEchoExecutor.broadcast_and_echo`.
FindMin's narrowing — its TestOut words and HP-TestOut checks, round after
round — is one loop on the probe, :meth:`CutProbe.search`, which FindMin
and Sample share on both tiers.  The :class:`CutTester` methods are thin
wrappers over a one-off probe.

Throughout this package, weight intervals refer to **augmented weights**
(weight concatenated with the edge number, see :mod:`repro.network.graph`),
which is exactly the paper's device for making weights distinct.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import fastpath
from ..network.accounting import MessageAccountant
from ..network.broadcast import (
    SUM_REDUCER,
    XOR_REDUCER,
    BroadcastEchoExecutor,
    Reducer,
    TreeStructure,
)
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph
from .config import AlgorithmConfig
from .hashing import OddHashFunction, PairwiseIndependentHash, draw_below, random_odd_hash
from .polynomial import SetEqualitySketch, local_product, product_pair_reducer
from .primes import prime_for_field
from .sketches import (
    hp_products_all,
    local_prefix_parities,
    local_range_parities,
    local_xor_below,
    pack_parity_word,
    prefix_flip_masks,
    prefix_parity_words_all,
    range_parity_words_all,
    xor_below_words_all,
)

__all__ = [
    "TreeStatistics",
    "CutTester",
    "CutProbe",
    "STATS_REDUCER",
    "lowest_set_bit",
    "split_range",
    "testout_local_word",
    "hp_local_pair",
]

#: The upper bound of an open weight range: above every augmented weight.
_OPEN_HIGH = 1 << 256


class TreeStatistics(NamedTuple):
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


def testout_local_word(
    graph: Graph, node: int, odd_hash: OddHashFunction, ranges: Sequence[Tuple[int, int]]
) -> int:
    """``node``'s TestOut echo value: bit ``i`` is the parity of ``odd_hash``
    over its incident edges whose augmented weight lies in ``ranges[i]``."""
    id_bits = graph.id_bits
    incident = [
        (e.augmented_weight(id_bits), e.edge_number(id_bits))
        for e in graph.incident_edges(node)
    ]
    return pack_parity_word(local_range_parities(incident, odd_hash, ranges))


def hp_local_pair(
    graph: Graph, node: int, alpha: int, p: int, low: int, high: int
) -> Tuple[int, int]:
    """``node``'s HP-TestOut echo value: the Schwartz–Zippel products at
    ``alpha`` mod ``p`` of its up and down incident edge numbers (the edges
    with augmented weight in ``[low, high]``, "up" when ``node`` is the
    edge's ``u`` endpoint)."""
    id_bits = graph.id_bits
    up_numbers = []
    down_numbers = []
    for edge in graph.incident_edges(node):
        if not (low <= edge.augmented_weight(id_bits) <= high):
            continue
        number = edge.edge_number(id_bits)
        if node == edge.u:
            up_numbers.append(number)
        else:
            down_numbers.append(number)
    return local_product(up_numbers, alpha, p), local_product(down_numbers, alpha, p)


def lowest_set_bit(word: int, width: int) -> Optional[int]:
    """Index of the lowest set bit among ``word``'s low ``width`` bits."""
    word &= (1 << width) - 1
    return (word & -word).bit_length() - 1 if word else None


def split_range(low: int, high: int, word_size: int) -> Tuple[List[int], List[int]]:
    """Split [low, high] into at most ``word_size`` contiguous sub-ranges.

    Returns the sub-ranges' ``(lows, highs)``: every one but the last spans
    ``chunk`` weights, and the last ends at ``high``.
    """
    if low > high:
        raise AlgorithmError(f"invalid range [{low}, {high}]")
    chunk = max(1, -(-(high - low + 1) // word_size))
    lows = list(range(low, high + 1, chunk))
    highs = list(range(low + chunk - 1, high + chunk, chunk))
    highs[-1] = high
    return lows, highs


#: ``testout(multiplier, threshold, word_bits, lows, highs, broadcast_bits)``:
#: one TestOut word B&E under the odd hash of those fields.
TestOutEcho = Callable[[int, int, int, Sequence[int], Sequence[int], int], int]
#: ``hp(low, high)``: one HP-TestOut B&E under a fresh ``α``.
HpEcho = Callable[[int, int], bool]
#: ``pivots(low, high)``: the ``(lows, highs)`` of one round's sub-ranges.
Pivots = Callable[[int, int], Tuple[List[int], List[int]]]


class CutProbe:
    """The cut tests of one search, bound once to its tree ``T_x``.

    Built by :meth:`CutTester.probe`, which picks the tier
    (:class:`_ColumnarProbe` or :class:`_ReferenceProbe`) once.  Everything
    fixed for the search is resolved here: the executor, the tree, the odd
    hashes' word bits (from the statistics echo's ``maxEdgeNum``), the
    TestOut range-bits cap ``4·id_bits + 64``, and HP-TestOut's prime and
    broadcast and echo widths.  A tier supplies two echoes bound to the
    tree (:meth:`_echoes`): a TestOut word and an HP-TestOut, each one
    call of the executor's
    :meth:`~repro.network.broadcast.BroadcastEchoExecutor.broadcast_and_echo`
    with one named kernel (columnar) or one reference fold, as every other
    echo is charged.  :meth:`search` is FindMin's whole narrowing over
    them, one loop per search, shared by FindMin and Sample; FindAny runs
    its own echoes.  A probe built without statistics cannot
    :meth:`search`, and one without a prime cannot run :meth:`hp`.
    """

    def __init__(
        self,
        tester: "CutTester",
        root: int,
        tree: TreeStructure,
        stats: Optional[TreeStatistics] = None,
        field_prime: Optional[int] = None,
    ) -> None:
        graph = tester.graph
        id_bits = graph.id_bits
        self.graph = graph
        self.executor = tester.executor
        self.root = root
        self.tree = tree
        self.id_bits = id_bits
        self._getrandbits = tester.config.rng.getrandbits
        self._word_size = tester.config.word_size
        if stats is not None:
            self._hash_bits = max(stats.max_edge_number, 1).bit_length()
        self._range_bits_cap = 4 * id_bits + 64
        self.field_prime = field_prime
        if field_prime is not None:
            prime_bits = field_prime.bit_length()
            self._hp_broadcast_bits = prime_bits + min(4 * id_bits + 64, 256)
            self._hp_echo_bits = 2 * prime_bits
        self._bind()

    def _bind(self) -> None:
        """Resolve the tier's own state for the tree."""

    @cached_property
    def _echoes(self) -> Tuple[TestOutEcho, Optional[HpEcho]]:
        """The tier's TestOut and HP-TestOut echoes over the tree.

        Each draws (HP-TestOut: its ``α``, as
        :func:`~repro.core.hashing.draw_below` does) and charges one B&E.
        They are built on the probe's first echo and kept for the search;
        the kernels are looked up then, so a wrapper installed on them sees
        every call.  HP-TestOut is ``None`` without a prime.
        """
        return self._bind_echoes()

    def _bind_echoes(self) -> Tuple[TestOutEcho, Optional[HpEcho]]:
        """Build the tier's :attr:`_echoes`."""
        raise NotImplementedError

    def _testout_broadcast_bits(self, description_bits: int, top: int) -> int:
        """The hash's description plus the ranges, capped at ``4·id_bits + 64``."""
        return description_bits + min(2 * max(top.bit_length(), 1), self._range_bits_cap)

    # ------------------------------------------------------------------ #
    # FindMin's narrowing (Section 3.1, steps 4-7; Appendix A's pivots)
    # ------------------------------------------------------------------ #
    def search(
        self, high: int, budget: int, pivots: Optional[Pivots] = None
    ) -> Tuple[Optional[Edge], bool, int]:
        """Narrow ``[0, high]`` to the lightest leaving edge, in at most ``budget`` rounds.

        Every round is one TestOut word over the sorted, disjoint sub-ranges
        of the range ``[low, high]``: FindMin's ``w``-wise
        :func:`split_range`, computed once per range, or, with ``pivots``,
        ``pivots(low, high)``'s intervals, drawn afresh every round
        (Sample's pivot B&E).  If no TestOut fires, HP-TestOut on
        ``[low, high]`` tells an empty cut from a round where every TestOut
        failed.  Otherwise the lowest firing sub-range is verified with
        HP-TestOut twice — no lighter edge was missed (``TestLow``, only
        when the sub-range is not the lowest) and the sub-range really
        holds a leaving edge (``TestInterval``) — and becomes the range;
        on inconsistent evidence the range stays.  A verified sub-range of
        one augmented weight names the edge (augmented weights are unique).

        A round draws from the config's generator the odd hash's multiplier
        and threshold (as :func:`~repro.core.hashing.draw_odd_hash`),
        then each HP-TestOut's ``α``, in that order.

        Returns ``(edge, verified_empty, rounds)``: ``verified_empty`` when
        HP-TestOut certified that no edge leaves the tree within the range,
        and ``edge`` ``None`` also when the budget ran out.
        """
        testout, hp = self._echoes
        getrandbits = self._getrandbits
        edge_from_augmented_weight = self.graph.edge_from_augmented_weight
        word_size = self._word_size
        # draw_odd_hash's draws: the multiplier below 2^w - 1 and the
        # threshold below 2^w, each plus one.
        hash_bits = self._hash_bits
        threshold_span = 1 << hash_bits
        multiplier_span = threshold_span - 1
        multiplier_bits = multiplier_span.bit_length()
        threshold_bits = threshold_span.bit_length()
        description_bits = 2 * hash_bits

        low = 0
        moved = True
        rounds = 0
        while rounds < budget:
            rounds += 1
            if moved:
                moved = False
                # Every sub-range list ends at ``high``.
                broadcast_bits = self._testout_broadcast_bits(description_bits, high)
                if pivots is None:
                    lows, highs = split_range(low, high, word_size)
            if pivots is not None:
                lows, highs = pivots(low, high)
            multiplier = getrandbits(multiplier_bits)
            while multiplier >= multiplier_span:
                multiplier = getrandbits(multiplier_bits)
            multiplier += 1
            if not multiplier & 1:
                multiplier -= 1
            threshold = getrandbits(threshold_bits)
            while threshold >= threshold_span:
                threshold = getrandbits(threshold_bits)
            word = testout(multiplier, threshold + 1, hash_bits, lows, highs, broadcast_bits)
            if not word:
                if not hp(low, high):
                    return None, True, rounds
                continue
            index = (word & -word).bit_length() - 1
            range_low = lows[index]
            range_high = highs[index]
            test_low = range_low > low and hp(low, range_low - 1)
            if not hp(range_low, range_high) or test_low:
                continue
            if range_low == range_high:
                edge = edge_from_augmented_weight(range_low)
                if edge is not None:
                    return edge, False, rounds
                # HP-TestOut erred: a failed round.
                continue
            low, high = range_low, range_high
            moved = True
        return None, False, rounds

    # ------------------------------------------------------------------ #
    # one-off TestOut and HP-TestOut
    # ------------------------------------------------------------------ #
    def testout_word_with(
        self, odd_hash: OddHashFunction, lows: Sequence[int], highs: Sequence[int]
    ) -> int:
        """Parallel TestOuts of ``[lows[i], highs[i]]`` under ``odd_hash``.

        One broadcast-and-echo whose ``len(lows)``-bit echo word has bit
        ``i`` set iff TestOut fired on range ``i``.  The columnar tier needs
        the ranges sorted and disjoint (``highs[i] < lows[i + 1]``).
        """
        return self._echoes[0](
            odd_hash.multiplier,
            odd_hash.threshold,
            odd_hash.word_bits,
            lows,
            highs,
            self._testout_broadcast_bits(odd_hash.description_bits(), max(highs)),
        )

    def hp(self, low: int = 0, high: int = _OPEN_HIGH) -> bool:
        """HP-TestOut on ``[low, high]`` under a fresh ``α``: one B&E.

        ``True`` iff the two Schwartz–Zippel products differ, i.e. (w.h.p.)
        some edge leaves the tree with augmented weight in the range.
        """
        return self._echoes[1](low, high)

    # ------------------------------------------------------------------ #
    # FindAny's echoes (Section 4.1, steps 3-4)
    # ------------------------------------------------------------------ #
    def prefix_word(self, pairwise: PairwiseIndependentHash) -> int:
        """Step 3(a-c): the cut's prefix parities, bit ``i`` for ``[2^i]``."""
        raise NotImplementedError

    def xor_below(self, pairwise: PairwiseIndependentHash, prefix: int) -> int:
        """Step 3(d): XOR of the cut's edge numbers hashing below ``2^prefix``."""
        raise NotImplementedError

    def candidate_edge(self, candidate: int) -> Optional[Edge]:
        """Step 4, the Test: the edge numbered ``candidate`` if it leaves the tree.

        The echo counts the tree's endpoints incident to the candidate; an
        edge leaves iff exactly one endpoint is in the tree.
        """
        edge = self.graph.edge_from_number(candidate)
        return edge if self._endpoint_count(candidate, edge) == 1 else None

    def _endpoint_count(self, candidate: int, edge: Optional[Edge]) -> int:
        raise NotImplementedError

    def _vector_bits(self, pairwise: PairwiseIndependentHash) -> Tuple[int, int]:
        return pairwise.description_bits(), pairwise.log_range + 1

    def _xor_bits(self, pairwise: PairwiseIndependentHash) -> Tuple[int, int]:
        return max(pairwise.log_range.bit_length(), 1), 2 * self.id_bits


class _ColumnarProbe(CutProbe):
    """Every echo is one fused kernel over the tree's memoised cut column.

    Holds the snapshot, the tree's cut column and row mask, and its
    ``maxEdgeNum`` (the bound of HP-TestOut's internal-factor lookup).
    """

    def _bind(self) -> None:
        cols = self.cols = self.graph.columnar()
        tree = self.tree
        self._cut = tree.cut_column(cols)
        self._row_mask = tree.row_mask(cols)
        self._max_number = tree.statistics(cols)[1]

    def _bind_echoes(self) -> Tuple[TestOutEcho, Optional[HpEcho]]:
        bne = self.executor.broadcast_and_echo
        root, tree, cut = self.root, self.tree, self._cut
        testout_kernel = range_parity_words_all

        def testout(
            multiplier: int,
            threshold: int,
            word_bits: int,
            lows: Sequence[int],
            highs: Sequence[int],
            broadcast_bits: int,
        ) -> int:
            return bne(
                root,
                broadcast_bits=broadcast_bits,
                echo_bits=len(lows),
                tree=tree,
                kind="testout",
                aggregate=testout_kernel(multiplier, threshold, word_bits, lows, highs, cut),
            )

        p = self.field_prime
        if p is None:
            return testout, None
        getrandbits = self._getrandbits
        alpha_bits = p.bit_length()
        hp_kernel = hp_products_all
        cols, row_mask, max_number = self.cols, self._row_mask, self._max_number
        broadcast_bits, echo_bits = self._hp_broadcast_bits, self._hp_echo_bits

        def hp(low: int, high: int) -> bool:
            alpha = getrandbits(alpha_bits)
            while alpha >= p:
                alpha = getrandbits(alpha_bits)
            return bne(
                root,
                broadcast_bits=broadcast_bits,
                echo_bits=echo_bits,
                tree=tree,
                kind="hp_testout",
                aggregate=hp_kernel(cols, alpha, p, low, high, row_mask, max_number, cut),
            )

        return testout, hp

    def prefix_word(self, pairwise: PairwiseIndependentHash) -> int:
        broadcast_bits, echo_bits = self._vector_bits(pairwise)
        masks = prefix_flip_masks(pairwise.log_range)
        return self.executor.broadcast_and_echo(
            self.root,
            broadcast_bits=broadcast_bits,
            echo_bits=echo_bits,
            tree=self.tree,
            kind="findany:vector",
            aggregate=prefix_parity_words_all(pairwise, masks, self._cut),
        )

    def xor_below(self, pairwise: PairwiseIndependentHash, prefix: int) -> int:
        broadcast_bits, echo_bits = self._xor_bits(pairwise)
        return self.executor.broadcast_and_echo(
            self.root,
            broadcast_bits=broadcast_bits,
            echo_bits=echo_bits,
            tree=self.tree,
            kind="findany:xor",
            aggregate=xor_below_words_all(pairwise, prefix, self._cut),
        )

    def _endpoint_count(self, candidate: int, edge: Optional[Edge]) -> int:
        # Only the edge the candidate number decodes to (if the graph has
        # it) is incident to it, so the count is how many of its two
        # endpoints the tree holds.
        count = 0
        if edge is not None:
            pos, mask = self.cols.pos, self._row_mask
            count = mask[pos[edge.u]] + mask[pos[edge.v]]
        return self.executor.broadcast_and_echo(
            self.root,
            broadcast_bits=2 * self.id_bits,
            echo_bits=2,
            tree=self.tree,
            kind="findany:test",
            aggregate=count,
        )


class _ReferenceProbe(CutProbe):
    """Every echo folds node-local values through the executor (the spec)."""

    cols = None

    def _incident_numbers(self, node: int) -> List[int]:
        id_bits = self.id_bits
        return [e.edge_number(id_bits) for e in self.graph.incident_edges(node)]

    def _bind_echoes(self) -> Tuple[TestOutEcho, Optional[HpEcho]]:
        bne = self.executor.broadcast_and_echo
        root, tree, graph = self.root, self.tree, self.graph

        def testout(
            multiplier: int,
            threshold: int,
            word_bits: int,
            lows: Sequence[int],
            highs: Sequence[int],
            broadcast_bits: int,
        ) -> int:
            odd_hash = OddHashFunction(multiplier, threshold, word_bits)
            ranges = list(zip(lows, highs))
            return bne(
                root,
                local_value=lambda node: testout_local_word(graph, node, odd_hash, ranges),
                reducer=XOR_REDUCER,
                broadcast_bits=broadcast_bits,
                echo_bits=len(lows),
                tree=tree,
                kind="testout",
            )

        p = self.field_prime
        if p is None:
            return testout, None
        getrandbits = self._getrandbits
        products = product_pair_reducer(p)
        broadcast_bits, echo_bits = self._hp_broadcast_bits, self._hp_echo_bits

        def hp(low: int, high: int) -> bool:
            alpha = draw_below(getrandbits, p)
            # The (up, down) pairs multiply up the tree componentwise mod p.
            up, down = bne(
                root,
                local_value=lambda node: hp_local_pair(graph, node, alpha, p, low, high),
                reducer=products,
                broadcast_bits=broadcast_bits,
                echo_bits=echo_bits,
                tree=tree,
                kind="hp_testout",
            )
            return not SetEqualitySketch(up, down, alpha, p).sides_equal

        return testout, hp

    def prefix_word(self, pairwise: PairwiseIndependentHash) -> int:
        broadcast_bits, echo_bits = self._vector_bits(pairwise)

        def local(node: int) -> int:
            numbers = self._incident_numbers(node)
            return pack_parity_word(local_prefix_parities(numbers, pairwise))

        return self.executor.broadcast_and_echo(
            self.root,
            local_value=local,
            reducer=XOR_REDUCER,
            broadcast_bits=broadcast_bits,
            echo_bits=echo_bits,
            tree=self.tree,
            kind="findany:vector",
        )

    def xor_below(self, pairwise: PairwiseIndependentHash, prefix: int) -> int:
        broadcast_bits, echo_bits = self._xor_bits(pairwise)

        def local(node: int) -> int:
            return local_xor_below(self._incident_numbers(node), pairwise, prefix)

        return self.executor.broadcast_and_echo(
            self.root,
            local_value=local,
            reducer=XOR_REDUCER,
            broadcast_bits=broadcast_bits,
            echo_bits=echo_bits,
            tree=self.tree,
            kind="findany:xor",
        )

    def _endpoint_count(self, candidate: int, edge: Optional[Edge]) -> int:
        def local(node: int) -> int:
            return self._incident_numbers(node).count(candidate)

        return self.executor.broadcast_and_echo(
            self.root,
            local_value=local,
            reducer=SUM_REDUCER,
            broadcast_bits=2 * self.id_bits,
            echo_bits=2,
            tree=self.tree,
            kind="findany:test",
        )


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
        return TreeStatistics(size, max_en, max_aw, endpoints)

    def field_prime(self, stats: TreeStatistics) -> int:
        """HP-TestOut's prime for a tree with these statistics (Section 2.2)."""
        return prime_for_field(
            max_edge_number=max(stats.max_edge_number, 2),
            num_endpoints=max(stats.num_endpoints, 1),
            epsilon=self.config.epsilon(),
        )

    # ------------------------------------------------------------------ #
    # the per-search probe
    # ------------------------------------------------------------------ #
    def probe(
        self,
        root: int,
        tree: Optional[TreeStructure] = None,
        stats: Optional[TreeStatistics] = None,
        field_prime: Optional[int] = None,
    ) -> CutProbe:
        """A :class:`CutProbe` bound to ``T_root`` on the active tier.

        ``stats`` is the tree's statistics echo: it sets the odd hashes'
        universe and, unless ``field_prime`` is given, HP-TestOut's prime.
        A search builds one probe right after its statistics B&E.
        """
        if tree is None:
            tree = self.forest.rooted_structure(root)
        if field_prime is None and stats is not None:
            field_prime = self.field_prime(stats)
        probe_type = _ColumnarProbe if fastpath.is_enabled() else _ReferenceProbe
        return probe_type(self, root, tree, stats, field_prime)

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
        ``TestOut(x, ranges[i])``.  Without ``odd_hash`` one is drawn over
        ``max_edge_number`` (default: the graph's ``maxEdgeNum``).
        """
        count = len(ranges)
        if not count:
            raise AlgorithmError("at least one range is required")
        if count > 64 and count > max(self.config.word_size, 1):
            raise AlgorithmError(f"{count} parallel ranges exceed the word size")
        if tree is None:
            tree = self.forest.rooted_structure(root)
        lows = [0 if low is None else low for low, _ in ranges]
        highs = [_OPEN_HIGH if high is None else high for _, high in ranges]
        # The columnar kernel locates an edge's range by bisection, which
        # needs sorted, disjoint ranges; any other list takes the reference
        # fold, with the same word and charge.
        if all(map(operator.lt, highs, lows[1:])):
            probe = self.probe(root, tree)
        else:
            probe = _ReferenceProbe(self, root, tree)
        if odd_hash is None:
            # A columnar probe has read the snapshot, which makes the
            # graph's maximum O(1).
            if max_edge_number is None:
                max_edge_number = max(self.graph.max_edge_number(), 1)
            odd_hash = random_odd_hash(max_edge_number, self.config.rng)
        return probe.testout_word_with(odd_hash, lows, highs)

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
            field_prime = self.field_prime(statistics)
        return self.probe(root, tree, field_prime=field_prime).hp(
            0 if low is None else low, _OPEN_HIGH if high is None else high
        )

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
