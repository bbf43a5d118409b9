"""Fused columnar kernels == the reference fold, aggregate for aggregate.

Every columnar kernel (``*_words_all``, ``hp_products_all``) returns the
aggregate of a set of rows: it must equal ``reduce(op, values, identity)``
over the packed value its reference kernel (``local_range_parities``,
``local_prefix_parities``, ``local_xor_below``, ``local_product``) computes
from each row's node — XOR for the parity words and edge-number XORs,
componentwise product mod ``p`` for HP-TestOut's pairs.  The row sets are
arbitrary subsets, not only trees (an edge with both endpoints in the set
cancels from an XOR whatever the set is), on both sides of the half-graph
rule (:func:`repro.fastpath.covers_half`: row pass below it, edge-window
pass at or above it), with the numpy tier both active and forced off, over
empty, single-edge, narrow and full weight windows, an edgeless row, and
both column representations (``fits64``).  The tier, the pass and the size
rule may only change wall clock, never an aggregate.
"""

import operator
import random
from array import array
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import repro.accel as accel
import repro.core.sketches as sketches
from repro import fastpath
from repro.core.hashing import (
    OddHashFunction,
    PairwiseIndependentHash,
    random_odd_hash,
    random_pairwise_hash,
)
from repro.core.polynomial import local_product, product_pair_reducer
from repro.core.sketches import (
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
from repro.network.columnar import ColumnarGraph
from repro.network.errors import GraphError
from repro.network.graph import Graph


@pytest.fixture(params=["numpy", "stdlib"])
def tier(request, monkeypatch):
    """Run once with the numpy tier as imported and once forced off.

    Yields the list of numpy window passes the kernels ran, so a test can
    check the tier it asked for really was exercised.
    """
    if request.param == "stdlib":
        # What REPRO_NUMPY=0 does at import time.
        monkeypatch.setattr(accel, "_np", None)
    numpy_passes = []
    original = sketches._numpy_cut

    def spy(*args, **kwargs):
        numpy_passes.append(args[3:])
        return original(*args, **kwargs)

    monkeypatch.setattr(sketches, "_numpy_cut", spy)
    yield request.param, numpy_passes
    if request.param == "stdlib" or accel.numpy_or_none() is None:
        assert not numpy_passes


def random_graph(seed: int, n: int = 24, ordering: str = "random") -> Graph:
    """A random graph on ``n`` nodes plus an edgeless last node ``n + 1``.

    ``ordering`` pins the relationship between edge-number order and
    weight order: "ascending" makes heavier edges have larger numbers,
    "descending" inverts it (the aug-sorted mirrors then reverse the slot
    order), "random" decouples them.  The edgeless node gives every sample
    an empty last row (see :func:`row_subsets`).
    """
    rng = random.Random(seed)
    graph = Graph(id_bits=8)
    for node in range(1, n + 2):
        graph.add_node(node)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = rng.sample(pairs, k=min(3 * n, len(pairs)))
    chosen.sort()
    for index, (u, v) in enumerate(chosen):
        if ordering == "ascending":
            weight = index + 1
        elif ordering == "descending":
            weight = len(chosen) - index
        else:
            weight = rng.randrange(1, 1 << 10)
        graph.add_edge(u, v, weight=weight)
    return graph


def snapshot_columns(cols: ColumnarGraph):
    """Every slot of ``cols`` but the numpy mirrors, with column types.

    An ``array`` column is tagged with its typecode, so a snapshot whose
    columns changed representation (``fits64``) compares unequal.
    """
    return {
        name: (
            type(value).__name__,
            getattr(value, "typecode", None),
            list(value) if isinstance(value, (array, bytearray, list)) else value,
        )
        for name in ColumnarGraph.__slots__
        if name != "_np_cols"
        for value in [getattr(cols, name)]
    }


def assert_maxima_match_scan(graph: Graph) -> None:
    """The graph's O(1) maxima equal a scan over its edges."""
    id_bits = graph.id_bits
    edges = graph.edges()
    assert graph.max_weight() == max((e.weight for e in edges), default=0)
    assert graph.max_edge_number() == max(
        (e.edge_number(id_bits) for e in edges), default=0
    )
    assert graph.max_augmented_weight() == max(
        (e.augmented_weight(id_bits) for e in edges), default=0
    )


def random_ranges(rng: random.Random, max_augmented: int, count: int):
    """Sorted, disjoint (lows, highs) covering random spans of the weights.

    Draws with ``randrange`` rather than ``sample`` so the bound space may
    exceed ``ssize_t`` (augmented weights past 64 bits when ``fits64`` is
    off); duplicate draws only make a span empty, never overlapping.
    """
    bounds = sorted(rng.randrange(max_augmented + 2) for _ in range(2 * count))
    lows = bounds[0::2]
    highs = [max(high - 1, low) for low, high in zip(lows, bounds[1::2])]
    return lows, highs


def windows(graph: Graph, rng: random.Random):
    """(lows, highs) inputs: random spans, then the named windows.

    The named ones are a narrow window between two of one node's weights
    (FindMin after a few narrowings), a window holding exactly one edge, an
    empty window past the heaviest edge, and TestOut's "any edge" window,
    whose 2^256 upper bound exceeds every column width.
    """
    cols = graph.columnar()
    yield random_ranges(rng, cols.max_augmented, rng.randrange(1, 9))
    busiest = max(graph.nodes(), key=graph.degree)
    weights = sorted(
        edge.augmented_weight(graph.id_bits) for edge in graph.incident_edges(busiest)
    )
    yield [weights[len(weights) // 4]], [weights[3 * len(weights) // 4]]
    single = rng.choice(weights)
    yield [single], [single]
    yield [cols.max_augmented + 1], [1 << 256]
    yield [0], [1 << 256]


def row_subsets(n: int, rng: random.Random):
    """Empty, one row, just under half, half, and all rows of an n-row graph.

    Every non-empty subset holds the last row, which the test graphs leave
    edgeless, so both sides of the half-graph rule meet an empty row.  The
    subsets are arbitrary node sets, so they need not span a tree.
    """
    yield []
    for size in (1, (n - 1) // 2, (n + 1) // 2, n):
        yield sorted(rng.sample(range(n - 1), size - 1)) + [n - 1]


def mask_of(rows, num_nodes: int) -> bytearray:
    """The membership mask of ``rows``, as ``TreeStructure.row_mask`` builds it."""
    mask = bytearray(num_nodes)
    for row in rows:
        mask[row] = 1
    return mask


def numbers_of(graph: Graph, node: int):
    return [edge.edge_number(graph.id_bits) for edge in graph.incident_edges(node)]


def xor_of(values) -> int:
    return reduce(operator.xor, values, 0)


def assert_all_kernels_match(graph: Graph, rng: random.Random) -> None:
    """Every columnar kernel's aggregate equals the reference fold on ``graph``."""
    cols = graph.columnar()
    assert cols.ids == graph.nodes()
    assert graph.degree(cols.ids[-1]) == 0
    id_bits = graph.id_bits
    max_number = max(cols.max_number, 2)

    def incident(node):
        return [
            (edge.augmented_weight(id_bits), edge.edge_number(id_bits))
            for edge in graph.incident_edges(node)
        ]

    sides = set()
    for rows in row_subsets(cols.num_nodes, rng):
        sides.add(fastpath.covers_half(len(rows), cols.num_nodes))
        mask = mask_of(rows, cols.num_nodes)
        nodes = [cols.ids[row] for row in rows]

        odd_hash = random_odd_hash(max_number, rng)
        for lows, highs in windows(graph, rng):
            ranges = list(zip(lows, highs))
            word = range_parity_words_all(cols, odd_hash, lows, highs, rows, mask)
            assert word == xor_of(
                pack_parity_word(local_range_parities(incident(node), odd_hash, ranges))
                for node in nodes
            )

        pairwise = random_pairwise_hash(max_number, 1 << rng.randrange(2, 10), rng)
        masks = prefix_flip_masks(pairwise.log_range)
        word = prefix_parity_words_all(cols, pairwise, masks, rows, mask)
        assert word == xor_of(
            pack_parity_word(local_prefix_parities(numbers_of(graph, node), pairwise))
            for node in nodes
        )

        for prefix in range(pairwise.log_range + 1):
            word = xor_below_words_all(cols, pairwise, prefix, rows, mask)
            assert word == xor_of(
                local_xor_below(numbers_of(graph, node), pairwise, prefix)
                for node in nodes
            )

        p = 2**31 - 1
        reducer = product_pair_reducer(p)
        alpha = rng.randrange(1, p)
        for lows, highs in windows(graph, rng):
            low, high = lows[0], highs[-1]
            pairs = []
            for node in nodes:
                up, down = [], []
                for edge in graph.incident_edges(node):
                    if low <= edge.augmented_weight(id_bits) <= high:
                        side = up if node == edge.u else down
                        side.append(edge.edge_number(id_bits))
                pairs.append((local_product(up, alpha, p), local_product(down, alpha, p)))
            products = hp_products_all(cols, alpha, p, low, high, rows, mask)
            assert products == reduce(reducer.op, pairs, reducer.identity)
    assert sides == {False, True}


class TestColumnarGraph:
    def test_columns_match_incident_edges(self):
        graph = random_graph(seed=1)
        id_bits = graph.id_bits
        cols = ColumnarGraph.from_graph(graph)
        assert cols.num_nodes == graph.num_nodes
        assert cols.num_slots == 2 * graph.num_edges == 2 * cols.num_edges
        assert cols.version == graph.version
        for node in graph.nodes():
            edges = graph.incident_edges(node)
            numbers = [edge.edge_number(id_bits) for edge in edges]
            augmented = [edge.augmented_weight(id_bits) for edge in edges]
            up = [int(node == edge.u) for edge in edges]
            by_aug = sorted(zip(augmented, numbers, up))
            start, stop = cols.slice_of(node)
            assert stop - start == cols.degree(node) == graph.degree(node)
            assert list(cols.numbers[start:stop]) == numbers
            assert list(cols.augmented[start:stop]) == augmented
            assert list(cols.up[start:stop]) == up
            assert list(cols.aug_sorted[start:stop]) == [a for a, _, _ in by_aug]
            assert list(cols.numbers_by_aug[start:stop]) == [e for _, e, _ in by_aug]
            assert list(cols.up_by_aug[start:stop]) == [u for _, _, u in by_aug]
            row = cols.pos[node]
            assert cols.node_max_number[row] == max(numbers, default=0)
            assert cols.node_max_augmented[row] == max(augmented, default=0)
            view = graph.incident_arrays(node)
            assert [list(column) for column in view] == [numbers, augmented, up]
        assert cols.max_number == max(cols.node_max_number) == graph.max_edge_number()
        assert cols.max_augmented == graph.max_augmented_weight()
        assert cols.max_augmented >> (2 * id_bits) == graph.max_weight()

    @settings(max_examples=40, deadline=None)
    @given(
        id_bits=st.sampled_from([9, 32]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["add", "remove", "set_weight", "add_node", "remove_node"]
                ),
                st.integers(1, 14),
                st.integers(1, 14),
                # 2^47 pushes an augmented weight past 64 bits at id_bits 9.
                st.one_of(st.integers(0, 1 << 20), st.just(1 << 47)),
            ),
            max_size=60,
        ),
    )
    def test_edge_columns_equal_sorted_edges(self, id_bits, ops):
        # After every op the cached snapshot (spliced, or rebuilt after a
        # node op or a fits64 flip) equals a fresh build, its edge columns
        # are graph.edges() sorted by augmented weight with the rows of
        # both endpoints, the graph's maxima match a scan, and a snapshot
        # held across the op is unchanged.
        graph = Graph(id_bits=id_bits)
        for node in range(1, 13):
            graph.add_node(node)
        for op, u, v, weight in ops:
            held = graph.columnar()
            held.numpy_columns()  # export the buffers a splice must not resize
            before = snapshot_columns(held)
            if op == "add_node":
                graph.add_node(u)
            elif op == "remove_node":
                if graph.has_node(u):
                    graph.remove_node(u)
            elif u == v or not (graph.has_node(u) and graph.has_node(v)):
                continue
            elif op == "add" and not graph.has_edge(u, v):
                graph.add_edge(u, v, weight=weight)
            elif op == "remove" and graph.has_edge(u, v):
                graph.remove_edge(u, v)
            elif op == "set_weight" and graph.has_edge(u, v):
                graph.set_weight(u, v, weight=weight)
            assert snapshot_columns(held) == before
            cols = graph.columnar()
            assert snapshot_columns(cols) == snapshot_columns(
                ColumnarGraph.from_graph(graph)
            )
            expected = sorted(
                (
                    edge.augmented_weight(id_bits),
                    edge.edge_number(id_bits),
                    cols.pos[edge.u],
                    cols.pos[edge.v],
                )
                for edge in graph.edges()
            )
            got = list(
                zip(cols.edge_aug, cols.edge_numbers, cols.edge_urow, cols.edge_vrow)
            )
            assert got == expected
            assert cols.num_edges == graph.num_edges
            assert_maxima_match_scan(graph)

    @pytest.mark.parametrize("id_bits", [9, 32])
    def test_splice_across_the_64_bit_boundary(self, id_bits):
        # A weight change that pushes the heaviest augmented weight past
        # 2^64 moves the columns to lists; deleting that edge brings them
        # back to array('Q').  At id_bits 32 every edge is past 2^64, so
        # only the edgeless graph fits.
        graph = Graph(id_bits=id_bits)
        for node in range(1, 6):
            graph.add_node(node)
        if id_bits == 9:
            graph.add_edge(1, 2, weight=5)
        assert graph.columnar().fits64
        graph.add_edge(3, 4, weight=7)
        graph.set_weight(3, 4, weight=1 << 47)
        heavy = graph.columnar()
        assert not heavy.fits64 and isinstance(heavy.edge_aug, list)
        assert snapshot_columns(heavy) == snapshot_columns(ColumnarGraph.from_graph(graph))
        assert_maxima_match_scan(graph)
        graph.remove_edge(3, 4)
        light = graph.columnar()
        assert light.fits64 and isinstance(light.edge_aug, array)
        assert snapshot_columns(light) == snapshot_columns(ColumnarGraph.from_graph(graph))
        assert_maxima_match_scan(graph)
        assert not heavy.fits64  # the held snapshot kept its representation

    def test_unknown_node_rejected(self):
        graph = random_graph(seed=2)
        cols = ColumnarGraph.from_graph(graph)
        with pytest.raises(GraphError):
            cols.slice_of(999)
        with pytest.raises(GraphError):
            graph.incident_arrays(999)

    def test_graph_accessor_caches_per_version(self):
        graph = random_graph(seed=3)
        cols = graph.columnar()
        assert graph.columnar() is cols  # no mutation: same snapshot
        edge = graph.edges()[0]
        graph.set_weight(edge.u, edge.v, weight=edge.weight + 1)
        fresh = graph.columnar()
        assert fresh is not cols and fresh.version == graph.version

    def test_fits64_false_falls_back_to_lists(self, tier):
        # Default id_bits=32 pushes augmented weights past 64 bits: the
        # columns must degrade to plain lists and the numpy mirrors to None,
        # with every kernel still matching the reference.
        graph = Graph(id_bits=32)
        rng = random.Random(11)
        for node in range(1, 14):
            graph.add_node(node)  # node 13 stays edgeless
        for u in range(1, 12):
            graph.add_edge(u, u + 1, weight=rng.randrange(1, 10**9))
        cols = graph.columnar()
        assert not cols.fits64
        assert isinstance(cols.numbers, list)
        assert isinstance(cols.edge_aug, list)
        assert cols.numpy_columns() is None
        assert_all_kernels_match(graph, rng)
        assert not tier[1]


class TestFusedKernels:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("ordering", ["random", "ascending", "descending"])
    def test_aggregates_equal_reference_fold(self, seed, ordering, tier):
        graph = random_graph(seed=seed, ordering=ordering)
        assert_all_kernels_match(graph, random.Random(seed + 100))
        name, numpy_passes = tier
        if name == "numpy" and accel.numpy_or_none() is not None:
            assert numpy_passes  # the full windows vectorised

    def test_edgeless_graph_aggregates_are_identities(self, tier):
        graph = Graph(id_bits=8)
        for node in range(1, 5):
            graph.add_node(node)
        cols = graph.columnar()
        odd_hash = OddHashFunction(multiplier=3, threshold=1, word_bits=2)
        pairwise = PairwiseIndependentHash(a=3, b=5, p=65537, range_size=8)
        masks = prefix_flip_masks(pairwise.log_range)
        for rows in ([], [0], [0, 1, 2, 3]):
            mask = mask_of(rows, cols.num_nodes)
            assert range_parity_words_all(cols, odd_hash, [0], [1 << 256], rows, mask) == 0
            assert prefix_parity_words_all(cols, pairwise, masks, rows, mask) == 0
            assert xor_below_words_all(cols, pairwise, 2, rows, mask) == 0
            assert hp_products_all(cols, 7, 11, 0, 1 << 256, rows, mask) == (1, 1)

    def test_numpy_gates_fall_back_exactly(self):
        # Inputs outside every numpy gate (word_bits > 64, > 64 ranges, a
        # pairwise hash whose products overflow int64) over a whole-graph
        # row set still match the reference fold bit for bit.
        graph = random_graph(seed=42)
        cols = graph.columnar()
        rows = list(range(cols.num_nodes))
        mask = mask_of(rows, cols.num_nodes)
        wide = OddHashFunction(multiplier=(1 << 69) + 1, threshold=1 << 68, word_bits=70)
        lows = list(range(0, 140, 2))  # 70 ranges > the 64-bit word gate
        highs = [low + 1 for low in lows]
        word = range_parity_words_all(cols, wide, lows, highs, rows, mask)
        assert word == xor_of(
            pack_parity_word(
                local_range_parities(
                    [
                        (edge.augmented_weight(graph.id_bits), edge.edge_number(graph.id_bits))
                        for edge in graph.incident_edges(node)
                    ],
                    wide,
                    list(zip(lows, highs)),
                )
            )
            for node in cols.ids
        )

        huge_p = 2**89 - 1  # a * max_number + b overflows int64
        pairwise = PairwiseIndependentHash(
            a=huge_p - 3, b=huge_p - 7, p=huge_p, range_size=64
        )
        word = prefix_parity_words_all(
            cols, pairwise, prefix_flip_masks(pairwise.log_range), rows, mask
        )
        xor_word = xor_below_words_all(cols, pairwise, 3, rows, mask)
        assert word == xor_of(
            pack_parity_word(local_prefix_parities(numbers_of(graph, node), pairwise))
            for node in cols.ids
        )
        assert xor_word == xor_of(
            local_xor_below(numbers_of(graph, node), pairwise, 3) for node in cols.ids
        )
