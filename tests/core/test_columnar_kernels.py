"""Fused columnar kernels == the reference fold, aggregate for aggregate.

Every columnar kernel (``*_words_all``, ``hp_products_all``) folds a set of
rows from the set's cut column: an XOR kernel must return
``reduce(op, values, identity)`` over the packed value its reference kernel
(``local_range_parities``, ``local_prefix_parities``, ``local_xor_below``)
computes from each row's node, and HP-TestOut's must return the answer
(``up != down``) that the componentwise product mod ``p`` of the nodes'
``local_product`` pairs gives.  The row sets are arbitrary subsets, not
only trees (an edge with both endpoints in the set cancels from an XOR
whatever the set is).  A tree's cut column
(:meth:`~repro.network.broadcast.TreeStructure.cut_column`) comes from the
one builder, :meth:`ColumnarGraph.cut_column_of_rows`, fed the tree's own
rows below half the nodes and the rows outside it otherwise; both sides
must give the brute-force cut on each set, over empty, single-edge, narrow
and full weight windows, an edgeless row, a graph of several components,
and both column representations (``fits64``).  The same side rule gives
a tree's row mask, rows and statistics tuple; they must equal a brute-force
scan when the edge holding the snapshot's largest number and weight lies
outside the tree, half in it or inside it, across splices.
"""

import operator
import random
from array import array
from functools import reduce
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.sketches as sketches_module
from repro.core.hashing import (
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
from repro.network.broadcast import TreeStructure, build_tree_structure
from repro.network.columnar import ColumnarGraph, CutColumn
from repro.network.errors import GraphError
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph


def random_graph(seed: int, n: int = 24, ordering: str = "random") -> Graph:
    """A random graph on ``n`` nodes plus an edgeless last node ``n + 1``.

    ``ordering`` pins the relationship between edge-number order and
    weight order: "ascending" makes heavier edges have larger numbers,
    "descending" inverts it (a row's slots, sorted by number, are then in
    falling weight order), "random" decouples them.  The edgeless node gives every sample
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
    """Every slot of ``cols``, with column types.

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
    edgeless, so both passes meet an empty row.  The subsets are arbitrary
    node sets, so they need not span a tree.
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


def brute_cut(graph: Graph, nodes) -> CutColumn:
    """The cut column of ``nodes``, from the graph's edge list."""
    id_bits = graph.id_bits
    inside = set(nodes)
    cut = sorted(
        (edge.augmented_weight(id_bits), edge.edge_number(id_bits), int(edge.u in inside))
        for edge in graph.edges()
        if (edge.u in inside) != (edge.v in inside)
    )
    return CutColumn(
        aug=[aug for aug, _, _ in cut],
        numbers=[number for _, number, _ in cut],
        up=bytes(up for _, _, up in cut),
    )


def max_number_of(cols: ColumnarGraph, rows) -> int:
    """The largest edge number incident to ``rows`` (a tree's ``maxEdgeNum``)."""
    return max(map(cols.node_max_number.__getitem__, rows), default=0)


def tree_over(cols: ColumnarGraph, rows) -> TreeStructure:
    """A rooted structure holding the nodes of ``rows`` (a star at the first).

    The cut column depends only on the node set, so the set need not span
    a tree of the graph.
    """
    root, *rest = [cols.ids[row] for row in rows]
    parent = {root: None, **{node: root for node in rest}}
    return TreeStructure(root, parent, {node: int(node != root) for node in parent})


def cut_of(cols: ColumnarGraph, rows, mask) -> CutColumn:
    """The rows' cut column as a tree over them memoises it.

    Checked against the builder fed the rows themselves, so a set holding
    at least half the nodes compares the two sides of its cut.
    """
    own = cols.cut_column_of_rows(rows, mask)
    if rows:
        assert tree_over(cols, rows).cut_column(cols) == own
    return own


def numbers_of(graph: Graph, node: int):
    return [edge.edge_number(graph.id_bits) for edge in graph.incident_edges(node)]


def xor_of(values) -> int:
    return reduce(operator.xor, values, 0)


def reference_hp_pair(graph: Graph, nodes, alpha: int, p: int, low: int, high: int):
    """The reference echo of HP-TestOut over ``nodes``: the ``(up, down)`` pair."""
    id_bits = graph.id_bits
    reducer = product_pair_reducer(p)
    pairs = []
    for node in nodes:
        up, down = [], []
        for edge in graph.incident_edges(node):
            if low <= edge.augmented_weight(id_bits) <= high:
                side = up if node == edge.u else down
                side.append(edge.edge_number(id_bits))
        pairs.append((local_product(up, alpha, p), local_product(down, alpha, p)))
    return reduce(reducer.op, pairs, reducer.identity)


def assert_hp_answers_match(graph: Graph, rows, alpha: int, p: int, low: int, high: int):
    """``hp_products_all`` over the rows' cut gives the reference answer."""
    cols = graph.columnar()
    mask = mask_of(rows, cols.num_nodes)
    up, down = reference_hp_pair(graph, [cols.ids[row] for row in rows], alpha, p, low, high)
    answer = hp_products_all(
        cols, alpha, p, low, high, mask, max_number_of(cols, rows), cut_of(cols, rows, mask)
    )
    assert answer == (up != down)


def assert_all_kernels_match(graph: Graph, rng: random.Random) -> None:
    """Every columnar kernel's answer equals the reference fold on ``graph``."""
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

    for rows in row_subsets(cols.num_nodes, rng):
        mask = mask_of(rows, cols.num_nodes)
        nodes = [cols.ids[row] for row in rows]
        cut = cut_of(cols, rows, mask)
        assert cut == brute_cut(graph, nodes)

        odd_hash = random_odd_hash(max_number, rng)
        for lows, highs in windows(graph, rng):
            ranges = list(zip(lows, highs))
            expected = xor_of(
                pack_parity_word(local_range_parities(incident(node), odd_hash, ranges))
                for node in nodes
            )
            word = range_parity_words_all(
                odd_hash.multiplier, odd_hash.threshold, odd_hash.word_bits, lows, highs, cut
            )
            assert word == expected

        pairwise = random_pairwise_hash(max_number, 1 << rng.randrange(2, 10), rng)
        masks = prefix_flip_masks(pairwise.log_range)
        expected = xor_of(
            pack_parity_word(local_prefix_parities(numbers_of(graph, node), pairwise))
            for node in nodes
        )
        assert prefix_parity_words_all(pairwise, masks, cut) == expected

        for prefix in range(pairwise.log_range + 1):
            expected = xor_of(
                local_xor_below(numbers_of(graph, node), pairwise, prefix)
                for node in nodes
            )
            assert xor_below_words_all(pairwise, prefix, cut) == expected

        p = 2**31 - 1
        alpha = rng.randrange(1, p)
        for lows, highs in windows(graph, rng):
            assert_hp_answers_match(graph, rows, alpha, p, lows[0], highs[-1])


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
            start, stop = cols.slice_of(node)
            assert stop - start == cols.degree(node) == graph.degree(node)
            assert list(cols.numbers[start:stop]) == numbers
            assert list(cols.augmented[start:stop]) == augmented
            assert list(cols.up[start:stop]) == up
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
        # node op or a fits64 flip) equals a fresh build, its edge column
        # is graph.edges()' augmented weights in ascending order, the
        # graph's maxima match a scan, and a snapshot held across the op is
        # unchanged.
        graph = Graph(id_bits=id_bits)
        for node in range(1, 13):
            graph.add_node(node)
        for op, u, v, weight in ops:
            held = graph.columnar()
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
            expected = sorted(edge.augmented_weight(id_bits) for edge in graph.edges())
            assert list(cols.edge_aug) == expected
            assert cols.num_edges == graph.num_edges
            assert_maxima_match_scan(graph)

    @settings(max_examples=60, deadline=None)
    @given(
        id_bits=st.sampled_from([9, 32]),
        edges=st.lists(
            st.tuples(st.integers(1, 14), st.integers(1, 14), st.integers(0, 1 << 20)),
            max_size=40,
        ),
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(1, 14),
                st.integers(1, 14),
                st.integers(0, 1 << 20),
            ),
            max_size=20,
        ),
        rows=st.sets(st.integers(0, 13)),
    )
    def test_cut_builders_agree_across_splices(self, id_bits, edges, ops, rows):
        # On a fresh snapshot and on every snapshot spliced from it by an
        # edge insertion (True) or deletion (False): the splice equals a
        # fresh build column for column, and a tree over the rows (its own
        # rows below half the nodes, its complement otherwise) has the
        # brute-force cut, as does the builder fed the rows themselves.
        graph = Graph(id_bits=id_bits)
        for node in range(1, 15):
            graph.add_node(node)
        for u, v, weight in edges:
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, weight=weight)
        rows = sorted(rows)
        for step in [None] + ops:
            if step is not None:
                insert, u, v, weight = step
                if u == v:
                    continue
                if insert and not graph.has_edge(u, v):
                    graph.add_edge(u, v, weight=weight)
                elif not insert and graph.has_edge(u, v):
                    graph.remove_edge(u, v)
            cols = graph.columnar()
            assert snapshot_columns(cols) == snapshot_columns(
                ColumnarGraph.from_graph(graph)
            )
            mask = mask_of(rows, cols.num_nodes)
            cut = cut_of(cols, rows, mask)
            assert cut == brute_cut(graph, [cols.ids[row] for row in rows])

    @pytest.mark.parametrize("id_bits", [9, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_tree_cut_column_on_both_sides(self, id_bits, seed):
        # Trees of a forest on three components plus two isolated nodes
        # (20 nodes): each tree's cut column equals the brute-force cut
        # while unmarking tree edges one by one shrinks the trees from
        # whole components (empty cuts) through the >= half side (the
        # 12-node component) to single nodes.  Then one spanning tree of a
        # connected graph holds every node and has an empty cut.
        rng = random.Random(seed)
        graph = Graph(id_bits=id_bits)
        for node in range(1, 21):
            graph.add_node(node)
        tree_edges = []
        for members in (range(1, 13), range(13, 18), range(18, 19)):
            members = list(members)
            rng.shuffle(members)
            for index in range(1, len(members)):
                u, v = members[index], rng.choice(members[:index])
                graph.add_edge(u, v, weight=rng.randrange(1, 1 << 20))
                tree_edges.append((u, v))
            for _ in range(len(members)):
                u, v = rng.sample(members, 2) if len(members) > 1 else (0, 0)
                if u and not graph.has_edge(u, v):
                    graph.add_edge(u, v, weight=rng.randrange(1, 1 << 20))
        forest = SpanningForest(graph, marked=tree_edges)
        cols = graph.columnar()
        assert cols.fits64 is (id_bits == 9)
        # The 12-node component's last edge hangs a leaf, so unmarking it
        # first leaves an 11-node tree with a non-empty cut.
        order = tree_edges[:10] + tree_edges[11:]
        rng.shuffle(order)
        sizes, large_cuts = set(), 0
        for cut_edge in [None, tree_edges[10]] + order:
            if cut_edge is not None:
                forest.unmark(*cut_edge)
            for root in graph.nodes():
                tree = build_tree_structure(forest, root)
                sizes.add(tree.size)
                cut = tree.cut_column(cols)
                assert cut == brute_cut(graph, tree.nodes)
                assert cut == cut_of(cols, sorted(tree.rows(cols)), tree.row_mask(cols))
                large_cuts += bool(2 * tree.size >= cols.num_nodes and cut.aug)
        assert min(sizes) == 1 and max(sizes) == 12 and large_cuts

        joins = [(12, 13), (17, 18), (18, 19), (19, 20)]
        for u, v in joins:
            graph.add_edge(u, v, weight=1)
        spanning = SpanningForest(graph, marked=tree_edges + joins)
        cols = graph.columnar()
        whole = build_tree_structure(spanning, 1)
        assert whole.size == cols.num_nodes
        assert whole.cut_column(cols) == CutColumn([], [], b"")

    @pytest.mark.parametrize("id_bits", [9, 32])
    def test_splice_rescans_max_number_only_for_its_edge(self, id_bits):
        # Deleting (1, 2) keeps the largest edge number; deleting (4, 5),
        # then (3, 5), deletes the edge holding it, so the splice must find
        # the next one; a fresh build and a scan agree at every step.
        graph = Graph(id_bits=id_bits)
        for u, v in [(1, 2), (2, 3), (3, 5), (4, 5)]:
            graph.add_edge(u, v, weight=u + v)
        graph.columnar()
        for u, v in [(1, 2), (4, 5), (3, 5), (2, 3)]:
            graph.remove_edge(u, v)
            cols = graph.columnar()
            assert snapshot_columns(cols) == snapshot_columns(
                ColumnarGraph.from_graph(graph)
            )
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

    @pytest.mark.parametrize("id_bits", [9, 32])
    def test_indptr_is_a_list_in_every_snapshot(self, id_bits):
        # A fresh build and every splice successor, insertion or deletion,
        # hold indptr as one type whatever the other columns' fits64.
        graph = Graph(id_bits=id_bits)
        for u, v in [(1, 2), (2, 3), (3, 4), (1, 4)]:
            graph.add_edge(u, v, weight=u * v)
        fresh = ColumnarGraph.from_graph(graph)
        assert type(fresh.indptr) is list
        held = graph.columnar()
        for insert, u, v in [(False, 1, 4), (True, 1, 3), (False, 2, 3), (True, 2, 4)]:
            if insert:
                graph.add_edge(u, v, weight=7)
            edge = graph.get_edge(u, v)
            if not insert:
                graph.remove_edge(u, v)
            successor = held.spliced(edge, graph.version, insert)
            assert type(successor.indptr) is type(fresh.indptr)
            assert snapshot_columns(successor) == snapshot_columns(graph.columnar())
            held = successor

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

    def test_fits64_false_falls_back_to_lists(self):
        # Default id_bits=32 pushes augmented weights past 64 bits: the
        # columns must degrade to plain lists, with every kernel still
        # matching the reference.
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
        assert_all_kernels_match(graph, rng)


def brute_statistics(graph: Graph, nodes) -> tuple:
    """``(size, maxEdgeNum, maxWt, B)`` of ``nodes`` from the graph's edge list."""
    id_bits = graph.id_bits
    incident = [edge for node in nodes for edge in graph.incident_edges(node)]
    return (
        len(nodes),
        max((edge.edge_number(id_bits) for edge in incident), default=0),
        max((edge.augmented_weight(id_bits) for edge in incident), default=0),
        len(incident),
    )


class TestTreeMemosFromTheSmallerSide:
    """A tree's mask, rows and statistics equal a brute-force scan on both sides.

    A tree holding at least half the nodes reads its statistics from the
    rows outside it and the snapshot's maxima; these sets put the edge
    holding the largest number and weight outside, half in or inside it.
    """

    # (9, 10) is the heaviest edge and has the largest number.
    EDGES = [(u, u + 1, 10 * u) for u in range(1, 9)] + [
        (9, 10, 1000),
        (1, 10, 5),
        (2, 9, 7),
        (3, 7, 500),
    ]
    NODE_SETS = [
        range(1, 9),  # >= half, both ends of (9, 10) outside
        range(1, 6),  # exactly half, both outside
        range(1, 10),  # one end inside
        [10, *range(1, 6)],  # the other end inside
        range(1, 11),  # every node
        range(1, 4),  # under half
        [9],  # one node
    ]

    @staticmethod
    def assert_memos_match(graph: Graph, nodes) -> None:
        cols = graph.columnar()
        rows = sorted(cols.pos[node] for node in nodes)
        expected = brute_statistics(graph, nodes)
        for first in ("statistics", "rows", "row_mask"):
            tree = tree_over(cols, rows)
            getattr(tree, first)(cols)  # each memo may be the first one built
            assert tree.statistics(cols) == expected
            assert sorted(tree.rows(cols)) == rows
            mask = tree.row_mask(cols)
            assert list(compress(range(cols.num_nodes), mask)) == rows
            assert len(mask) == cols.num_nodes

    @pytest.mark.parametrize("id_bits", [9, 32])
    def test_statistics_mask_and_rows_across_splices(self, id_bits):
        graph = Graph(id_bits=id_bits)
        for u, v, weight in self.EDGES:
            graph.add_edge(u, v, weight=weight)
        fresh = graph.columnar()
        assert fresh.fits64 is (id_bits == 9)
        assert fresh.max_number == graph.edge_number(9, 10)
        assert fresh.max_augmented == graph.augmented_weight(9, 10)
        # Delete the edge holding both maxima (the snapshot then rescans
        # its largest number), put it back, then drop and add an edge
        # inside the large sets.
        steps = [None, ("remove", 9, 10), ("add", 9, 10), ("remove", 3, 7), ("add", 4, 8)]
        for step in steps:
            if step is not None:
                op, u, v = step
                if op == "add":
                    graph.add_edge(u, v, weight=1000 if (u, v) == (9, 10) else 3)
                else:
                    graph.remove_edge(u, v)
                assert graph.columnar().ids is fresh.ids  # spliced, not rebuilt
            for nodes in self.NODE_SETS:
                self.assert_memos_match(graph, list(nodes))

    @pytest.mark.parametrize("id_bits", [9, 32])
    def test_edgeless_graph(self, id_bits):
        graph = Graph(id_bits=id_bits)
        for node in range(1, 5):
            graph.add_node(node)
        for nodes in ([1], [1, 2], [1, 2, 3], [1, 2, 3, 4]):
            self.assert_memos_match(graph, nodes)


class TestFusedKernels:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("ordering", ["random", "ascending", "descending"])
    def test_aggregates_equal_reference_fold(self, seed, ordering):
        graph = random_graph(seed=seed, ordering=ordering)
        assert_all_kernels_match(graph, random.Random(seed + 100))

    def test_edgeless_graph_aggregates_are_identities(self):
        graph = Graph(id_bits=8)
        for node in range(1, 5):
            graph.add_node(node)
        cols = graph.columnar()
        pairwise = PairwiseIndependentHash(a=3, b=5, p=65537, range_size=8)
        masks = prefix_flip_masks(pairwise.log_range)
        for rows in ([], [0], [0, 1, 2, 3]):
            mask = mask_of(rows, cols.num_nodes)
            cut = cut_of(cols, rows, mask)
            assert cut == CutColumn([], [], b"")
            assert range_parity_words_all(3, 1, 2, [0], [1 << 256], cut) == 0
            assert prefix_parity_words_all(pairwise, masks, cut) == 0
            assert xor_below_words_all(pairwise, 2, cut) == 0
            assert not hp_products_all(cols, 7, 11, 0, 1 << 256, mask, 0, cut)


def cut_products(cut: CutColumn, alpha: int, p: int, low: int, high: int):
    """``(C↑, C↓)``: HP-TestOut's products over the in-window cut edges only."""
    up = [n for a, n, u in zip(*cut) if low <= a <= high and u]
    down = [n for a, n, u in zip(*cut) if low <= a <= high and not u]
    return local_product(up, alpha, p), local_product(down, alpha, p)


class TestHpTestOutCutPass:
    """The kernel's internal-edge check, where ``I ≡ 0`` decides the answer."""

    def internal_and_rows(self, graph: Graph, seed: int):
        """A covering row set, its cut, and an in-window internal edge."""
        cols = graph.columnar()
        rng = random.Random(seed)
        rows = sorted(rng.sample(range(cols.num_nodes - 1), cols.num_nodes // 2))
        mask = mask_of(rows, cols.num_nodes)
        cut = cut_of(cols, rows, mask)
        internal = [
            edge
            for edge in graph.edges()
            if mask[cols.pos[edge.u]] and mask[cols.pos[edge.v]]
        ]
        assert cut.numbers and internal
        return cols, rows, mask, cut, rng.choice(internal)

    @pytest.mark.parametrize("seed", range(8))
    def test_alpha_at_an_internal_edge_means_sides_equal(self, seed):
        # α = #e of an in-window internal edge zeroes both products, so the
        # reference says "sides equal" although the cut products differ.
        graph = random_graph(seed=seed)
        cols, rows, mask, cut, edge = self.internal_and_rows(graph, seed)
        p = 2**31 - 1
        alpha = edge.edge_number(graph.id_bits)
        low, high = 0, 1 << 256
        assert reference_hp_pair(graph, [cols.ids[r] for r in rows], alpha, p, low, high) == (0, 0)
        c_up, c_down = cut_products(cut, alpha, p, low, high)
        assert c_up != c_down
        max_number = max_number_of(cols, rows)
        assert hp_products_all(cols, alpha, p, low, high, mask, max_number, cut) is False
        assert_hp_answers_match(graph, rows, alpha, p, low, high)
        # The same edge outside the window no longer zeroes anything.
        aug = edge.augmented_weight(graph.id_bits)
        assert_hp_answers_match(graph, rows, alpha, p, aug + 1, high)
        assert_hp_answers_match(graph, rows, alpha, p, 0, aug - 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_small_prime_walks_several_candidates(self, seed):
        # p ≤ the rows' largest edge number: α, α + p, ... all decode to
        # candidate edges.  An internal edge whose number is α plus a few p
        # is found past the first candidate; every other α matches the
        # reference too.
        graph = random_graph(seed=seed)
        cols, rows, mask, cut, edge = self.internal_and_rows(graph, seed)
        p = 101
        number = edge.edge_number(graph.id_bits)
        max_number = max_number_of(cols, rows)
        assert number > p and max_number > 3 * p
        alpha = number % p
        c_up, c_down = cut_products(cut, alpha, p, 0, 1 << 256)
        assert c_up != c_down
        assert hp_products_all(cols, alpha, p, 0, 1 << 256, mask, max_number, cut) is False
        # An α above both p and maxEdgeNum walks from α mod p all the same.
        above = alpha + p * (max_number // p + 1)
        assert above > max_number
        assert hp_products_all(cols, above, p, 0, 1 << 256, mask, max_number, cut) is False
        for alpha in range(p):
            assert_hp_answers_match(graph, rows, alpha, p, 0, 1 << 256)

    def test_empty_window(self):
        graph = random_graph(seed=7)
        cols = graph.columnar()
        rows = list(range(0, cols.num_nodes, 2))
        for alpha in (0, 5, 2**31 - 2):
            assert_hp_answers_match(graph, rows, alpha, 2**31 - 1, cols.max_augmented + 1, 1 << 256)
            mask = mask_of(rows, cols.num_nodes)
            cut = cut_of(cols, rows, mask)
            max_number = max_number_of(cols, rows)
            assert not hp_products_all(
                cols, alpha, 2**31 - 1, cols.max_augmented + 1, 1 << 256, mask, max_number, cut
            )

    def test_empty_cut(self):
        # Every row (and so every edge) inside: the cut column is empty and
        # both sides hold every in-window edge once.
        graph = random_graph(seed=8)
        cols = graph.columnar()
        rows = list(range(cols.num_nodes))
        mask = mask_of(rows, cols.num_nodes)
        cut = cut_of(cols, rows, mask)
        assert cut == CutColumn([], [], b"")
        rng = random.Random(8)
        for p in (101, 2**31 - 1):
            for _ in range(20):
                alpha = rng.randrange(p)
                assert_hp_answers_match(graph, rows, alpha, p, 0, 1 << 256)
                assert not hp_products_all(
                    cols, alpha, p, 0, 1 << 256, mask, cols.max_number, cut
                )

    @pytest.mark.parametrize("seed", range(8))
    def test_alpha_above_every_edge_number_skips_the_walk(self, seed, monkeypatch):
        # With α mod p > maxEdgeNum the walk α mod p, α mod p + p, ... is
        # empty, so the kernel answers from the cut products without it.
        graph = random_graph(seed=seed)
        cols, rows, mask, cut, _ = self.internal_and_rows(graph, seed)
        max_number = max_number_of(cols, rows)
        p = 2**61 - 1
        walk = sketches_module._internal_factor_vanishes
        walks = []

        def spy(*args):
            walks.append(args[1])
            return walk(*args)

        monkeypatch.setattr(sketches_module, "_internal_factor_vanishes", spy)
        rng = random.Random(seed)
        for alpha in [max_number + 1, p - 1] + [rng.randrange(max_number + 1, p) for _ in range(8)]:
            assert_hp_answers_match(graph, rows, alpha, p, 0, 1 << 256)
            assert hp_products_all(cols, alpha, p, 0, 1 << 256, mask, max_number, cut)
        assert walks == []
        # At or below maxEdgeNum, also as α mod p for an α above p, the
        # walk still runs.
        for alpha in (max_number, p + max_number):
            assert_hp_answers_match(graph, rows, alpha, p, 0, 1 << 256)
        assert walks == [max_number, p + max_number]
