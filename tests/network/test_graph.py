"""Unit tests for the dynamic weighted graph and the paper's encodings."""

import pytest

from repro.generators import random_connected_graph
from repro.network.columnar import ColumnarGraph
from repro.network.errors import GraphError
from repro.network.graph import Edge, Graph, edge_key


def _state(graph):
    return (
        graph.id_bits,
        graph.nodes(),
        [(e.u, e.v, e.weight) for e in graph.edges()],
        {node: graph.neighbors(node) for node in graph.nodes()},
    )


def _columns(graph):
    cols = graph.columnar()
    return {name: getattr(cols, name) for name in ColumnarGraph.__slots__}


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key(5, 2) == (2, 5)
        assert edge_key(2, 5) == (2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            edge_key(3, 3)


class TestEdge:
    def test_requires_canonical_order(self):
        with pytest.raises(GraphError):
            Edge(5, 2, 1)

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError):
            Edge(1, 2, -1)

    def test_other_endpoint(self):
        edge = Edge(2, 7, 3)
        assert edge.other(2) == 7
        assert edge.other(7) == 2
        with pytest.raises(GraphError):
            edge.other(4)

    def test_edge_number_is_concatenation_smallest_first(self):
        edge = Edge(2, 7, 3)
        assert edge.edge_number(id_bits=4) == (2 << 4) | 7

    def test_augmented_weight_prepends_weight(self):
        edge = Edge(2, 7, 3)
        assert edge.augmented_weight(id_bits=4) == (3 << 8) | (2 << 4) | 7

    def test_augmented_weights_distinct_for_equal_weights(self):
        a = Edge(1, 2, 5)
        b = Edge(1, 3, 5)
        assert a.augmented_weight(8) != b.augmented_weight(8)


class TestGraphBasics:
    def test_add_and_query(self):
        graph = Graph(id_bits=8)
        graph.add_edge(1, 2, 10)
        graph.add_edge(2, 3, 20)
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.has_edge(2, 1)
        assert graph.get_edge(1, 2).weight == 10
        assert graph.neighbors(2) == [1, 3]
        assert graph.degree(2) == 2
        assert graph.degree(1) == 1

    def test_duplicate_edge_rejected(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        with pytest.raises(GraphError):
            graph.add_edge(2, 1, 5)

    def test_id_space_bounds(self):
        graph = Graph(id_bits=4)
        with pytest.raises(GraphError):
            graph.add_node(16)
        with pytest.raises(GraphError):
            graph.add_node(0)
        graph.add_node(15)
        assert graph.has_node(15)

    def test_remove_edge(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        removed = graph.remove_edge(2, 1)
        assert removed.weight == 1
        assert not graph.has_edge(1, 2)
        with pytest.raises(GraphError):
            graph.remove_edge(1, 2)

    def test_remove_node_drops_incident_edges(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 2)
        graph.remove_node(2)
        assert not graph.has_node(2)
        assert graph.num_edges == 0
        assert graph.has_node(1) and graph.has_node(3)

    def test_set_weight(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        graph.set_weight(1, 2, 42)
        assert graph.get_edge(1, 2).weight == 42
        with pytest.raises(GraphError):
            graph.set_weight(1, 3, 5)

    def test_incident_edges_sorted_by_neighbor(self):
        graph = Graph()
        graph.add_edge(2, 9, 1)
        graph.add_edge(2, 4, 2)
        graph.add_edge(1, 2, 3)
        others = [edge.other(2) for edge in graph.incident_edges(2)]
        assert others == [1, 4, 9]

    def test_len_contains_iter(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        assert len(graph) == 2
        assert 1 in graph and 3 not in graph
        assert list(graph) == [1, 2]


class TestGraphEncodings:
    def test_edge_number_roundtrip(self):
        graph = Graph(id_bits=6)
        graph.add_edge(3, 9, 4)
        number = graph.edge_number(9, 3)
        assert number == (3 << 6) | 9
        edge = graph.edge_from_number(number)
        assert edge is not None and edge.endpoints == (3, 9)

    def test_edge_from_number_unknown(self):
        graph = Graph(id_bits=6)
        graph.add_edge(3, 9, 4)
        assert graph.edge_from_number((1 << 6) | 2) is None
        assert graph.edge_from_number(0) is None

    def test_augmented_weight_roundtrip(self):
        graph = Graph(id_bits=6)
        graph.add_edge(3, 9, 4)
        graph.add_edge(2, 9, 4)
        for edge in graph.edges():
            aug = graph.augmented_weight(edge.u, edge.v)
            assert graph.edge_from_augmented_weight(aug) == edge

    def test_augmented_weight_mismatch_returns_none(self):
        graph = Graph(id_bits=6)
        graph.add_edge(3, 9, 4)
        wrong = (5 << 12) | graph.edge_number(3, 9)
        assert graph.edge_from_augmented_weight(wrong) is None

    def test_max_statistics(self):
        graph = Graph(id_bits=6)
        assert graph.max_edge_number() == 0
        assert graph.max_weight() == 0
        graph.add_edge(1, 2, 7)
        graph.add_edge(5, 6, 3)
        assert graph.max_weight() == 7
        assert graph.max_edge_number() == (5 << 6) | 6
        assert graph.max_augmented_weight() == (7 << 12) | (1 << 6) | 2


class TestGraphStructure:
    def test_connected_components(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        graph.add_edge(3, 4, 1)
        graph.add_node(5)
        components = graph.connected_components()
        assert sorted(sorted(c) for c in components) == [[1, 2], [3, 4], [5]]
        assert not graph.is_connected()

    def test_is_connected(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 1)
        assert graph.is_connected()

    def test_subgraph(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 2)
        graph.add_edge(1, 3, 3)
        sub = graph.subgraph([1, 2])
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        assert sub.get_edge(1, 2).weight == 1

    def test_copy_is_independent(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        dup = graph.copy()
        dup.remove_edge(1, 2)
        assert graph.has_edge(1, 2)
        assert not dup.has_edge(1, 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_copy_equals_source(self, seed):
        graph = random_connected_graph(40, 120, seed=seed)
        graph.add_node(63)  # an isolated node
        graph.remove_edge(*graph.edges()[0].endpoints)
        dup = graph.copy()
        assert _state(dup) == _state(graph)
        assert dup.version == graph.version
        assert _columns(dup) == _columns(graph)
        assert dup.columnar() is not graph.columnar()

    @pytest.mark.parametrize("mutated", ["source", "copy"])
    def test_copy_mutations_stay_apart(self, mutated):
        graph = random_connected_graph(24, 60, seed=5)
        dup = graph.copy()
        changed, other = (graph, dup) if mutated == "source" else (dup, graph)
        before = _state(other)
        columns = _columns(other)
        first, second = changed.edges()[:2]
        changed.remove_edge(first.u, first.v)
        changed.set_weight(second.u, second.v, second.weight + 100)
        changed.add_edge(1, 30, 7)
        changed.remove_node(2)
        assert _state(other) == before
        assert _columns(other) == columns
        assert _state(changed) != before

    def test_total_weight(self):
        graph = Graph()
        graph.add_edge(1, 2, 3)
        graph.add_edge(2, 3, 4)
        assert graph.total_weight() == 7


def _edge_by_edge(id_bits, nodes, edges):
    """The build :meth:`Graph.from_edges` must equal: one call per node and edge."""
    graph = Graph(id_bits)
    for node in nodes:
        graph.add_node(node)
    for u, v, weight in edges:
        graph.add_edge(u, v, weight)
    return graph


def _raised(build, *args):
    with pytest.raises(GraphError) as info:
        build(*args)
    return str(info.value)


class TestFromEdges:
    def test_equals_the_edge_by_edge_build(self):
        # Endpoints missing from ``nodes`` are created smaller first, and
        # repeated nodes are ignored, as add_node/add_edge do.
        nodes = [4, 2, 4, 9]
        edges = [(9, 2, 5), (7, 4, 0), (1, 9, 3), (4, 2, 5), (8, 3, 2)]
        bulk = Graph.from_edges(4, nodes, edges)
        slow = _edge_by_edge(4, nodes, edges)
        assert list(bulk._adj) == list(slow._adj) == [4, 2, 9, 7, 1, 3, 8]
        for node in slow._adj:
            assert list(bulk._adj[node].items()) == list(slow._adj[node].items())
        assert bulk.version == slow.version == 12
        assert _state(bulk) == _state(slow)
        assert _columns(bulk) == _columns(slow)

    def test_endpoints_share_one_edge_object(self):
        graph = Graph.from_edges(3, [], [(2, 1, 4)])
        assert graph._adj[1][2] is graph._adj[2][1] == Edge(1, 2, 4)

    def test_empty(self):
        graph = Graph.from_edges(2, [], [])
        assert graph.num_nodes == 0 and graph.version == 0
        assert Graph.from_edges(2, [3], []).version == 1

    def test_snapshot_is_left_for_the_first_read(self):
        graph = Graph.from_edges(3, [1, 2, 3], [(1, 2, 1), (2, 3, 2)])
        assert graph._columnar_cache is None
        assert graph.columnar().version == graph.version

    @pytest.mark.parametrize(
        "nodes, edges, message",
        [
            ([], [(3, 3, 1)], "self-loops are not allowed: (3, 3)"),
            ([], [(1, 2, 1), (1, 2, 4)], "edge (1, 2) already present"),
            ([], [(1, 2, 1), (2, 1, 4)], "edge (1, 2) already present"),
            ([], [(1, 16, 1)], "node ID 16 outside the ID space [1, 2^4)"),
            ([], [(0, 2, 1)], "node ID 0 outside the ID space [1, 2^4)"),
            ([16], [], "node ID 16 outside the ID space [1, 2^4)"),
            ([], [(1.0, 2, 1)], "node IDs must be integers, got 1.0"),
            ([], [(1, "2", 1)], "node IDs must be integers, got '2'"),
            ([], [(True, 2, 3)], "node IDs must be integers, got True"),
            ([False], [], "node IDs must be integers, got False"),
            ([], [(1, 2, -1)], "Edge weights must be non-negative, got -1"),
            ([], [(1, 2, 1.5)], "Edge weights must be integers, got 1.5"),
            ([], [(1, 2, True)], "Edge weights must be integers, got True"),
            # The first bad input names the error.
            ([1, 0], [(1, 1, 1)], "node ID 0 outside the ID space [1, 2^4)"),
            ([], [(1, 2, 1), (3, 3, 1), (1, 2, 1)], "self-loops are not allowed: (3, 3)"),
            ([], [(1, 2, -1), (1, 2, 1.5)], "Edge weights must be non-negative, got -1"),
            ([], [(2, 3, 1), (0, 3, -1)], "node ID 0 outside the ID space [1, 2^4)"),
        ],
    )
    def test_raises_add_edges_own_message(self, nodes, edges, message):
        assert _raised(_edge_by_edge, 4, nodes, edges) == message
        assert _raised(Graph.from_edges, 4, nodes, edges) == message


class TestMisuseFailsAtInsertion:
    def test_float_weight(self):
        graph = Graph(4)
        assert _raised(graph.add_edge, 1, 2, 1.5) == "Edge weights must be integers, got 1.5"
        assert graph.num_nodes == 0 and graph.version == 0
        graph.columnar()  # the snapshot never sees the bad weight

    def test_bool_id(self):
        graph = Graph(4)
        assert _raised(graph.add_edge, True, 2, 3) == "node IDs must be integers, got True"
        assert _raised(graph.add_node, True) == "node IDs must be integers, got True"
        assert graph.nodes() == []

    def test_bool_weight(self):
        graph = Graph(4)
        assert _raised(graph.add_edge, 1, 2, False) == "Edge weights must be integers, got False"
        assert graph.nodes() == []

    @pytest.mark.parametrize(
        "weight, message",
        [
            (1.5, "Edge weights must be integers, got 1.5"),
            (True, "Edge weights must be integers, got True"),
            (-2, "Edge weights must be non-negative, got -2"),
        ],
    )
    def test_set_weight_keeps_the_edge(self, weight, message):
        graph = Graph(4)
        graph.add_edge(1, 2, 3)
        before = graph.version
        cols = graph.columnar()
        assert _raised(graph.set_weight, 2, 1, weight) == message
        assert graph.get_edge(1, 2).weight == 3
        assert graph.version == before and graph.columnar() is cols

    def test_int_subclass_takes_the_full_check(self):
        class Id(int):
            pass

        graph = Graph(4)
        edge = graph.add_edge(Id(2), 1, Id(7))
        assert (edge.u, edge.v, edge.weight) == (1, 2, 7)
        assert Graph.from_edges(4, [], [(Id(2), 1, Id(7))]).edges() == [edge]
