"""Unit tests for the dynamic weighted graph and the paper's encodings."""

import pytest

from repro.network.errors import GraphError
from repro.network.graph import Edge, Graph, edge_key


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

    def test_total_weight(self):
        graph = Graph()
        graph.add_edge(1, 2, 3)
        graph.add_edge(2, 3, 4)
        assert graph.total_weight() == 7
