"""Tests for the synchronous Build-MST construction (Lemma 3 / Theorem 1.1)."""

import pytest

from repro.baselines.sequential import kruskal_mst, mst_edge_keys
from repro.core.build_mst import BuildMST
from repro.core.config import AlgorithmConfig
from repro.generators import (
    complete_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
)
from repro.network.errors import AlgorithmError
from repro.network.graph import Graph
from repro.verify import is_minimum_spanning_forest


def _build(graph, seed=0, **kwargs):
    config = AlgorithmConfig(n=graph.num_nodes, seed=seed, **kwargs)
    return BuildMST(graph, config=config).run()


class TestCorrectness:
    def test_small_hand_graph(self, small_weighted_graph, small_mst_keys):
        report = _build(small_weighted_graph, seed=5)
        assert report.marked_edges == small_mst_keys
        assert report.is_spanning

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_match_kruskal(self, seed):
        graph = random_connected_graph(24, 80, seed=seed)
        report = _build(graph, seed=seed)
        assert report.marked_edges == mst_edge_keys(kruskal_mst(graph))

    def test_path_graph(self):
        graph = path_graph(12, seed=1)
        report = _build(graph, seed=1)
        assert report.marked_edges == mst_edge_keys(kruskal_mst(graph))

    def test_grid_graph(self):
        graph = grid_graph(4, 4, seed=2)
        report = _build(graph, seed=2)
        assert is_minimum_spanning_forest(report.forest)

    def test_complete_graph(self):
        graph = complete_graph(10, seed=3)
        report = _build(graph, seed=3)
        assert is_minimum_spanning_forest(report.forest)

    def test_disconnected_graph_gives_minimum_spanning_forest(self):
        graph = Graph(id_bits=6)
        graph.add_edge(1, 2, 5)
        graph.add_edge(2, 3, 1)
        graph.add_edge(1, 3, 2)
        graph.add_edge(10, 11, 7)
        graph.add_edge(11, 12, 9)
        graph.add_edge(10, 12, 1)
        graph.add_node(20)
        report = _build(graph, seed=4)
        assert is_minimum_spanning_forest(report.forest)
        assert report.marked_edges == mst_edge_keys(kruskal_mst(graph))

    def test_single_node_graph(self):
        graph = Graph()
        graph.add_node(1)
        report = _build(graph, seed=0)
        assert report.marked_edges == set()
        assert report.is_spanning

    def test_two_node_graph(self):
        graph = Graph()
        graph.add_edge(1, 2, 3)
        report = _build(graph, seed=0)
        assert report.marked_edges == {(1, 2)}

    def test_empty_graph_rejected(self):
        with pytest.raises(AlgorithmError):
            BuildMST(Graph())

    def test_duplicate_raw_weights_still_unique_mst(self):
        graph = Graph(id_bits=5)
        # All weights equal: augmentation by edge number decides.
        edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
        for u, v in edges:
            graph.add_edge(u, v, 7)
        report = _build(graph, seed=6)
        assert report.marked_edges == mst_edge_keys(kruskal_mst(graph))


class TestReports:
    def test_phase_records_sum_to_total(self):
        graph = random_connected_graph(20, 60, seed=8)
        report = _build(graph, seed=8)
        assert report.phases == len(report.phase_records)
        assert sum(r.messages for r in report.phase_records) == report.messages
        assert report.rounds_parallel <= sum(r.rounds for r in report.phase_records) + 1

    def test_phases_are_logarithmic(self):
        graph = random_connected_graph(32, 100, seed=9)
        report = _build(graph, seed=9)
        # Borůvka needs at most lg n effective merging phases plus the final
        # verification phase; allow generous slack for FindMin-C failures.
        assert report.phases <= 3 * 5 + 4

    def test_stops_before_the_paper_phase_cap(self):
        graph = random_connected_graph(16, 40, seed=10)
        report = _build(graph, seed=10)
        assert is_minimum_spanning_forest(report.forest)
        assert report.phases < AlgorithmConfig(n=16).build_phase_budget()

    def test_seed_reproducibility(self):
        graph_a = random_connected_graph(20, 60, seed=12)
        graph_b = random_connected_graph(20, 60, seed=12)
        report_a = _build(graph_a, seed=3)
        report_b = _build(graph_b, seed=3)
        assert report_a.messages == report_b.messages
        assert report_a.marked_edges == report_b.marked_edges

    def test_messages_accounted_positively(self):
        graph = random_connected_graph(16, 50, seed=13)
        report = _build(graph, seed=13)
        assert report.messages > 0
        assert report.bits >= report.messages
        assert report.broadcast_echoes > 0
        assert report.rounds_parallel > 0
