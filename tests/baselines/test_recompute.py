"""Tests for the recompute-from-scratch dynamic baseline.

Its one entry point is :meth:`RecomputeMaintainer.apply_batch`; a wave of one
is per-update recomputation.
"""

import pytest

from repro.baselines.recompute_repair import RecomputeMaintainer
from repro.baselines.sequential import kruskal_mst, mst_edge_keys
from repro.dynamic import EdgeUpdate
from repro.generators import random_connected_graph
from repro.network.errors import AlgorithmError
from repro.verify import is_minimum_spanning_forest, is_spanning_forest


class TestRecomputeMST:
    def test_initial_tree_is_mst(self):
        graph = random_connected_graph(16, 50, seed=0)
        maintainer = RecomputeMaintainer(graph, mode="mst")
        assert is_minimum_spanning_forest(maintainer.forest)

    def test_delete_and_insert_keep_mst(self):
        graph = random_connected_graph(16, 50, seed=1)
        maintainer = RecomputeMaintainer(graph, mode="mst")
        edge = sorted(maintainer.forest.marked_edges)[0]
        weight = graph.get_edge(*edge).weight
        cost_delete = maintainer.apply_batch([EdgeUpdate.delete(*edge)])
        assert is_minimum_spanning_forest(maintainer.forest)
        cost_insert = maintainer.apply_batch([EdgeUpdate.insert(edge[0], edge[1], weight)])
        assert is_minimum_spanning_forest(maintainer.forest)
        assert cost_delete.messages > 0
        assert cost_insert.messages > 0

    def test_per_update_cost_is_order_m(self):
        graph = random_connected_graph(24, 200, seed=2)
        maintainer = RecomputeMaintainer(graph, mode="mst")
        edge = sorted(maintainer.forest.marked_edges)[0]
        cost = maintainer.apply_batch([EdgeUpdate.delete(*edge)])
        # rebuilding pays for (almost) every edge again
        assert cost.messages >= graph.num_edges

    def test_weight_change_triggers_rebuild(self):
        graph = random_connected_graph(16, 60, seed=3)
        maintainer = RecomputeMaintainer(graph, mode="mst")
        edge = sorted(maintainer.forest.marked_edges)[0]
        cost = maintainer.apply_batch([EdgeUpdate.increase_weight(edge[0], edge[1], 10 ** 6)])
        assert cost.messages > 0
        assert is_minimum_spanning_forest(maintainer.forest)
        assert maintainer.forest.marked_edges == mst_edge_keys(kruskal_mst(graph))


class TestRecomputeST:
    def test_initial_tree_spans(self):
        graph = random_connected_graph(16, 50, seed=4)
        maintainer = RecomputeMaintainer(graph, mode="st")
        assert is_spanning_forest(maintainer.forest)

    def test_delete_keeps_spanning(self):
        graph = random_connected_graph(16, 60, seed=5)
        maintainer = RecomputeMaintainer(graph, mode="st")
        edge = sorted(maintainer.forest.marked_edges)[0]
        maintainer.apply_batch([EdgeUpdate.delete(*edge)])
        assert is_spanning_forest(maintainer.forest)

    def test_disconnecting_delete_still_spanning_forest(self):
        from repro.network.graph import Graph

        graph = Graph(id_bits=5)
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 1)
        maintainer = RecomputeMaintainer(graph, mode="st")
        maintainer.apply_batch([EdgeUpdate.delete(2, 3)])
        assert is_spanning_forest(maintainer.forest)

    def test_weight_change_is_free_for_st(self):
        graph = random_connected_graph(16, 50, seed=6)
        maintainer = RecomputeMaintainer(graph, mode="st")
        edge = sorted(maintainer.forest.marked_edges)[0]
        cost = maintainer.apply_batch([EdgeUpdate.increase_weight(edge[0], edge[1], 999)])
        assert cost.messages == 0

    def test_mode_validated(self):
        graph = random_connected_graph(8, 12, seed=7)
        with pytest.raises(AlgorithmError):
            RecomputeMaintainer(graph, mode="bogus")
