"""Tests for the impromptu TreeMaintainer over update streams."""

import pytest

from repro.core.build_mst import BuildMST
from repro.core.build_st import BuildST
from repro.core.config import AlgorithmConfig
from repro.dynamic.maintainer import TreeMaintainer
from repro.dynamic.updates import EdgeUpdate, UpdateStream
from repro.dynamic.workloads import random_churn, tree_edge_deletions, weight_perturbations
from repro.generators import random_connected_graph
from repro.network.errors import AlgorithmError
from repro.network.fragments import SpanningForest
from repro.verify import is_minimum_spanning_forest, is_spanning_forest


def _mst_maintainer(n=16, m=48, seed=0):
    graph = random_connected_graph(n, m, seed=seed)
    report = BuildMST(graph, config=AlgorithmConfig(n=n, seed=seed)).run()
    return graph, report.forest, TreeMaintainer(graph, report.forest, mode="mst", seed=seed)


class TestMSTMaintainer:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tree_edge_deletion_workload(self, seed):
        graph, forest, maintainer = _mst_maintainer(seed=seed)
        stream = tree_edge_deletions(graph, forest, count=4, seed=seed)
        outcomes = maintainer.apply_stream(stream)
        assert len(outcomes) == len(stream)
        assert is_minimum_spanning_forest(forest)

    def test_random_churn_workload(self):
        graph, forest, maintainer = _mst_maintainer(seed=2)
        stream = random_churn(graph, count=20, seed=2)
        maintainer.apply_stream(stream)
        assert is_minimum_spanning_forest(forest)

    def test_weight_perturbation_workload(self):
        graph, forest, maintainer = _mst_maintainer(seed=3)
        stream = weight_perturbations(graph, count=15, seed=3)
        maintainer.apply_stream(stream)
        assert is_minimum_spanning_forest(forest)

    def test_history_and_cost_helpers(self):
        graph, forest, maintainer = _mst_maintainer(seed=4)
        stream = tree_edge_deletions(graph, forest, count=3, seed=4)
        maintainer.apply_stream(stream)
        assert len(maintainer.history) == len(stream)
        assert maintainer.total_messages() == sum(maintainer.messages_per_wave())
        assert all(messages >= 0 for messages in maintainer.messages_per_wave())

    def test_single_update_report(self):
        graph, forest, maintainer = _mst_maintainer(seed=5)
        key = sorted(forest.marked_edges)[1]
        outcome = maintainer.apply(EdgeUpdate.delete(*key))
        assert outcome.update.key == key
        assert outcome.report.holes == 1
        assert is_minimum_spanning_forest(forest)

    def test_seed_reproducibility(self):
        costs = []
        for _ in range(2):
            graph, forest, maintainer = _mst_maintainer(seed=6)
            stream = tree_edge_deletions(graph, forest, count=4, seed=6)
            maintainer.apply_stream(stream)
            costs.append(maintainer.messages_per_wave())
        assert costs[0] == costs[1]

    def test_forest_must_share_graph(self):
        graph_a = random_connected_graph(8, 14, seed=7)
        graph_b = random_connected_graph(8, 14, seed=7)
        forest_b = SpanningForest(graph_b)
        with pytest.raises(AlgorithmError):
            TreeMaintainer(graph_a, forest_b, mode="mst")

    def test_mode_validated(self):
        graph = random_connected_graph(8, 14, seed=8)
        with pytest.raises(AlgorithmError):
            TreeMaintainer(graph, SpanningForest(graph), mode="both")


class TestSTMaintainer:
    def test_churn_keeps_spanning(self):
        graph = random_connected_graph(16, 48, seed=9)
        report = BuildST(graph, config=AlgorithmConfig(n=16, seed=9)).run()
        maintainer = TreeMaintainer(graph, report.forest, mode="st", seed=9)
        stream = random_churn(graph, count=20, seed=9)
        maintainer.apply_stream(stream)
        assert is_spanning_forest(report.forest)

    def test_st_deletions_cheaper_than_mst_deletions(self):
        """Theorem 1.2: ST repair saves a log n / log log n factor."""
        n, m, count = 24, 72, 6
        graph_a = random_connected_graph(n, m, seed=10)
        mst_report = BuildMST(graph_a, config=AlgorithmConfig(n=n, seed=10)).run()
        mst_maintainer = TreeMaintainer(graph_a, mst_report.forest, mode="mst", seed=1)
        mst_stream = tree_edge_deletions(graph_a, mst_report.forest, count=count, seed=3)
        mst_maintainer.apply_stream(mst_stream)

        graph_b = random_connected_graph(n, m, seed=10)
        st_report = BuildST(graph_b, config=AlgorithmConfig(n=n, seed=10)).run()
        st_maintainer = TreeMaintainer(graph_b, st_report.forest, mode="st", seed=1)
        st_stream = tree_edge_deletions(graph_b, st_report.forest, count=count, seed=3)
        st_maintainer.apply_stream(st_stream)

        mst_delete_cost = sum(
            o.messages for o in mst_maintainer.history if o.update.kind.value == "delete"
        )
        st_delete_cost = sum(
            o.messages for o in st_maintainer.history if o.update.kind.value == "delete"
        )
        assert st_delete_cost < mst_delete_cost
