"""Tests pinning down the *impromptu* property of the repair algorithms.

"Impromptu" (paper, Section 1) means: between updates, the only state kept in
the network is, per node, the names and weights of its incident edges and
which of them are marked.  We test this operationally:

* a repair driven from a freshly reconstructed (graph, marked-edge-set) pair
  behaves identically to one driven from the long-lived objects — nothing a
  previous update computed is needed;
* after an update completes, the maintainer and its repairer can be thrown
  away entirely, and every update gets a fresh repairer;
* the cost of an update does not depend on how many updates preceded it.
"""

import pytest

from repro.core.build_mst import BuildMST
from repro.core.config import AlgorithmConfig
from repro.core.repair import TreeRepairer
from repro.dynamic import EdgeUpdate, TreeMaintainer, tree_edge_deletions
from repro.dynamic import maintainer as maintainer_module
from repro.generators import random_connected_graph
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph
from repro.verify import is_minimum_spanning_forest


def _rebuild_state(graph, forest):
    """Clone the impromptu state: graph copy + marked-edge set only."""
    new_graph = graph.copy()
    new_forest = SpanningForest(new_graph, marked=forest.marked_edges)
    return new_graph, new_forest


class TestStateReconstruction:
    def test_repair_from_reconstructed_state_matches(self):
        graph = random_connected_graph(20, 70, seed=1)
        report = BuildMST(graph, config=AlgorithmConfig(n=20, seed=1)).run()
        key = sorted(report.forest.marked_edges)[4]

        def repair(state_graph, state_forest):
            maintainer = TreeMaintainer(
                state_graph, state_forest, mode="mst", config=AlgorithmConfig(n=20, seed=99)
            )
            return maintainer.apply(EdgeUpdate.delete(*key)).report

        # Repair on the live objects.
        live_graph, live_forest = _rebuild_state(graph, report.forest)
        live_report = repair(live_graph, live_forest)

        # Repair on state reconstructed from nothing but incident edges + marks.
        fresh_graph, fresh_forest = _rebuild_state(graph, report.forest)
        fresh_report = repair(fresh_graph, fresh_forest)

        assert live_report.replacements == 1
        assert live_report.marked == fresh_report.marked
        assert live_report.cost.messages == fresh_report.cost.messages
        assert live_forest.marked_edges == fresh_forest.marked_edges

    def test_repairer_is_disposable_between_updates(self):
        graph = random_connected_graph(18, 60, seed=2)
        report = BuildMST(graph, config=AlgorithmConfig(n=18, seed=2)).run()
        forest = report.forest
        for index, key in enumerate(sorted(forest.marked_edges)[:4]):
            if not graph.has_edge(*key) or not forest.is_marked(*key):
                continue
            maintainer = TreeMaintainer(
                graph, forest, mode="mst", config=AlgorithmConfig(n=18, seed=100 + index)
            )
            maintainer.apply(EdgeUpdate.delete(*key))
            del maintainer
            assert is_minimum_spanning_forest(forest)

    def test_update_cost_independent_of_history_length(self):
        """The k-th update costs about the same as the 1st (no amortization)."""
        graph = random_connected_graph(24, 80, seed=3)
        report = BuildMST(graph, config=AlgorithmConfig(n=24, seed=3)).run()
        maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=3)
        stream = tree_edge_deletions(graph, report.forest, count=12, seed=3)
        maintainer.apply_stream(stream)
        delete_costs = [
            outcome.messages
            for outcome in maintainer.history
            if outcome.update.kind.value == "delete" and outcome.report.holes
        ]
        assert len(delete_costs) >= 6
        early = sum(delete_costs[:3]) / 3
        late = sum(delete_costs[-3:]) / 3
        # No trend either way beyond noise: late updates may be cheaper or
        # dearer by a small factor, but nothing accumulates.
        assert late <= 5 * early + 50
        assert early <= 5 * late + 50

    def test_maintainer_uses_fresh_repairer_each_update(self, monkeypatch):
        built = []

        class RecordingRepairer(TreeRepairer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(maintainer_module, "TreeRepairer", RecordingRepairer)
        graph = random_connected_graph(16, 50, seed=4)
        report = BuildMST(graph, config=AlgorithmConfig(n=16, seed=4)).run()
        maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=4)
        stream = tree_edge_deletions(graph, report.forest, count=2, seed=4)
        maintainer.apply_stream(stream)
        assert len(built) == len(stream)
        assert len({id(repairer) for repairer in built}) == len(stream)
        assert len({repairer.configs[0].seed for repairer in built}) == len(stream)
