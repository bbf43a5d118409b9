"""End-to-end integration: construct, then repair, across graph families.

These tests exercise the whole stack the way the examples and claims do:
generate a graph, build the tree with the paper's construction, verify it
against the sequential ground truth, then push an update stream through the
impromptu maintainer and verify again — comparing costs against the baselines
along the way.
"""

import pytest

from repro import build_mst, build_st
from repro.baselines import flooding_spanning_tree, ghs_build_mst
from repro.core.config import AlgorithmConfig
from repro.dynamic import EdgeUpdate, TreeMaintainer, random_churn, tree_edge_deletions
from repro.generators import (
    circulant_expander,
    complete_graph,
    grid_graph,
    hypercube_graph,
    random_connected_graph,
)
from repro.verify import is_minimum_spanning_forest, is_spanning_forest


class TestConstructThenRepair:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mst_lifecycle(self, seed):
        graph = random_connected_graph(28, 110, seed=seed)
        report = build_mst(graph, seed=seed)
        assert is_minimum_spanning_forest(report.forest)

        maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=seed)
        stream = tree_edge_deletions(graph, report.forest, count=5, seed=seed)
        maintainer.apply_stream(stream)
        assert is_minimum_spanning_forest(report.forest)

        churn = random_churn(graph, count=15, seed=seed + 1)
        maintainer.apply_stream(churn)
        assert is_minimum_spanning_forest(report.forest)

    def test_st_lifecycle(self):
        graph = random_connected_graph(28, 110, seed=5)
        report = build_st(graph, seed=5)
        assert is_spanning_forest(report.forest)
        maintainer = TreeMaintainer(graph, report.forest, mode="st", seed=5)
        churn = random_churn(graph, count=20, seed=6)
        maintainer.apply_stream(churn)
        assert is_spanning_forest(report.forest)


class TestGraphFamilies:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: grid_graph(5, 6, seed=1),
            lambda: hypercube_graph(4, seed=1),
            lambda: circulant_expander(30, seed=1),
            lambda: complete_graph(16, seed=1),
        ],
        ids=["grid", "hypercube", "circulant", "complete"],
    )
    def test_construction_correct_on_family(self, factory):
        graph = factory()
        mst_report = build_mst(graph, seed=3)
        assert is_minimum_spanning_forest(mst_report.forest)
        st_graph = factory()
        st_report = build_st(st_graph, seed=3)
        assert is_spanning_forest(st_report.forest)


class TestAgainstBaselines:
    def test_kkt_and_ghs_agree_on_the_mst(self):
        graph_a = random_connected_graph(32, 180, seed=7)
        graph_b = random_connected_graph(32, 180, seed=7)
        kkt = build_mst(graph_a, seed=1)
        ghs = ghs_build_mst(graph_b)
        assert kkt.marked_edges == ghs.marked_edges

    def test_st_beats_flooding_on_dense_graph(self):
        """The headline o(m) claim, at a size where the crossover already shows."""
        n = 96
        graph_a = complete_graph(n, seed=8)
        graph_b = complete_graph(n, seed=8)
        st = build_st(graph_a, seed=2)
        _, flood_acct = flooding_spanning_tree(graph_b)
        assert is_spanning_forest(st.forest)
        assert flood_acct.messages >= graph_b.num_edges
        # ST construction messages grow ~ n log n while m = n(n-1)/2; at
        # n = 96 the Θ(m) flooding baseline is already more expensive.
        assert st.messages < flood_acct.messages

    def test_mst_messages_are_sublinear_in_m(self):
        """o(m) shape for Build-MST: messages / m falls as density grows.

        The MST construction carries larger constants than ST, so the
        absolute crossover against GHS lies beyond laptop-simulable sizes;
        the sub-linearity of messages in m — the paper's asymptotic claim —
        is already clearly visible.
        """
        ratios = []
        for n in (24, 128):
            graph = complete_graph(n, seed=8)
            report = build_mst(graph, seed=2)
            assert is_minimum_spanning_forest(report.forest)
            ratios.append(report.messages / graph.num_edges)
        assert ratios[-1] < 0.75 * ratios[0]

    def test_st_repair_beats_recompute_per_update(self):
        from repro.baselines import RecomputeMaintainer

        n, m = 24, 200
        graph_a = random_connected_graph(n, m, seed=9)
        report = build_st(graph_a, seed=9)
        impromptu = TreeMaintainer(graph_a, report.forest, mode="st", seed=9)
        key = sorted(report.forest.marked_edges)[2]
        outcome = impromptu.apply(EdgeUpdate.delete(*key))

        graph_b = random_connected_graph(n, m, seed=9)
        recompute = RecomputeMaintainer(graph_b, mode="st")
        recompute_cost = recompute.apply_batch([EdgeUpdate.delete(*key)])

        assert outcome.report.cost.messages < recompute_cost.messages

    def test_mst_repair_beats_recompute_on_dense_graph(self):
        from repro.baselines import RecomputeMaintainer

        n, m = 64, 1800
        graph_a = random_connected_graph(n, m, seed=9)
        report = build_mst(graph_a, seed=9)
        impromptu = TreeMaintainer(graph_a, report.forest, mode="mst", seed=9)
        key = sorted(report.forest.marked_edges)[2]
        outcome = impromptu.apply(EdgeUpdate.delete(*key))
        assert is_minimum_spanning_forest(report.forest)

        graph_b = random_connected_graph(n, m, seed=9)
        recompute = RecomputeMaintainer(graph_b, mode="mst")
        recompute_cost = recompute.apply_batch([EdgeUpdate.delete(*key)])

        assert outcome.report.cost.messages < recompute_cost.messages


class TestImpromptuMemoryBound:
    def test_per_node_persistent_state_is_logarithmic(self):
        """Between updates a node stores only incident edges + marks.

        The paper's impromptu claim bounds *extra* storage; here we check that
        the maintained state exposed to a node (its marked incident edges) is
        bounded by its degree and that no auxiliary structures survive on the
        maintainer after an update completes.
        """
        graph = random_connected_graph(20, 60, seed=11)
        report = build_mst(graph, seed=11)
        maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=11)
        stream = tree_edge_deletions(graph, report.forest, count=3, seed=11)
        maintainer.apply_stream(stream)
        # The maintainer keeps only graph + forest (+ a history list for the
        # experiment harness, which is not node state).
        for node in graph.nodes():
            assert len(report.forest.marked_neighbors(node)) <= graph.degree(node)
        assert not hasattr(maintainer, "_cached_repairer")
