"""Tests for the batched repair engine and the PR-10 bugfixes.

Covers the batched==sequential final-forest contract, the wave edge cases
(bridge delete+reinsert in one wave, a wave confined to one component), the
falsy-zero weight regression, the per-update RNG independence fix, and how a
runner picks its wave size (the ``repair_batch`` option, else the schedule's
batch size).  The repair counters per workload, mode and wave size, and the
per-update costs of a weight stream, are pinned in the claims ledger
(``repair-workloads`` and ``weight-stream`` in ``repro.claims``).
"""

import pytest

from repro.api import ExperimentSpec, GraphSpec, WorkloadSpec, run
from repro.baselines.recompute_repair import RecomputeMaintainer
from repro.core.build_mst import BuildMST
from repro.core.config import AlgorithmConfig
from repro.dynamic.maintainer import TreeMaintainer
from repro.dynamic.updates import EdgeUpdate
from repro.dynamic.workloads import (
    random_churn,
    tree_edge_deletions,
    weight_perturbations,
)
from repro.generators import random_connected_graph
from repro.network.graph import Graph, edge_key
from repro.verify import is_minimum_spanning_forest, is_spanning_forest


def _mst_scenario(n=16, m=48, seed=0, config=None):
    graph = random_connected_graph(n, m, seed=seed)
    report = BuildMST(graph, config=AlgorithmConfig(n=n, seed=seed)).run()
    maintainer = TreeMaintainer(
        graph, report.forest, mode="mst", seed=None if config else seed, config=config
    )
    return graph, report.forest, maintainer


class TestBatchedEqualsSequential:
    """The batched contract: waves land on the sequential final forest."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deletion_waves_reach_the_sequential_forest(self, seed):
        g1, f1, seq = _mst_scenario(seed=seed)
        g2, f2, bat = _mst_scenario(seed=seed)
        seq.apply_stream(tree_edge_deletions(g1, f1, count=4, seed=seed))
        bat.apply_stream(tree_edge_deletions(g2, f2, count=4, seed=seed), batch_size=3)
        assert is_minimum_spanning_forest(f1)
        assert is_minimum_spanning_forest(f2)
        assert sorted(f1.marked_edges) == sorted(f2.marked_edges)

    @pytest.mark.parametrize("batch", [2, 3, 7])
    def test_churn_waves_reach_the_sequential_forest(self, batch):
        g1, f1, seq = _mst_scenario(seed=4)
        g2, f2, bat = _mst_scenario(seed=4)
        seq.apply_stream(random_churn(g1, count=12, seed=4))
        bat.apply_stream(random_churn(g2, count=12, seed=4), batch_size=batch)
        assert is_minimum_spanning_forest(f2)
        assert sorted(f1.marked_edges) == sorted(f2.marked_edges)

    def test_weight_perturbation_waves(self):
        g1, f1, seq = _mst_scenario(seed=5)
        g2, f2, bat = _mst_scenario(seed=5)
        seq.apply_stream(weight_perturbations(g1, count=10, seed=5))
        bat.apply_stream(weight_perturbations(g2, count=10, seed=5), batch_size=4)
        assert is_minimum_spanning_forest(f2)
        assert sorted(f1.marked_edges) == sorted(f2.marked_edges)

    def test_recompute_baseline_batch_matches_sequential(self):
        streams = [random_churn(random_connected_graph(12, 30, seed=6), count=8, seed=6)]
        for stream in streams:
            legs = []
            for batched in (False, True):
                graph = random_connected_graph(12, 30, seed=6)
                maintainer = RecomputeMaintainer(graph, mode="mst")
                events = list(stream)
                if batched:
                    maintainer.apply_batch(events[:4])
                    maintainer.apply_batch(events[4:])
                else:
                    for update in events:
                        maintainer.apply_batch([update])
                legs.append(sorted(maintainer.forest.marked_edges))
            assert legs[0] == legs[1]


class TestWaveEdgeCases:
    def test_bridge_delete_and_reinsert_in_one_wave(self):
        # A path graph: every edge is a bridge.  Deleting one and
        # re-inserting it inside the same wave must end with the full
        # spanning tree back: the hole's search comes up verifiably empty
        # (bridge) because the deferred reinsert is invisible to it, then
        # the candidate joins the halves again at settle time.
        graph = Graph()
        for node in range(1, 5):
            graph.add_node(node)
        for u in range(1, 4):
            graph.add_edge(u, u + 1, u)
        from repro.network.fragments import SpanningForest

        forest = SpanningForest(graph, marked=[(1, 2), (2, 3), (3, 4)])
        maintainer = TreeMaintainer(graph, forest, mode="mst", seed=11)
        wave = [EdgeUpdate.delete(2, 3), EdgeUpdate.insert(2, 3, weight=2)]
        outcome = maintainer.apply_batch(wave)
        assert outcome.report.holes == 1
        assert outcome.report.bridges == 1
        assert outcome.report.joins == 1
        assert is_minimum_spanning_forest(forest)
        assert sorted(forest.marked_edges) == [(1, 2), (2, 3), (3, 4)]

    def test_wave_confined_to_one_component_opens_no_holes(self):
        # Deleting a non-tree edge and inserting a too-heavy edge never
        # breaks the tree: no holes, no replacement searches, tree as-is.
        graph = Graph()
        for node in range(1, 5):
            graph.add_node(node)
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 2)
        graph.add_edge(3, 4, 3)
        graph.add_edge(1, 4, 9)  # non-tree
        from repro.network.fragments import SpanningForest

        forest = SpanningForest(graph, marked=[(1, 2), (2, 3), (3, 4)])
        maintainer = TreeMaintainer(graph, forest, mode="mst", seed=12)
        before = sorted(forest.marked_edges)
        outcome = maintainer.apply_batch(
            [EdgeUpdate.delete(1, 4), EdgeUpdate.insert(1, 3, weight=50)]
        )
        assert outcome.report.holes == 0
        assert outcome.report.replacements == 0
        assert sorted(forest.marked_edges) == before
        assert is_minimum_spanning_forest(forest)

    def test_insert_delete_pair_annihilates_for_free(self):
        # An edge inserted and deleted inside the same wave never reaches
        # the repair machinery at all: sequential pays a path query (plus a
        # possible FindMin if the insert swapped in) — the wave pays zero.
        g, f, maintainer = _mst_scenario(seed=13)
        u, v = TestWeightZeroRegression._missing_edge(g)
        before = sorted(f.marked_edges)
        wave = [EdgeUpdate.insert(u, v, weight=2), EdgeUpdate.delete(u, v)]
        outcome = maintainer.apply_batch(wave)
        assert outcome.report.skipped_candidates == 1
        assert outcome.report.holes == 0
        assert outcome.report.cost.messages == 0
        assert sorted(f.marked_edges) == before
        assert not g.has_edge(u, v)
        assert is_minimum_spanning_forest(f)

    def test_st_mode_waves_keep_a_spanning_forest(self):
        graph = random_connected_graph(14, 40, seed=14)
        from repro.core.build_st import BuildST

        report = BuildST(graph, config=AlgorithmConfig(n=14, seed=14)).run()
        maintainer = TreeMaintainer(graph, report.forest, mode="st", seed=14)
        maintainer.apply_stream(random_churn(graph, count=10, seed=14), batch_size=3)
        assert is_spanning_forest(report.forest)


class TestWeightZeroRegression:
    """``weight=0`` must survive every path that used ``update.weight or 1``."""

    def test_effective_weight_keeps_zero(self):
        assert EdgeUpdate.insert(0, 1, weight=0).effective_weight == 0
        assert EdgeUpdate.delete(0, 1).effective_weight == 1

    def test_sequential_insert_applies_zero(self):
        g, f, maintainer = _mst_scenario(seed=20)
        u, v = self._missing_edge(g)
        maintainer.apply(EdgeUpdate.insert(u, v, weight=0))
        assert g.get_edge(u, v).weight == 0
        # weight 0 beats every existing weight, so the edge must be in the MST
        assert f.is_marked(u, v)
        assert is_minimum_spanning_forest(f)

    def test_batched_insert_applies_zero(self):
        g, f, maintainer = _mst_scenario(seed=21)
        u, v = self._missing_edge(g)
        maintainer.apply_batch([EdgeUpdate.insert(u, v, weight=0)])
        assert g.get_edge(u, v).weight == 0
        assert f.is_marked(u, v)

    def test_recompute_batch_applies_zero(self):
        graph = random_connected_graph(10, 20, seed=22)
        maintainer = RecomputeMaintainer(graph, mode="mst")
        u, v = self._missing_edge(graph)
        maintainer.apply_batch([EdgeUpdate.insert(u, v, weight=0)])
        assert graph.get_edge(u, v).weight == 0
        assert maintainer.forest.is_marked(u, v)

    def test_impromptu_and_recompute_agree_on_a_zero_weight_insert(self):
        # The impromptu leg and the recompute baseline must run on the same
        # graph: an explicit weight 0 may not become 1 on either side.
        g, f, maintainer = _mst_scenario(seed=24)
        baseline = RecomputeMaintainer(g.copy(), mode="mst")
        u, v = self._missing_edge(g)
        update = EdgeUpdate.insert(u, v, weight=0)
        maintainer.apply(update)
        baseline.apply_batch([update])
        assert g.get_edge(u, v).weight == baseline.graph.get_edge(u, v).weight == 0
        assert f.marked_edges == baseline.forest.marked_edges

    def test_validate_against_round_trips_zero(self):
        from repro.dynamic.updates import UpdateStream

        graph = random_connected_graph(8, 12, seed=23)
        u, v = self._missing_edge(graph)
        stream = UpdateStream([EdgeUpdate.insert(u, v, weight=0)])
        stream.validate_against(graph)  # must not raise

    @staticmethod
    def _missing_edge(graph):
        nodes = sorted(graph.nodes())
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if not graph.has_edge(u, v):
                    return edge_key(u, v)
        raise AssertionError("graph is complete")


class TestRNGIndependence:
    """An explicit shared config must not leak RNG state across maintainers."""

    def test_shared_config_object_is_never_consumed(self):
        config = AlgorithmConfig(n=16, seed=42)
        state_before = config.rng.getstate()
        forests = []
        messages = []
        for _ in range(2):
            g, f, maintainer = _mst_scenario(seed=0, config=config)
            maintainer.apply_stream(tree_edge_deletions(g, f, count=4, seed=0))
            forests.append(sorted(f.marked_edges))
            messages.append(maintainer.total_messages())
        assert config.rng.getstate() == state_before
        assert forests[0] == forests[1]
        assert messages[0] == messages[1]

    def test_updates_draw_independent_randomness(self):
        # Two maintainers over the same scenario, one explicit config and
        # one seed-derived, must both reproduce themselves exactly.
        runs = []
        for _ in range(2):
            g, f, maintainer = _mst_scenario(seed=30)
            maintainer.apply_stream(random_churn(g, count=8, seed=30))
            runs.append((sorted(f.marked_edges), maintainer.total_messages()))
        assert runs[0] == runs[1]


class TestWaveSizeSelection:
    def test_schedule_batch_size_reaches_the_runner(self):
        from repro.api import ScheduleSpec

        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, density="sparse", seed=3),
            schedule=ScheduleSpec(scheduler="fifo", batch_size=2),
        )
        result = run("kkt-repair", spec, updates=6)
        assert result.ok
        assert result.extra["repair_batch"] == 2

    @pytest.mark.parametrize(
        "nodes, seed, updates, wave, waves",
        [(20, 9, 8, 3, 3), (64, 0, 12, 4, 3)],
        ids=["n20-wave3", "n64-churn12-wave4"],
    )
    def test_batched_and_sequential_runners_agree_on_the_forest(
        self, nodes, seed, updates, wave, waves
    ):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=nodes, density="sparse", seed=seed),
            workload=WorkloadSpec(name="churn", updates=updates),
        )
        sequential = run("kkt-repair", spec, record_state=True, repair_batch=0)
        batched = run("kkt-repair", spec, record_state=True, repair_batch=wave)
        assert sequential.ok and batched.ok
        assert batched.extra["repair_batch"] == wave
        assert batched.extra["repair_waves"] == waves  # ceil(updates / wave)
        for key in ("graph_edges", "tree_edges"):
            assert sorted(map(tuple, sequential.extra[key])) == sorted(
                map(tuple, batched.extra[key])
            ), key
