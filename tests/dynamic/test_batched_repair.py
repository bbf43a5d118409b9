"""Tests for the batched repair engine and the PR-10 bugfixes.

Covers the batched==sequential final-forest contract, golden repair counters
per workload, mode and wave size, the wave edge cases (bridge delete+reinsert
in one wave, a wave confined to one component), the falsy-zero weight
regression, the per-update RNG independence fix, and the forced-batching
environment knob.
"""

import re

import pytest

from repro.api import ExperimentSpec, GraphSpec, WorkloadSpec, run
from repro.baselines.recompute_repair import RecomputeMaintainer
from repro.core.build_mst import BuildMST
from repro.core.build_st import BuildST
from repro.core.config import AlgorithmConfig
from repro.dynamic.maintainer import TreeMaintainer
from repro.dynamic.updates import EdgeUpdate
from repro.dynamic.workloads import (
    random_churn,
    tree_edge_deletions,
    weight_perturbations,
)
from repro.generators import random_connected_graph
from repro.network.errors import AlgorithmError
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


# (messages, bits, rounds) of ``kkt-repair`` on a sparse n=32 graph with 12
# updates, per registered workload x mode x repair_batch (0 = one update at a
# time).  Recorded before sequential repair became a wave of one; both
# kernel tiers must reproduce them bit for bit.
GOLDEN_RUNS = {
    ("churn", "mst", 0): (4287, 205400, 1906),
    ("churn", "mst", 4): (2466, 109724, 1454),
    ("churn", "st", 0): (1443, 35662, 506),
    ("churn", "st", 4): (648, 12880, 266),
    ("weight-ramp", "mst", 0): (4758, 253595, 2020),
    ("weight-ramp", "mst", 4): (3827, 202744, 1293),
    ("weight-ramp", "st", 0): (0, 0, 0),
    ("weight-ramp", "st", 4): (0, 0, 0),
    ("insert-heavy", "mst", 0): (808, 16392, 285),
    ("insert-heavy", "mst", 4): (808, 16392, 285),
    ("insert-heavy", "st", 0): (744, 15624, 274),
    ("insert-heavy", "st", 4): (744, 15624, 274),
    ("bridge-heavy", "mst", 0): (1446, 50472, 582),
    ("bridge-heavy", "mst", 4): (183, 3816, 75),
    ("bridge-heavy", "st", 0): (1086, 38772, 366),
    ("bridge-heavy", "st", 4): (183, 3816, 63),
    ("deletions-only", "mst", 0): (3887, 204128, 1440),
    ("deletions-only", "mst", 4): (1733, 88209, 728),
    ("deletions-only", "st", 0): (829, 18190, 306),
    ("deletions-only", "st", 4): (289, 6807, 146),
}

# Per-update (messages, bits, rounds) of ``TreeMaintainer.apply`` over
# ``weight_perturbations(graph, count=16, seed=5)`` on a random n=20, m=60
# graph: the only pinned stream that exercises ``decrease_weight`` (both a
# swap and a kept edge).  An ST ignores weights, so every update is free.
_WEIGHT_STREAM_MST = [
    (58, 884, 25), (0, 0, 0), (38, 684, 16), (970, 46658, 400),
    (856, 42115, 457), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (1036, 52255, 553), (0, 0, 0), (58, 922, 19),
    (38, 722, 16), (0, 0, 0), (0, 0, 0), (1276, 61890, 451),
]
GOLDEN_WEIGHT_STREAM = {"mst": _WEIGHT_STREAM_MST, "st": [(0, 0, 0)] * 16}


class TestGoldenRepairCounters:
    """Repair counters are pinned, not merely compared between two paths."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_RUNS), ids=lambda key: "-".join(map(str, key)))
    def test_kkt_repair_counters(self, key):
        workload, mode, batch = key
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=32, density="sparse", seed=3),
            workload=WorkloadSpec(name=workload),
        )
        result = run("kkt-repair", spec, updates=12, mode=mode, repair_batch=batch)
        assert result.ok
        assert (result.messages, result.bits, result.rounds) == GOLDEN_RUNS[key]

    @pytest.mark.parametrize("mode", ["mst", "st"])
    def test_per_update_weight_stream_counters(self, mode):
        graph = random_connected_graph(20, 60, seed=5)
        builder = BuildMST if mode == "mst" else BuildST
        forest = builder(graph, config=AlgorithmConfig(n=20, seed=5)).run().forest
        maintainer = TreeMaintainer(graph, forest, mode=mode, seed=5)
        stream = weight_perturbations(graph, count=16, seed=5)
        kinds = {update.kind.value for update in stream}
        assert kinds == {"increase_weight", "decrease_weight"}
        costs = []
        for update in stream:
            cost = maintainer.apply(update).report.cost
            costs.append((cost.messages, cost.bits, cost.rounds))
        assert costs == GOLDEN_WEIGHT_STREAM[mode]


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


class TestForcedBatchingKnob:
    def test_env_forces_waves_and_explicit_zero_overrides(self, monkeypatch):
        spec = ExperimentSpec(graph=GraphSpec(nodes=16, density="sparse", seed=3))
        monkeypatch.setenv("REPRO_REPAIR_BATCH", "3")
        batched = run("kkt-repair", spec, updates=6)
        assert batched.ok
        assert batched.extra["repair_batch"] == 3
        assert "messages_per_wave_max" in batched.extra
        sequential = run("kkt-repair", spec, updates=6, repair_batch=0)
        assert sequential.ok
        assert "messages_per_update_max" in sequential.extra
        assert "repair_batch" not in sequential.extra

    @pytest.mark.parametrize("value", ["4x", "-3", ""])
    def test_malformed_env_fails_loudly(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_REPAIR_BATCH", value)
        spec = ExperimentSpec(graph=GraphSpec(nodes=16, density="sparse", seed=3))
        message = f"REPRO_REPAIR_BATCH must be a non-negative integer; got {value!r}"
        with pytest.raises(AlgorithmError, match=f"^{re.escape(message)}$"):
            run("kkt-repair", spec, updates=6)

    def test_schedule_batch_size_reaches_the_runner(self):
        from repro.api import ScheduleSpec

        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, density="sparse", seed=3),
            schedule=ScheduleSpec(scheduler="fifo", batch_size=2),
        )
        result = run("kkt-repair", spec, updates=6)
        assert result.ok
        assert result.extra["repair_batch"] == 2

    def test_batched_and_sequential_runners_agree_on_the_forest(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=20, density="sparse", seed=9))
        sequential = run("kkt-repair", spec, updates=8, record_state=True, repair_batch=0)
        batched = run("kkt-repair", spec, updates=8, record_state=True, repair_batch=3)
        assert sorted(map(tuple, sequential.extra["tree_edges"])) == sorted(
            map(tuple, batched.extra["tree_edges"])
        )
