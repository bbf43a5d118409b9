"""Tests for the impromptu repair operations (Theorem 1.2).

Every update goes through the one repair engine as a wave of one
(:meth:`TreeMaintainer.apply`); the report names the edges the update's
repair marked and unmarked.
"""

import pytest

from repro.baselines.sequential import kruskal_mst, mst_edge_keys
from repro.core.build_mst import BuildMST
from repro.core.config import AlgorithmConfig
from repro.core.repair import TreeRepairer
from repro.dynamic import EdgeUpdate, TreeMaintainer
from repro.fastpath import fast_path
from repro.generators import random_connected_graph
from repro.network.columnar import ColumnarGraph
from repro.network.errors import AlgorithmError, GraphError
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph
from repro.verify import is_minimum_spanning_forest, is_spanning_forest


def _mst_setup(n=20, m=60, seed=0):
    graph = random_connected_graph(n, m, seed=seed)
    config = AlgorithmConfig(n=n, seed=seed)
    report = BuildMST(graph, config=config).run()
    return graph, report.forest, _maintainer(graph, report.forest, n, seed + 1, mode="mst")


def _maintainer(graph, forest, n, seed, mode="mst", c=1.0):
    return TreeMaintainer(
        graph, forest, mode=mode, config=AlgorithmConfig(n=n, seed=seed, c=c)
    )


class TestDeleteMST:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delete_tree_edge_restores_mst(self, seed):
        graph, forest, maintainer = _mst_setup(seed=seed)
        key = sorted(forest.marked_edges)[seed]
        report = maintainer.apply(EdgeUpdate.delete(*key)).report
        assert report.holes == 1
        assert [edge.endpoints for edge in report.unmarked] == [key]
        assert is_minimum_spanning_forest(forest)
        assert report.cost.messages >= 0

    def test_delete_non_tree_edge_is_free(self):
        graph, forest, maintainer = _mst_setup(seed=3)
        non_tree = next(
            (e.u, e.v) for e in graph.edges() if (e.u, e.v) not in forest.marked_edges
        )
        report = maintainer.apply(EdgeUpdate.delete(*non_tree)).report
        assert report.holes == 0
        assert report.unmarked == []
        assert report.cost.messages == 0
        assert is_minimum_spanning_forest(forest)

    def test_delete_bridge_reports_bridge(self):
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 2)
        graph.add_edge(1, 3, 3)
        graph.add_edge(3, 4, 5)   # bridge
        forest = SpanningForest(graph, marked=[(1, 2), (2, 3), (3, 4)])
        maintainer = _maintainer(graph, forest, 4, 1)
        report = maintainer.apply(EdgeUpdate.delete(3, 4)).report
        assert report.holes == 1
        assert report.bridges == 1
        assert report.marked == []
        # The forest now has two components {1,2,3} and {4}, each spanning.
        assert is_minimum_spanning_forest(forest)

    def test_delete_missing_edge_rejected(self):
        graph, forest, maintainer = _mst_setup(seed=4)
        with pytest.raises(GraphError):
            maintainer.apply(EdgeUpdate.delete(1, 1 + graph.num_nodes + 100))

    def test_sequence_of_deletions_keeps_mst(self):
        graph, forest, maintainer = _mst_setup(n=18, m=70, seed=5)
        for _ in range(6):
            key = sorted(forest.marked_edges)[0]
            maintainer.apply(EdgeUpdate.delete(*key))
            assert is_minimum_spanning_forest(forest)


class TestInsertMST:
    def test_insert_lighter_edge_swaps_heaviest_path_edge(self):
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 9)
        graph.add_edge(3, 4, 2)
        forest = SpanningForest(graph, marked=[(1, 2), (2, 3), (3, 4)])
        maintainer = _maintainer(graph, forest, 4, 2)
        report = maintainer.apply(EdgeUpdate.insert(1, 4, weight=3)).report
        assert report.swaps == 1
        assert [edge.endpoints for edge in report.marked] == [(1, 4)]
        assert [edge.endpoints for edge in report.unmarked] == [(2, 3)]
        assert forest.is_marked(1, 4)
        assert not forest.is_marked(2, 3)
        assert is_minimum_spanning_forest(forest)

    def test_insert_heavier_edge_changes_nothing(self):
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 2)
        forest = SpanningForest(graph, marked=[(1, 2), (2, 3)])
        maintainer = _maintainer(graph, forest, 3, 3)
        report = maintainer.apply(EdgeUpdate.insert(1, 3, weight=50)).report
        assert report.marked == []
        assert report.unmarked == []
        assert not forest.is_marked(1, 3)
        assert is_minimum_spanning_forest(forest)

    def test_insert_edge_joining_two_trees(self):
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(3, 4, 2)
        forest = SpanningForest(graph, marked=[(1, 2), (3, 4)])
        maintainer = _maintainer(graph, forest, 4, 4)
        report = maintainer.apply(EdgeUpdate.insert(2, 3, weight=7)).report
        assert forest.is_marked(2, 3)
        assert is_minimum_spanning_forest(forest)
        assert report.joins == 1
        assert report.holes == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_insertions_keep_mst(self, seed):
        graph, forest, maintainer = _mst_setup(n=16, m=40, seed=seed + 6)
        nodes = graph.nodes()
        added = 0
        weight = 0  # very light edges: likely to enter the MST
        for u in nodes:
            for v in nodes:
                if u < v and not graph.has_edge(u, v):
                    maintainer.apply(EdgeUpdate.insert(u, v, weight=weight))
                    weight += 1
                    added += 1
                    assert is_minimum_spanning_forest(forest)
                    if added >= 5:
                        return


class TestWeightChangesMST:
    def test_increase_non_tree_edge_weight_is_noop(self):
        graph, forest, maintainer = _mst_setup(seed=8)
        non_tree = next(
            (e.u, e.v) for e in graph.edges() if (e.u, e.v) not in forest.marked_edges
        )
        old = graph.get_edge(*non_tree).weight
        report = maintainer.apply(
            EdgeUpdate.increase_weight(non_tree[0], non_tree[1], old + 100)
        ).report
        assert report.cost.messages == 0
        assert is_minimum_spanning_forest(forest)

    def test_increase_tree_edge_weight_may_swap(self):
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 2)
        graph.add_edge(1, 3, 5)
        forest = SpanningForest(graph, marked=[(1, 2), (2, 3)])
        maintainer = _maintainer(graph, forest, 3, 9, c=2)
        maintainer.apply(EdgeUpdate.increase_weight(2, 3, 50))
        assert is_minimum_spanning_forest(forest)
        assert forest.is_marked(1, 3)
        assert not forest.is_marked(2, 3)

    def test_increase_tree_edge_weight_kept_when_still_minimum(self):
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 2)
        graph.add_edge(1, 3, 100)
        forest = SpanningForest(graph, marked=[(1, 2), (2, 3)])
        maintainer = _maintainer(graph, forest, 3, 10, c=2)
        maintainer.apply(EdgeUpdate.increase_weight(2, 3, 50))
        assert is_minimum_spanning_forest(forest)
        assert forest.is_marked(2, 3)

    def test_decrease_tree_edge_weight_is_noop(self):
        graph, forest, maintainer = _mst_setup(seed=11)
        key = sorted(forest.marked_edges)[0]
        old = graph.get_edge(*key).weight
        update = EdgeUpdate.decrease_weight(key[0], key[1], max(old - 1, 0))
        report = maintainer.apply(update).report
        assert report.cost.messages == 0
        assert is_minimum_spanning_forest(forest)

    def test_decrease_non_tree_edge_below_path_max_swaps(self):
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 3, 9)
        graph.add_edge(1, 3, 20)
        forest = SpanningForest(graph, marked=[(1, 2), (2, 3)])
        maintainer = _maintainer(graph, forest, 3, 12)
        maintainer.apply(EdgeUpdate.decrease_weight(1, 3, 2))
        assert forest.is_marked(1, 3)
        assert not forest.is_marked(2, 3)
        assert is_minimum_spanning_forest(forest)

    def test_wrong_direction_rejected(self):
        graph, forest, maintainer = _mst_setup(seed=13)
        key = sorted(forest.marked_edges)[0]
        weight = graph.get_edge(*key).weight
        with pytest.raises(AlgorithmError):
            maintainer.apply(EdgeUpdate.increase_weight(key[0], key[1], weight - 1))
        with pytest.raises(AlgorithmError):
            maintainer.apply(EdgeUpdate.decrease_weight(key[0], key[1], weight + 1))

    def test_decrease_across_trees_joins_them(self):
        # A spanning forest never has a non-tree edge between two of its
        # trees, but a Monte Carlo total failure can leave one: the
        # decreased edge then joins the trees, restoring spanning.
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(3, 4, 2)
        graph.add_edge(2, 3, 9)
        forest = SpanningForest(graph, marked=[(1, 2), (3, 4)])
        maintainer = _maintainer(graph, forest, 4, 16)
        report = maintainer.apply(EdgeUpdate.decrease_weight(2, 3, 5)).report
        assert report.joins == 1
        assert forest.is_marked(2, 3)
        assert is_minimum_spanning_forest(forest)


class TestRepairST:
    def _st_setup(self, seed=0):
        graph = random_connected_graph(18, 50, seed=seed)
        from repro.generators import random_spanning_tree_forest

        forest = random_spanning_tree_forest(graph, seed=seed)
        return graph, forest, _maintainer(graph, forest, 18, seed + 1, mode="st")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delete_tree_edge_restores_spanning(self, seed):
        graph, forest, maintainer = self._st_setup(seed=seed)
        key = sorted(forest.marked_edges)[seed]
        maintainer.apply(EdgeUpdate.delete(*key))
        assert is_spanning_forest(forest)

    def test_st_insert_redundant_edge_noop(self):
        graph, forest, maintainer = self._st_setup(seed=3)
        # Find an absent pair within the (single) component.
        nodes = graph.nodes()
        pair = next(
            (u, v)
            for u in nodes
            for v in nodes
            if u < v and not graph.has_edge(u, v)
        )
        report = maintainer.apply(EdgeUpdate.insert(*pair, weight=1)).report
        assert report.marked == []
        assert is_spanning_forest(forest)

    def test_st_weight_change_noop(self):
        graph, forest, maintainer = self._st_setup(seed=4)
        key = sorted(forest.marked_edges)[0]
        old = graph.get_edge(*key).weight
        report = maintainer.apply(EdgeUpdate.increase_weight(key[0], key[1], old + 5)).report
        assert report.cost.messages == 0
        assert is_spanning_forest(forest)

    def test_mode_validation(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        forest = SpanningForest(graph)
        with pytest.raises(AlgorithmError):
            TreeRepairer(graph, forest, [], mode="other")

    def test_wave_needs_a_config_per_update(self):
        graph = Graph()
        graph.add_edge(1, 2, 1)
        forest = SpanningForest(graph, marked=[(1, 2)])
        with pytest.raises(AlgorithmError, match="more updates than configs"):
            TreeRepairer(graph, forest, []).run([EdgeUpdate.delete(1, 2)])
        assert graph.has_edge(1, 2)


class TestRepairCostShape:
    def test_delete_repair_cost_proportional_to_component(self):
        graph, forest, maintainer = _mst_setup(n=24, m=90, seed=14)
        key = sorted(forest.marked_edges)[3]
        report = maintainer.apply(EdgeUpdate.delete(*key)).report
        n = graph.num_nodes
        # The search runs over one side of the split tree (< n nodes), each
        # B&E costs at most 2(n-1) messages.
        be_count = report.cost.broadcast_echoes
        assert report.cost.messages <= 2 * (n - 1) * max(be_count, 1) + 2

    def test_insert_repair_constant_broadcast_echoes(self):
        graph, forest, maintainer = _mst_setup(n=24, m=60, seed=15)
        nodes = graph.nodes()
        pair = next(
            (u, v) for u in nodes for v in nodes if u < v and not graph.has_edge(u, v)
        )
        report = maintainer.apply(EdgeUpdate.insert(*pair, weight=1)).report
        # Insert is deterministic: one path query B&E (+ announcement).
        assert report.cost.broadcast_echoes <= 2


class TestColumnarSplice:
    def test_delete_then_reinsert_never_rebuilds_the_snapshot(self, monkeypatch):
        # Once the columnar snapshot is built, every edge mutation splices
        # it: a delete-then-reinsert of an MST edge, search for the
        # replacement included, makes no ColumnarGraph.from_graph call.
        graph, forest, maintainer = _mst_setup(seed=4)

        def has_replacement(key):
            rest = graph.copy()
            rest.remove_edge(*key)
            return rest.is_connected()

        first, second = [k for k in sorted(forest.marked_edges) if has_replacement(k)][:2]

        def delete_then_reinsert(key):
            weight = graph.get_edge(*key).weight
            report = maintainer.apply(EdgeUpdate.delete(*key)).report
            maintainer.apply(EdgeUpdate.insert(*key, weight))
            return report

        builds = []
        original = ColumnarGraph.from_graph

        def counting(target):
            builds.append(target.version)
            return original(target)

        with fast_path():
            delete_then_reinsert(first)  # warm-up: builds the snapshot once
            monkeypatch.setattr(ColumnarGraph, "from_graph", staticmethod(counting))
            report = delete_then_reinsert(second)
        assert report.marked  # the search found a replacement
        assert builds == []
        assert graph.columnar().version == graph.version
        assert is_minimum_spanning_forest(forest)
