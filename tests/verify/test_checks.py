"""Tests for the spanning-forest / MST verifiers."""

import re

import pytest

from repro.baselines.sequential import kruskal_mst
from repro.generators import random_connected_graph
from repro.network.errors import ForestError
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph
from repro.verify import (
    check_minimum_spanning_forest,
    check_properly_marked,
    check_spanning_forest,
    is_minimum_spanning_forest,
    is_spanning_forest,
    mst_difference,
)


class TestProperlyMarked:
    def test_ok_when_edges_exist(self, small_weighted_graph, mst_forest):
        forest = mst_forest(small_weighted_graph)
        check_properly_marked(forest)

    def test_detects_dangling_mark(self, small_weighted_graph, mst_forest):
        forest = mst_forest(small_weighted_graph)
        # Delete a marked edge from the graph behind the forest's back.
        key = sorted(forest.marked_edges)[0]
        small_weighted_graph.remove_edge(*key)
        with pytest.raises(ForestError):
            check_properly_marked(forest)


class TestSpanningForest:
    def test_accepts_spanning_tree(self, small_weighted_graph, mst_forest):
        forest = mst_forest(small_weighted_graph)
        check_spanning_forest(forest)
        assert is_spanning_forest(forest)

    def test_rejects_disconnected_marking(self, small_weighted_graph, mst_forest):
        forest = mst_forest(small_weighted_graph)
        forest.unmark(*sorted(forest.marked_edges)[0])
        assert not is_spanning_forest(forest)

    def test_rejects_cycle(self, triangle_graph):
        forest = SpanningForest(triangle_graph, marked=[(1, 2), (2, 3), (1, 3)])
        assert not is_spanning_forest(forest)

    def test_accepts_forest_of_disconnected_graph(self):
        graph = Graph(id_bits=5)
        graph.add_edge(1, 2, 1)
        graph.add_edge(5, 6, 2)
        graph.add_node(9)
        forest = SpanningForest(graph, marked=[(1, 2), (5, 6)])
        check_spanning_forest(forest)

    def test_builds_the_forest_components_once(self, small_weighted_graph, mst_forest,
                                               monkeypatch):
        forest = mst_forest(small_weighted_graph)
        components = SpanningForest.components
        calls = []

        def counted(self):
            calls.append(self)
            return components(self)

        monkeypatch.setattr(SpanningForest, "components", counted)
        check_spanning_forest(forest)
        assert calls == [forest]
        forest.unmark(*sorted(forest.marked_edges)[0])
        calls.clear()
        with pytest.raises(ForestError, match="do not span"):
            check_spanning_forest(forest)
        assert calls == [forest]


class TestSpanningForestOnRandomGraphs:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_single_unmark_is_caught(self, seed, mst_forest):
        graph = random_connected_graph(12, 24, seed=seed)
        forest = mst_forest(graph)
        check_spanning_forest(forest)
        for u, v in sorted(forest.marked_edges):
            broken = forest.copy()
            broken.unmark(u, v)
            with pytest.raises(ForestError, match="do not span"):
                check_spanning_forest(broken)

    def test_a_cycle_is_named_before_the_span_is_compared(self, triangle_graph):
        forest = SpanningForest(triangle_graph, marked=[(1, 2), (2, 3), (1, 3)])
        with pytest.raises(
            ForestError,
            match=re.escape(
                "component [1, 2, 3] has 3 marked edges; a tree on 3 nodes must have 2"
            ),
        ):
            check_spanning_forest(forest)


class TestMinimumSpanningForest:
    def test_accepts_true_mst(self, mst_forest):
        graph = random_connected_graph(20, 60, seed=1)
        forest = mst_forest(graph)
        check_minimum_spanning_forest(forest)
        assert is_minimum_spanning_forest(forest)

    def test_rejects_spanning_but_not_minimum(self, small_weighted_graph):
        # Swap MST edge (1,2) for the heavier chord (1,3): still spanning.
        forest = SpanningForest(
            small_weighted_graph, marked=[(1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]
        )
        assert is_spanning_forest(forest)
        assert not is_minimum_spanning_forest(forest)
        extra, missing = mst_difference(forest)
        assert extra == {(1, 3)}
        assert missing == {(1, 2)}

    def test_difference_empty_for_mst(self, small_weighted_graph, mst_forest):
        forest = mst_forest(small_weighted_graph)
        assert mst_difference(forest) == (set(), set())
