"""Tests for the superpolynomial-weight FindMin (Appendix A)."""

import pytest

from repro.core.config import AlgorithmConfig
from repro.core.sample import SuperpolyFindMin
from repro.generators import random_connected_graph, random_spanning_tree_forest
from repro.network.accounting import MessageAccountant
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph


def _finder(graph, forest, seed=0, **kwargs):
    config = AlgorithmConfig(n=graph.num_nodes, seed=seed, **kwargs)
    return SuperpolyFindMin(graph, forest, config, MessageAccountant())


class TestSmallWeights:
    def test_finds_lightest_cut_edge(self, two_fragment_graph):
        graph, forest = two_fragment_graph()
        result = _finder(graph, forest, seed=1).run(1)
        assert result.edge is not None
        assert result.edge.endpoints == (3, 4)

    def test_empty_cut_verified(self):
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(3, 4, 2)
        forest = SpanningForest(graph, marked=[(1, 2), (3, 4)])
        result = _finder(graph, forest, seed=2).run(1)
        assert result.edge is None
        assert result.verified_empty

    def test_isolated_node(self):
        graph = Graph(id_bits=4)
        graph.add_node(9)
        graph.add_edge(1, 2, 1)
        forest = SpanningForest(graph, marked=[(1, 2)])
        result = _finder(graph, forest, seed=3).run(9)
        assert result.edge is None
        assert result.verified_empty


class TestSuperpolynomialWeights:
    def test_huge_weights_lightest_edge_found(self, two_fragment_graph):
        # Weights around 2^100: far beyond any polynomial in n.
        big = 1 << 100
        graph, forest = two_fragment_graph(((3, 4, big + 3), (1, 6, big + 77), (2, 5, big + 12)))
        result = _finder(graph, forest, seed=4).run(1)
        assert result.edge is not None
        assert result.edge.endpoints == (3, 4)

    def test_mixed_scale_weights(self, two_fragment_graph):
        graph, forest = two_fragment_graph(((3, 4, 5), (1, 6, 1 << 90), (2, 5, 1 << 60)))
        result = _finder(graph, forest, seed=5).run(1)
        assert result.edge.endpoints == (3, 4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graph_with_wide_weights(self, seed):
        graph = random_connected_graph(16, 40, seed=seed)
        # Stretch the weights to ~2^64 while keeping them distinct.
        for index, edge in enumerate(graph.edges()):
            graph.set_weight(edge.u, edge.v, (edge.weight << 60) + index)
        forest = random_spanning_tree_forest(graph, seed=seed + 20)
        key = sorted(forest.marked_edges)[seed]
        forest.unmark(*key)
        root = key[0]
        component = forest.component_of(root)
        cut = forest.outgoing_edges(component)
        true_min = min(cut, key=lambda e: e.augmented_weight(graph.id_bits))
        result = _finder(graph, forest, seed=seed, c=2.0).run(root)
        assert result.edge == true_min

    def test_broadcast_echo_count_stays_moderate(self, two_fragment_graph):
        """The point of Appendix A: B&E count does not scale with weight bits."""
        small_graph, small_forest = two_fragment_graph()
        huge = 1 << 200
        big_graph, big_forest = two_fragment_graph(
            ((3, 4, huge + 10), (1, 6, huge + 20), (2, 5, huge + 15))
        )
        small_result = _finder(small_graph, small_forest, seed=6).run(1)
        big_result = _finder(big_graph, big_forest, seed=6).run(1)
        assert big_result.edge is not None
        # Allow some slack, but the big-weight run must not need orders of
        # magnitude more broadcast-and-echoes than the small-weight run.
        assert big_result.broadcast_echoes <= 6 * max(small_result.broadcast_echoes, 4)


def _pivot_ranges(low, high, pivots):
    lows, highs = SuperpolyFindMin._pivot_ranges(low, high, pivots)
    return list(zip(lows, highs))


class TestPivotRanges:
    def test_ranges_partition_with_singletons(self):
        ranges = _pivot_ranges(0, 100, [10, 50])
        assert ranges == [(0, 9), (10, 10), (11, 49), (50, 50), (51, 100)]

    def test_pivot_at_boundary(self):
        ranges = _pivot_ranges(10, 20, [10, 20])
        assert ranges == [(10, 10), (11, 19), (20, 20)]

    def test_out_of_range_pivots_ignored(self):
        ranges = _pivot_ranges(10, 20, [5, 30])
        assert ranges == [(10, 20)]

    def test_no_pivots(self):
        assert _pivot_ranges(3, 9, []) == [(3, 9)]
