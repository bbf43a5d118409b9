"""Tests for FindMin / FindMin-C (Lemma 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import fastpath
from repro.core.config import AlgorithmConfig
from repro.core.findmin import FindMin, split_range
from repro.core.sample import SuperpolyFindMin
from repro.core.testout import lowest_set_bit
from repro.generators import random_connected_graph, random_spanning_tree_forest
from repro.network.accounting import MessageAccountant
from repro.network.broadcast import BroadcastEchoExecutor
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph


def _finder(graph, forest, seed=0, **kwargs):
    config = AlgorithmConfig(n=graph.num_nodes, seed=seed, **kwargs)
    return FindMin(graph, forest, config, MessageAccountant())


class TestFindMinSmall:
    def test_finds_lightest_cut_edge(self, two_fragment_graph):
        graph, forest = two_fragment_graph()
        finder = _finder(graph, forest, seed=1)
        result = finder.find_min(1)
        assert result.edge is not None
        assert result.edge.endpoints == (3, 4)
        assert not result.verified_empty

    def test_same_answer_from_both_sides(self, two_fragment_graph):
        graph, forest = two_fragment_graph()
        for seed in range(3):
            left = _finder(graph, forest, seed=seed).find_min(1)
            right = _finder(graph, forest, seed=seed + 100).find_min(4)
            assert left.edge.endpoints == right.edge.endpoints == (3, 4)

    def test_verified_empty_when_no_cut_edge(self):
        graph = Graph(id_bits=4)
        graph.add_edge(1, 2, 1)
        graph.add_edge(3, 4, 2)
        forest = SpanningForest(graph, marked=[(1, 2), (3, 4)])
        finder = _finder(graph, forest, seed=2)
        result = finder.find_min(1)
        assert result.edge is None
        assert result.verified_empty

    def test_isolated_component_returns_empty_without_communication(self):
        graph = Graph(id_bits=4)
        graph.add_node(7)
        graph.add_edge(1, 2, 1)
        forest = SpanningForest(graph, marked=[(1, 2)])
        finder = _finder(graph, forest, seed=3)
        result = finder.find_min(7)
        assert result.edge is None
        assert result.verified_empty
        assert result.cost.messages == 0

    def test_singleton_fragment_with_neighbors(self, two_fragment_graph):
        graph, forest = two_fragment_graph()
        forest.unmark(1, 2)
        finder = _finder(graph, forest, seed=4)
        result = finder.find_min(1)
        # Node 1 alone: incident edges (1,2,w=1) and (1,6,w=20); minimum is (1,2).
        assert result.edge.endpoints == (1, 2)
        # A singleton tree never sends a message.
        assert result.cost.messages == 0

    def test_capped_variant_returns_correct_edge_or_empty(self, two_fragment_graph):
        # FindMin-C errs (returns a non-lightest edge) only when HP-TestOut
        # errs, i.e. with probability <= n^{-c-1} per call; use c=3 so that
        # across 20 seeded runs on this 6-node graph the correct behaviour is
        # overwhelmingly likely (and, being seeded, deterministic).
        graph, forest = two_fragment_graph()
        outcomes = set()
        for seed in range(20):
            finder = _finder(graph, forest, seed=seed, c=3.0)
            result = finder.find_min_capped(1)
            if result.edge is not None:
                assert result.edge.endpoints == (3, 4)
                outcomes.add("edge")
            else:
                outcomes.add("empty")
        # With probability >= 2/3 per run the edge is found; over 20 seeds we
        # should certainly see at least one success.
        assert "edge" in outcomes


class TestFindMinRandomGraphs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_ground_truth_minimum(self, seed):
        graph = random_connected_graph(20, 60, seed=seed)
        forest = random_spanning_tree_forest(graph, seed=seed + 50)
        # Split the spanning tree into two fragments by removing one edge.
        key = sorted(forest.marked_edges)[seed]
        forest.unmark(*key)
        finder = _finder(graph, forest, seed=seed, c=2.0)
        root = key[0]
        component = forest.component_of(root)
        result = finder.find_min(root)
        cut = forest.outgoing_edges(component)
        assert cut, "test setup should leave a non-empty cut"
        true_min = min(cut, key=lambda e: e.augmented_weight(graph.id_bits))
        assert result.edge == true_min

    def test_cost_scales_with_fragment_size_not_graph_size(self):
        graph = random_connected_graph(40, 150, seed=9)
        forest = random_spanning_tree_forest(graph, seed=9)
        key = sorted(forest.marked_edges)[0]
        forest.unmark(*key)
        finder = _finder(graph, forest, seed=9)
        root = key[0]
        size = len(forest.component_of(root))
        result = finder.find_min(root)
        # Each broadcast-and-echo costs 2(size-1) messages; the number of
        # B&Es is O(log n / log log n) with moderate constants.
        assert result.cost.messages <= 2 * (size - 1) * (result.broadcast_echoes)

    def test_iterations_within_budget(self):
        graph = random_connected_graph(24, 80, seed=4)
        forest = random_spanning_tree_forest(graph, seed=4)
        key = sorted(forest.marked_edges)[2]
        forest.unmark(*key)
        config = AlgorithmConfig(n=24, seed=4)
        finder = FindMin(graph, forest, config, MessageAccountant())
        result = finder.run(key[0], capped=False)
        assert result.iterations <= config.findmin_budget(graph.max_augmented_weight())


class TestRangeSplitting:
    def test_split_covers_range_without_overlap(self):
        lows, highs = split_range(0, 100, 8)
        assert lows[0] == 0
        assert highs[-1] == 100
        for b, c in zip(highs, lows[1:]):
            assert b + 1 == c
        assert len(lows) == len(highs) <= 8

    def test_split_single_value(self):
        assert split_range(5, 5, 8) == ([5], [5])

    def test_split_range_smaller_than_word(self):
        assert split_range(10, 13, 8) == ([10, 11, 12, 13], [10, 11, 12, 13])

    @settings(max_examples=300, deadline=None)
    @given(
        bounds=st.tuples(
            st.integers(0, (1 << 256) - 1), st.integers(0, (1 << 256) - 1)
        ).map(sorted),
        word_size=st.integers(2, 64),
    )
    def test_split_has_at_most_word_size_contiguous_ranges(self, bounds, word_size):
        # Spans beyond 2^53 must be sized in integer arithmetic: a float
        # chunk rounds down and leaves a (w+1)-th sub-range.
        low, high = bounds
        lows, highs = split_range(low, high, word_size)
        assert len(lows) == len(highs) <= word_size
        assert lows[0] == low and highs[-1] == high
        assert all(a <= b for a, b in zip(lows, highs))
        for b, c in zip(highs, lows[1:]):
            assert b + 1 == c

    def test_split_rejects_inverted_range(self):
        from repro.network.errors import AlgorithmError

        with pytest.raises(AlgorithmError):
            split_range(10, 5, 4)

    def test_lowest_set_bit(self):
        assert lowest_set_bit(0b0, 4) is None
        assert lowest_set_bit(0b1000, 4) == 3
        assert lowest_set_bit(0b0110, 4) == 1

    @settings(max_examples=300, deadline=None)
    @given(word=st.integers(0, (1 << 80) - 1), width=st.integers(0, 72))
    def test_lowest_set_bit_matches_naive_scan(self, word, width):
        # Bits at or above ``width`` must be ignored, as the scan does.
        naive = next((i for i in range(width) if (word >> i) & 1), None)
        assert lowest_set_bit(word, width) == naive
        assert lowest_set_bit(word | (1 << width), width) == naive


def _wide_weight_setup(weight_bits, seed, nodes=64):
    """The ``superpoly`` claim's instance (:mod:`repro.claims`): a random graph
    whose weights are stretched to ``weight_bits`` bits, and a spanning tree
    split in two."""
    graph = random_connected_graph(nodes, 3 * nodes, seed=seed)
    for index, edge in enumerate(graph.edges()):
        graph.set_weight(edge.u, edge.v, (edge.weight << max(weight_bits - 14, 0)) + index)
    forest = random_spanning_tree_forest(graph, seed=seed + 1)
    key = sorted(forest.marked_edges)[nodes // 3]
    forest.unmark(*key)
    root = max(key, key=lambda node: len(forest.component_of(node)))
    return graph, forest, root


def _word_bound(config):
    return config.word_size


def _pivot_bound(config):
    # Sample's s = max(2, w // 2) pivots induce up to 2s + 1 intervals, one
    # more than w for even w (an open ROADMAP item); pin that bound here.
    return 2 * max(2, config.word_size // 2) + 1


class TestWideWeightTiers:
    """Searches past 2^53: both tiers agree and TestOut words stay bounded."""

    @staticmethod
    def _search(searcher, word_bound, weight_bits, seed):
        graph, forest, root = _wide_weight_setup(weight_bits, seed)
        config = AlgorithmConfig(n=graph.num_nodes, seed=seed)
        testout_echo_bits = []
        original = BroadcastEchoExecutor.broadcast_and_echo

        def recording(self, *args, **kwargs):
            if kwargs.get("kind") == "testout":
                testout_echo_bits.append(kwargs["echo_bits"])
            return original(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BroadcastEchoExecutor, "broadcast_and_echo", recording)
            result = searcher(graph, forest, config, root)
        assert testout_echo_bits
        assert max(testout_echo_bits) <= word_bound(config)
        cut = forest.outgoing_edges(forest.component_of(root))
        assert result.edge == min(cut, key=lambda e: e.augmented_weight(graph.id_bits))
        return (
            result.edge.endpoints,
            result.cost.messages,
            result.cost.bits,
            result.cost.rounds,
            result.broadcast_echoes,
        )

    @pytest.mark.parametrize(
        "searcher, word_bound",
        [
            (
                lambda g, f, c, r: FindMin(g, f, c, MessageAccountant()).find_min(r),
                _word_bound,
            ),
            (
                lambda g, f, c, r: SuperpolyFindMin(g, f, c, MessageAccountant()).run(r),
                _pivot_bound,
            ),
        ],
        ids=["findmin", "superpoly"],
    )
    @pytest.mark.parametrize("weight_bits", [96, 192])
    def test_tiers_agree(self, searcher, word_bound, weight_bits):
        args = (searcher, word_bound, weight_bits, 17)
        with fastpath.fast_path():
            fast = self._search(*args)
        with fastpath.reference_path():
            reference = self._search(*args)
        assert fast == reference


def _wide_id_setup(small_tree):
    """A path of IDs 1-10 beside two nodes with 32-bit IDs near ``2^31``.

    The wide pair's edge number is about ``2^63``, far above every edge
    number of the path, so HP-TestOut's prime (picked from the tree's
    ``maxEdgeNum``) is tiny next to the graph's largest edge number.  Root
    1's tree is the whole path (it covers the graph) or, with
    ``small_tree``, only 1-2-3.
    """
    graph = Graph(id_bits=32)
    wide_u, wide_v = 2**31 + 5, 2**31 + 9
    for node in list(range(1, 11)) + [wide_u, wide_v]:
        graph.add_node(node)
    for node in range(1, 10):
        graph.add_edge(node, node + 1, weight=node)
    graph.add_edge(wide_u, wide_v, weight=3)
    graph.add_edge(3, wide_u, weight=50)
    graph.add_edge(7, wide_v, weight=40)
    forest = SpanningForest(graph, marked=[(node, node + 1) for node in range(1, 10)])
    if small_tree:
        forest.unmark(3, 4)
    return graph, forest


class TestWideIds:
    """HP-TestOut's internal-edge walk stops at the tree's largest edge number."""

    @pytest.mark.parametrize("small_tree", [False, True], ids=["covering", "small"])
    @pytest.mark.parametrize("seed", range(4))
    def test_fast_path_equals_reference(self, small_tree, seed):
        outcomes = []
        for tier in (fastpath.fast_path, fastpath.reference_path):
            graph, forest = _wide_id_setup(small_tree)
            with tier():
                result = _finder(graph, forest, seed=seed).find_min(1)
            outcomes.append((result.edge, result.iterations, result.cost))
        assert outcomes[0] == outcomes[1]
        expected = (3, 4) if small_tree else (7, 2**31 + 9)
        assert outcomes[0][0].endpoints == expected
