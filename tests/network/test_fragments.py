"""Unit tests for the SpanningForest (properly-marked) state."""

import random
import re

import pytest

from repro.generators import complete_graph, random_connected_graph
from repro.network.errors import ForestError, GraphError
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph


@pytest.fixture
def graph_and_forest(small_weighted_graph):
    forest = SpanningForest(small_weighted_graph)
    for key in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]:
        forest.mark(*key)
    return small_weighted_graph, forest


class TestMarking:
    def test_mark_and_unmark(self, triangle_graph):
        forest = SpanningForest(triangle_graph)
        forest.mark(1, 2)
        assert forest.is_marked(2, 1)
        forest.unmark(1, 2)
        assert not forest.is_marked(1, 2)

    def test_unmark_missing_is_noop(self, triangle_graph):
        forest = SpanningForest(triangle_graph)
        forest.unmark(1, 2)
        assert forest.num_marked == 0

    def test_cannot_mark_nonexistent_edge(self, triangle_graph):
        forest = SpanningForest(triangle_graph)
        with pytest.raises(ForestError):
            forest.mark(1, 9)

    def test_constructor_accepts_marked_edges(self, triangle_graph):
        forest = SpanningForest(triangle_graph, marked=[(1, 2), (2, 3)])
        assert forest.num_marked == 2

    def test_drop_missing_edges(self, triangle_graph):
        forest = SpanningForest(triangle_graph, marked=[(1, 2)])
        triangle_graph.remove_edge(1, 2)
        gone = forest.drop_missing_edges()
        assert gone == [(1, 2)]
        assert forest.num_marked == 0

    def test_clear(self, triangle_graph):
        forest = SpanningForest(triangle_graph, marked=[(1, 2)])
        forest.clear()
        assert forest.num_marked == 0


class TestNodeLocalViews:
    def test_marked_neighbors(self, graph_and_forest):
        _, forest = graph_and_forest
        assert forest.marked_neighbors(3) == [2, 4]
        assert forest.marked_neighbors(1) == [2]

    def test_unmarked_incident_edges(self, graph_and_forest):
        graph, forest = graph_and_forest
        unmarked = forest.unmarked_incident_edges(1)
        assert {(e.u, e.v) for e in unmarked} == {(1, 3), (1, 6)}

    def test_marked_degree(self, graph_and_forest):
        _, forest = graph_and_forest
        assert forest.marked_degree(3) == 2
        assert forest.marked_degree(6) == 1


class TestComponents:
    def test_component_of_full_tree(self, graph_and_forest):
        _, forest = graph_and_forest
        assert forest.component_of(4) == {1, 2, 3, 4, 5, 6}

    def test_components_after_split(self, graph_and_forest):
        _, forest = graph_and_forest
        forest.unmark(3, 4)
        comps = sorted(sorted(c) for c in forest.components())
        assert comps == [[1, 2, 3], [4, 5, 6]]

    def test_tree_adjacency(self, graph_and_forest):
        _, forest = graph_and_forest
        adjacency = forest.tree_adjacency({1, 2, 3})
        assert adjacency == {1: [2], 2: [1, 3], 3: [2]}

    def test_outgoing_edges(self, graph_and_forest):
        _, forest = graph_and_forest
        forest.unmark(3, 4)
        outgoing = forest.outgoing_edges({1, 2, 3})
        keys = {(e.u, e.v) for e in outgoing}
        assert keys == {(3, 4), (2, 5), (3, 6), (1, 6)}

    def test_outgoing_edges_of_unknown_node_raises(self, graph_and_forest):
        _, forest = graph_and_forest
        with pytest.raises(GraphError, match="node 9 not present"):
            forest.outgoing_edges({1, 9})


class TestInvariants:
    def test_is_forest_true_for_tree(self, graph_and_forest):
        _, forest = graph_and_forest
        assert forest.is_forest()
        forest.check_forest()

    def test_check_forest_returns_the_components_it_built(self, graph_and_forest):
        _, forest = graph_and_forest
        assert forest.check_forest() == forest.components() == [{1, 2, 3, 4, 5, 6}]
        forest.unmark(3, 4)
        assert forest.check_forest() == forest.components()
        assert sorted(map(sorted, forest.check_forest())) == [[1, 2, 3], [4, 5, 6]]

    @pytest.mark.parametrize("seed", range(4))
    def test_check_forest_components_partition_the_nodes(self, seed):
        graph = random_connected_graph(16, 30, seed=seed)
        rng = random.Random(seed)
        forest = SpanningForest(graph)
        for edge in graph.edges():
            forest.mark(edge.u, edge.v)
            if not forest.is_forest() or rng.random() < 0.4:
                forest.unmark(edge.u, edge.v)
        components = forest.check_forest()
        assert components == forest.components()
        assert sorted(node for comp in components for node in comp) == sorted(graph.nodes())

    def test_cycle_detected(self, triangle_graph):
        forest = SpanningForest(
            triangle_graph, marked=[(1, 2), (2, 3), (1, 3)]
        )
        assert not forest.is_forest()
        with pytest.raises(ForestError):
            forest.check_forest()

    def test_cycle_in_a_many_component_forest(self):
        # 200 disjoint marked edges, then a triangle among the last ones:
        # the one-pass count names the triangle's component, and only it.
        graph = Graph()
        for k in range(200):
            graph.add_edge(2 * k + 1, 2 * k + 2, k + 1)
        graph.add_edge(401, 402, 500)
        graph.add_edge(402, 403, 501)
        graph.add_edge(401, 403, 502)
        marked = [(2 * k + 1, 2 * k + 2) for k in range(200)]
        forest = SpanningForest(graph, marked=marked)
        forest.check_forest()
        forest.mark(401, 402)
        forest.mark(402, 403)
        forest.check_forest()
        forest.mark(401, 403)
        assert not forest.is_forest()
        message = (
            "component [401, 402, 403] has 3 marked edges; "
            "a tree on 3 nodes must have 2"
        )
        with pytest.raises(ForestError, match=re.escape(message)):
            forest.check_forest()

    def test_is_spanning(self, graph_and_forest):
        _, forest = graph_and_forest
        assert forest.is_spanning()
        forest.unmark(3, 4)
        assert not forest.is_spanning()

    def test_cycle_nodes(self, small_weighted_graph):
        forest = SpanningForest(
            small_weighted_graph,
            marked=[(1, 2), (2, 3), (1, 3), (3, 4)],
        )
        component = forest.component_of(1)
        assert forest.cycle_nodes(component) == [1, 2, 3]

    def test_cycle_nodes_empty_for_tree(self, graph_and_forest):
        _, forest = graph_and_forest
        assert forest.cycle_nodes(forest.component_of(1)) == []

    def test_copy_independent(self, graph_and_forest):
        _, forest = graph_and_forest
        dup = forest.copy()
        dup.unmark(1, 2)
        assert forest.is_marked(1, 2)

    def test_marked_edge_objects_and_weight(self, graph_and_forest):
        _, forest = graph_and_forest
        assert forest.total_marked_weight() == 1 + 2 + 3 + 4 + 5
        assert len(forest.marked_edge_objects()) == 5


# ---------------------------------------------------------------------- #
# bulk fill (constructor ``marked=`` and ``copy``) and the cut query
# ---------------------------------------------------------------------- #
def _random_graph(kind, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 64)
    if kind == "complete":
        return complete_graph(n, seed=seed)
    most = n * (n - 1) // 2
    m = min(most, 2 * n) if kind == "sparse" else max(n - 1, most // 2)
    return random_connected_graph(n, m, seed=seed)


def _random_marks(graph, rng, steps):
    """A random mark/unmark sequence that keeps the marked edges a forest."""
    forest = SpanningForest(graph)
    edges = graph.edges()
    for _ in range(steps):
        marked = sorted(forest.marked_edges)
        if marked and rng.random() < 0.3:
            forest.unmark(*rng.choice(marked))
            continue
        edge = rng.choice(edges)
        if edge.v not in forest.component_of(edge.u):
            forest.mark(edge.u, edge.v)
    return forest


def _marked_one_by_one(graph, keys):
    forest = SpanningForest(graph)
    for key in keys:
        forest.mark(*key)
    return forest


def _assert_same_state(forest, reference):
    graph = reference.graph
    assert forest.marked_edges == reference.marked_edges
    assert forest.num_marked == reference.num_marked
    for node in graph.nodes():
        assert forest.marked_neighbors(node) == reference.marked_neighbors(node)
        assert forest.marked_degree(node) == len(reference.marked_neighbors(node))
    for comp in reference.components():
        assert forest.component_of(min(comp)) == comp
        assert forest.tree_adjacency(comp) == reference.tree_adjacency(comp)
        root = max(comp)
        ours, theirs = forest.rooted_structure(root), reference.rooted_structure(root)
        assert list(ours.parent.items()) == list(theirs.parent.items())
        assert ours.depth == theirs.depth


_CASES = [(kind, seed) for kind in ("sparse", "dense", "complete") for seed in range(4)]


@pytest.mark.parametrize("kind,seed", _CASES)
class TestBulkFill:
    def test_copy_and_marked_equal_mark_by_mark(self, kind, seed):
        graph = _random_graph(kind, seed)
        rng = random.Random(seed)
        source = _random_marks(graph, rng, 3 * graph.num_nodes)
        keys = sorted(source.marked_edges)
        reference = _marked_one_by_one(graph, keys)
        # Arbitrary order, either endpoint first.
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in keys]
        rng.shuffle(shuffled)
        for forest in (source.copy(), SpanningForest(graph, marked=shuffled)):
            _assert_same_state(forest, reference)
            # The initial marks are state, not mutations.
            assert forest.version == 0
            assert forest.journal_since(0) == []
            assert forest.journal_limit == reference.journal_limit

    def test_copy_shares_no_list(self, kind, seed):
        graph = _random_graph(kind, seed)
        source = _random_marks(graph, random.Random(seed), 3 * graph.num_nodes)
        dup = source.copy()
        assert dup._marked is not source._marked
        for node, nbrs in dup._marked_adj.items():
            assert nbrs is not source._marked_adj.get(node)
        before = {node: source.marked_neighbors(node) for node in graph.nodes()}
        for u, v in sorted(dup.marked_edges):
            dup.unmark(u, v)
        for edge in graph.edges()[:8]:
            dup.mark(edge.u, edge.v)
        assert {node: source.marked_neighbors(node) for node in graph.nodes()} == before

    def test_outgoing_edges_match_brute_force(self, kind, seed):
        graph = _random_graph(kind, seed)
        forest = SpanningForest(graph)
        rng = random.Random(seed)
        nodes = graph.nodes()
        subsets = [set(), set(nodes)] + [
            set(rng.sample(nodes, rng.randint(1, len(nodes)))) for _ in range(8)
        ]
        for inside in subsets:
            crossing = [e for e in graph.edges() if (e.u in inside) != (e.v in inside)]
            # Inside endpoint first, then the outside one.
            expected = sorted(
                crossing,
                key=lambda e: (e.u, e.v) if e.u in inside else (e.v, e.u),
            )
            assert forest.outgoing_edges(inside) == expected
            assert forest.outgoing_edges(sorted(inside, reverse=True)) == expected


class TestBulkFillErrors:
    def _mark_message(self, graph, key):
        with pytest.raises(ForestError) as info:
            SpanningForest(graph).mark(*key)
        return str(info.value)

    def test_missing_edge_raises_marks_message(self, triangle_graph):
        message = self._mark_message(triangle_graph, (9, 1))
        assert message == "cannot mark non-existent edge (1, 9)"
        with pytest.raises(ForestError, match=re.escape(message)):
            SpanningForest(triangle_graph, marked=[(1, 2), (9, 1), (2, 3)])

    def test_copy_of_stale_mark_raises(self, triangle_graph):
        forest = SpanningForest(triangle_graph, marked=[(1, 2), (2, 3)])
        triangle_graph.remove_edge(2, 3)
        message = self._mark_message(triangle_graph, (2, 3))
        with pytest.raises(ForestError, match=re.escape(message)):
            forest.copy()

    def test_duplicate_keys_count_once(self, triangle_graph):
        forest = SpanningForest(triangle_graph, marked=[(1, 2), (2, 1), (1, 2), (3, 2)])
        assert forest.num_marked == 2
        assert forest.marked_neighbors(1) == [2]
        assert forest.marked_neighbors(2) == [1, 3]
        assert forest.marked_neighbors(3) == [2]
