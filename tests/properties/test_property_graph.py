"""Property-based tests (hypothesis) for the graph and forest data structures."""

from hypothesis import given, settings, strategies as st

from repro.network.fragments import SpanningForest
from repro.network.graph import Graph, edge_key


# Strategy: a list of distinct undirected edges over node IDs 1..12 with
# positive weights.
def edge_lists(max_nodes=12, max_edges=30):
    pair = st.tuples(
        st.integers(min_value=1, max_value=max_nodes),
        st.integers(min_value=1, max_value=max_nodes),
    ).filter(lambda t: t[0] != t[1]).map(lambda t: edge_key(*t))
    return st.lists(pair, max_size=max_edges, unique=True).flatmap(
        lambda keys: st.tuples(
            st.just(keys),
            st.lists(
                st.integers(min_value=1, max_value=1000),
                min_size=len(keys),
                max_size=len(keys),
            ),
        )
    )


def build_graph(keys_and_weights):
    keys, weights = keys_and_weights
    graph = Graph(id_bits=6)
    for (u, v), w in zip(keys, weights):
        graph.add_edge(u, v, w)
    return graph


class TestGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_edge_count_and_degree_sum(self, keys_and_weights):
        graph = build_graph(keys_and_weights)
        assert sum(graph.degree(v) for v in graph.nodes()) == 2 * graph.num_edges

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_edge_numbers_are_unique_and_invertible(self, keys_and_weights):
        graph = build_graph(keys_and_weights)
        numbers = {}
        for edge in graph.edges():
            number = edge.edge_number(graph.id_bits)
            assert number not in numbers
            numbers[number] = edge
            assert graph.edge_from_number(number) == edge

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_augmented_weights_are_unique_and_order_refines_weight(self, keys_and_weights):
        graph = build_graph(keys_and_weights)
        edges = graph.edges()
        augs = [e.augmented_weight(graph.id_bits) for e in edges]
        assert len(set(augs)) == len(augs)
        for e1, a1 in zip(edges, augs):
            for e2, a2 in zip(edges, augs):
                if e1.weight < e2.weight:
                    assert a1 < a2

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_copy_roundtrip(self, keys_and_weights):
        graph = build_graph(keys_and_weights)
        dup = graph.copy()
        assert dup.nodes() == graph.nodes()
        assert [(e.u, e.v, e.weight) for e in dup.edges()] == [
            (e.u, e.v, e.weight) for e in graph.edges()
        ]

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_components_partition_nodes(self, keys_and_weights):
        graph = build_graph(keys_and_weights)
        components = graph.connected_components()
        all_nodes = [node for component in components for node in component]
        assert sorted(all_nodes) == graph.nodes()


class TestForestProperties:
    @given(edge_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_greedy_acyclic_marking_is_a_forest(self, keys_and_weights, rng):
        """Marking edges greedily while avoiding cycles keeps is_forest true."""
        graph = build_graph(keys_and_weights)
        forest = SpanningForest(graph)
        edges = graph.edges()
        rng.shuffle(edges)
        for edge in edges:
            if edge.v not in forest.component_of(edge.u):
                forest.mark(edge.u, edge.v)
        assert forest.is_forest()
        assert forest.is_spanning()
        # a spanning forest has n - (#components) edges
        assert forest.num_marked == graph.num_nodes - len(graph.connected_components())

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_component_of_is_an_equivalence(self, keys_and_weights):
        graph = build_graph(keys_and_weights)
        forest = SpanningForest(graph)
        # Mark every edge whose endpoints' IDs are both even (arbitrary subset,
        # may create cycles -> use only membership queries, not invariants).
        for edge in graph.edges():
            if edge.u % 2 == 0 and edge.v % 2 == 0:
                forest.mark(edge.u, edge.v)
        for node in graph.nodes():
            component = forest.component_of(node)
            assert node in component
            for other in component:
                assert forest.component_of(other) == component
