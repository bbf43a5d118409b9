"""Property-based tests for MST construction (distributed vs sequential)."""

import random

from hypothesis import given, settings, strategies as st

from repro.baselines.sequential import boruvka_mst, kruskal_mst, mst_edge_keys, prim_mst
from repro.core.build_mst import BuildMST
from repro.core.build_st import BuildST
from repro.core.config import AlgorithmConfig
from repro.network.graph import Graph, edge_key
from repro.verify import is_minimum_spanning_forest, is_spanning_forest


@st.composite
def random_graphs(draw, max_nodes=14, max_extra_edges=20):
    """Connected-ish random graphs with distinct weights (may be disconnected)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = random.Random(seed)
    graph = Graph(id_bits=6)
    for node in range(1, n + 1):
        graph.add_node(node)
    keys = set()
    # random tree over a random subset of the nodes to get interesting shapes
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    attach_upto = draw(st.integers(min_value=1, max_value=n))
    for index in range(1, attach_upto):
        parent = nodes[rng.randrange(index)]
        keys.add(edge_key(parent, nodes[index]))
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for _ in range(extra):
        u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if u != v:
            keys.add(edge_key(u, v))
    weights = list(range(1, len(keys) + 1))
    rng.shuffle(weights)
    for key, weight in zip(sorted(keys), weights):
        graph.add_edge(key[0], key[1], weight)
    return graph, seed


class TestSequentialAgreement:
    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_kruskal_prim_boruvka_agree(self, graph_and_seed):
        graph, _ = graph_and_seed
        kruskal = mst_edge_keys(kruskal_mst(graph))
        assert kruskal == mst_edge_keys(prim_mst(graph))
        assert kruskal == mst_edge_keys(boruvka_mst(graph))

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_mst_edge_count(self, graph_and_seed):
        graph, _ = graph_and_seed
        mst = kruskal_mst(graph)
        assert len(mst) == graph.num_nodes - len(graph.connected_components())


class TestDistributedConstruction:
    @given(random_graphs(max_nodes=12, max_extra_edges=14))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_build_mst_matches_kruskal(self, graph_and_seed):
        graph, seed = graph_and_seed
        config = AlgorithmConfig(n=graph.num_nodes, seed=seed, c=3.0)
        report = BuildMST(graph, config=config).run()
        assert report.marked_edges == mst_edge_keys(kruskal_mst(graph))
        assert is_minimum_spanning_forest(report.forest)

    @given(random_graphs(max_nodes=12, max_extra_edges=14))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_build_st_spans(self, graph_and_seed):
        graph, seed = graph_and_seed
        config = AlgorithmConfig(n=graph.num_nodes, seed=seed, c=3.0)
        report = BuildST(graph, config=config).run()
        assert is_spanning_forest(report.forest)
        report.forest.check_forest()

    @given(random_graphs(max_nodes=10, max_extra_edges=10))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_cut_and_cycle_properties(self, graph_and_seed):
        """The classic MST certificates hold for the constructed tree."""
        graph, seed = graph_and_seed
        config = AlgorithmConfig(n=graph.num_nodes, seed=seed, c=3.0)
        report = BuildMST(graph, config=config).run()
        forest = report.forest
        id_bits = graph.id_bits
        # Cycle property: every non-tree edge is the heaviest edge on the
        # cycle it closes (equivalently: heavier than every tree edge on the
        # path between its endpoints).
        from repro.network.broadcast import build_tree_structure

        for edge in graph.edges():
            if forest.is_marked(edge.u, edge.v):
                continue
            if edge.v not in forest.component_of(edge.u):
                continue
            tree = build_tree_structure(forest, edge.u)
            path = tree.path_from_root(edge.v)
            path_edges = [
                graph.get_edge(a, b) for a, b in zip(path, path[1:])
            ]
            assert all(
                pe.augmented_weight(id_bits) < edge.augmented_weight(id_bits)
                for pe in path_edges
            )
