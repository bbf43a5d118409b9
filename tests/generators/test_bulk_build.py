"""Every generated or rebuilt graph is filled by one :meth:`Graph.from_edges`.

Each builder is run twice, once as it is and once with ``from_edges``
replaced by the edge-by-edge build it must equal (``add_node`` over the
nodes, then ``add_edge`` over the edges), and the two graphs are compared
in everything a caller can see: nodes and edges, adjacency insertion order,
shared :class:`Edge` objects, :attr:`Graph.version` and the columnar
snapshot, column for column, on both sides of ``fits64``.
"""

import random

import pytest

from repro.api import DENSITY_PROFILES, WEIGHT_MODELS, ExperimentSpec, GraphSpec
from repro.byzantine.bracha import complete_graph as bracha_group
from repro.dynamic.trace import UpdateTrace
from repro.dynamic.updates import UpdateStream
from repro.dynamic.workloads import random_churn
from repro.fuzz.oracles import restore_final_state, run_recorded
from repro.generators import (
    circulant_expander,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_connected_graph,
    random_geometric_graph,
    random_spanning_tree_forest,
    star_graph,
)
from repro.generators.random_graphs import _fill_pairs
from repro.network.columnar import ColumnarGraph
from repro.network.graph import Graph


def _edge_by_edge(cls, id_bits, nodes, edges):
    graph = cls(id_bits)
    for node in nodes:
        graph.add_node(node)
    for u, v, weight in edges:
        graph.add_edge(u, v, weight)
    return graph


def _both_ways(monkeypatch, build):
    """``build()`` with the bulk constructor, then with the edge-by-edge one."""
    bulk = build()
    with monkeypatch.context() as patch:
        patch.setattr(Graph, "from_edges", classmethod(_edge_by_edge))
        slow = build()
    return bulk, slow


def _columns(graph):
    cols = graph.columnar()
    return {name: getattr(cols, name) for name in ColumnarGraph.__slots__}


def _assert_same(bulk, slow):
    assert type(bulk) is type(slow) is Graph
    assert bulk.id_bits == slow.id_bits
    assert bulk.version == slow.version
    assert list(bulk._adj) == list(slow._adj)
    for node, row in slow._adj.items():
        assert list(bulk._adj[node].items()) == list(row.items())
        for other, edge in bulk._adj[node].items():
            assert bulk._adj[other][node] is edge
    assert bulk.edges() == slow.edges()
    assert bulk._columnar_cache is None and slow._columnar_cache is None
    assert _columns(bulk) == _columns(slow)


def _assert_same_on_both_fits64_sides(monkeypatch, graph_of):
    bulk, slow = _both_ways(monkeypatch, graph_of)
    _assert_same(bulk, slow)
    assert bulk.columnar().fits64
    # The same nodes and edges with weights past 64 bits build list columns.
    heavy = [(e.u, e.v, e.weight << 64) for e in slow.edges()]
    bulk, slow = _both_ways(
        monkeypatch, lambda: Graph.from_edges(slow.id_bits, slow.nodes(), heavy)
    )
    _assert_same(bulk, slow)
    # (An edgeless graph has no weight to push past 64 bits.)
    assert bulk.columnar().fits64 == (not heavy)


GENERATORS = {
    "gnp": lambda s, w: gnp_random_graph(20, 0.3, seed=s, max_weight=w),
    "gnp-empty": lambda s, w: gnp_random_graph(6, 0.0, seed=s, max_weight=w),
    "gnm": lambda s, w: gnm_random_graph(20, 60, seed=s, max_weight=w),
    "random_connected": lambda s, w: random_connected_graph(24, 70, seed=s, max_weight=w),
    "geometric": lambda s, w: random_geometric_graph(20, 0.4, seed=s, max_weight=w),
    "path": lambda s, w: path_graph(9, seed=s, max_weight=w),
    "cycle": lambda s, w: cycle_graph(9, seed=s, max_weight=w),
    "star": lambda s, w: star_graph(9, seed=s, max_weight=w),
    "complete": lambda s, w: complete_graph(12, seed=s, max_weight=w),
    "single": lambda s, w: complete_graph(1, seed=s, max_weight=w),
    "grid": lambda s, w: grid_graph(3, 5, seed=s, max_weight=w),
    "hypercube": lambda s, w: hypercube_graph(4, seed=s, max_weight=w),
    "circulant": lambda s, w: circulant_expander(15, seed=s, max_weight=w),
}


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("max_weight", [None, 3])
    def test_bulk_equals_edge_by_edge(self, monkeypatch, name, seed, max_weight):
        _assert_same_on_both_fits64_sides(
            monkeypatch, lambda: GENERATORS[name](seed, max_weight)
        )

    @pytest.mark.parametrize("density", sorted(DENSITY_PROFILES))
    @pytest.mark.parametrize("weight_model", WEIGHT_MODELS)
    @pytest.mark.parametrize("seed", [1, 4])
    def test_every_spec(self, monkeypatch, density, weight_model, seed):
        spec = GraphSpec(24, density, weight_model=weight_model, seed=seed)
        # The uniform and adversarial models re-weight the built graph
        # edge by edge, so versions past the build must agree as well.
        _assert_same_on_both_fits64_sides(monkeypatch, spec.build)


class TestOtherBuilders:
    @pytest.mark.parametrize("seed", range(3))
    def test_subgraph(self, monkeypatch, seed):
        graph = random_connected_graph(30, 80, seed=seed)
        graph.add_node(31)
        keep = random.Random(seed).sample(graph.nodes(), 18) + [31]
        _assert_same(*_both_ways(monkeypatch, lambda: graph.subgraph(keep)))

    @pytest.mark.parametrize("seed", range(3))
    def test_trace_rebuild(self, monkeypatch, seed):
        graph = random_connected_graph(20, 50, seed=seed)
        forest = random_spanning_tree_forest(graph, seed=seed)
        stream = UpdateStream(random_churn(graph, count=4, seed=seed))
        trace = UpdateTrace.from_json(UpdateTrace.record(graph, forest, stream).to_json())
        (bulk, bulk_forest), (slow, slow_forest) = _both_ways(
            monkeypatch, trace.rebuild_initial_state
        )
        _assert_same(bulk, slow)
        assert bulk_forest.marked_edges == slow_forest.marked_edges

    def test_fuzz_snapshot_restore(self, monkeypatch):
        spec = ExperimentSpec(graph=GraphSpec(nodes=12, density="medium", seed=3))
        result = run_recorded("kkt-mst", spec)
        (bulk, bulk_forest), (slow, slow_forest) = _both_ways(
            monkeypatch, lambda: restore_final_state(result)
        )
        _assert_same(bulk, slow)
        assert bulk_forest.marked_edges == slow_forest.marked_edges

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_bracha_group(self, monkeypatch, n):
        _assert_same(*_both_ways(monkeypatch, lambda: bracha_group(n, weight=3)))


def _randrange_pairs(chosen, n, m, rng):
    """The extra-edge loop as it was written with ``randrange``: the oracle."""
    while len(chosen) < m:
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return sorted(chosen)


class TestInlineDraw:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 9, 31, 32, 33, 256])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("start", ["empty", "path"])
    def test_equals_the_randrange_loop(self, n, seed, start):
        max_edges = n * (n - 1) // 2
        for m in sorted({1, max_edges // 2, max_edges if n < 64 else n * (n - 1) // 4}):
            chosen = {(i, i + 1) for i in range(1, n)} if start == "path" else set()
            inline_rng, oracle_rng = random.Random(seed), random.Random(seed)
            assert _fill_pairs(set(chosen), n, m, inline_rng) == _randrange_pairs(
                set(chosen), n, m, oracle_rng
            )
            assert inline_rng.getstate() == oracle_rng.getstate()


class TestSnapshotStaysLazy:
    """No build seeds the snapshot: re-weighting would splice it once per edge."""

    @pytest.fixture
    def snapshot_calls(self, monkeypatch):
        calls = []
        from_graph = ColumnarGraph.from_graph
        spliced = ColumnarGraph.spliced

        def counted_from_graph(graph):
            calls.append("from_graph")
            return from_graph(graph)

        def counted_spliced(self, *args):
            calls.append("spliced")
            return spliced(self, *args)

        monkeypatch.setattr(ColumnarGraph, "from_graph", staticmethod(counted_from_graph))
        monkeypatch.setattr(ColumnarGraph, "spliced", counted_spliced)
        return calls

    @pytest.mark.parametrize("density", sorted(DENSITY_PROFILES))
    @pytest.mark.parametrize("weight_model", WEIGHT_MODELS)
    def test_spec_build_reads_no_snapshot(self, snapshot_calls, density, weight_model):
        graph = GraphSpec(24, density, weight_model=weight_model, seed=2).build()
        assert snapshot_calls == []
        # The spies do see the first read and a later splice.
        graph.columnar()
        edge = graph.edges()[0]
        graph.set_weight(edge.u, edge.v, edge.weight + 1)
        assert snapshot_calls == ["from_graph", "spliced", "spliced"]
