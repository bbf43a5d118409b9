"""Property-based tests for impromptu repair under random update sequences."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.build_mst import BuildMST
from repro.core.build_st import BuildST
from repro.core.config import AlgorithmConfig
from repro.dynamic import EdgeUpdate, TreeMaintainer
from repro.generators import random_connected_graph
from repro.network.graph import edge_key
from repro.verify import is_minimum_spanning_forest, is_spanning_forest


@st.composite
def update_scripts(draw):
    """A seed plus a short random script of update actions."""
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    actions = draw(
        st.lists(
            st.sampled_from(["delete_tree", "delete_any", "insert", "increase", "decrease"]),
            min_size=1,
            max_size=8,
        )
    )
    return seed, actions


def _apply_script(graph, forest, maintainer, actions, rng):
    """Apply the scripted actions, returning early if the graph runs dry."""
    next_weight = 10 ** 6  # fresh weights for inserts, always unique
    for action in actions:
        marked = sorted(forest.marked_edges)
        all_edges = graph.edges()
        if action == "delete_tree" and marked:
            key = marked[rng.randrange(len(marked))]
            maintainer.apply(EdgeUpdate.delete(*key))
        elif action == "delete_any" and all_edges:
            edge = all_edges[rng.randrange(len(all_edges))]
            maintainer.apply(EdgeUpdate.delete(edge.u, edge.v))
        elif action == "insert":
            nodes = graph.nodes()
            for _ in range(30):
                u, v = rng.randrange(len(nodes)), rng.randrange(len(nodes))
                if u != v and not graph.has_edge(nodes[u], nodes[v]):
                    next_weight += rng.randrange(1, 50)
                    maintainer.apply(EdgeUpdate.insert(nodes[u], nodes[v], weight=next_weight))
                    break
        elif action == "increase" and all_edges:
            edge = all_edges[rng.randrange(len(all_edges))]
            maintainer.apply(
                EdgeUpdate.increase_weight(edge.u, edge.v, edge.weight + rng.randrange(1, 100))
            )
        elif action == "decrease" and all_edges:
            edge = all_edges[rng.randrange(len(all_edges))]
            new_weight = max(0, edge.weight - rng.randrange(1, 100))
            if new_weight < edge.weight:
                maintainer.apply(EdgeUpdate.decrease_weight(edge.u, edge.v, new_weight))


def _maintainer(graph, forest, seed, mode):
    config = AlgorithmConfig(n=12, seed=seed + 1, c=3.0)
    return TreeMaintainer(graph, forest, mode=mode, config=config)


class TestMSTRepairProperties:
    @given(update_scripts())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_mst_invariant_maintained(self, script):
        seed, actions = script
        rng = random.Random(seed)
        graph = random_connected_graph(12, 30, seed=seed)
        report = BuildMST(graph, config=AlgorithmConfig(n=12, seed=seed, c=3.0)).run()
        maintainer = _maintainer(graph, report.forest, seed, "mst")
        _apply_script(graph, report.forest, maintainer, actions, rng)
        assert is_minimum_spanning_forest(report.forest)

    @given(update_scripts())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_st_invariant_maintained(self, script):
        seed, actions = script
        rng = random.Random(seed)
        graph = random_connected_graph(12, 30, seed=seed)
        report = BuildST(graph, config=AlgorithmConfig(n=12, seed=seed, c=3.0)).run()
        maintainer = _maintainer(graph, report.forest, seed, "st")
        _apply_script(graph, report.forest, maintainer, actions, rng)
        assert is_spanning_forest(report.forest)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_delete_then_reinsert_restores_the_same_mst(self, seed):
        graph = random_connected_graph(12, 30, seed=seed % 1000)
        report = BuildMST(graph, config=AlgorithmConfig(n=12, seed=seed, c=3.0)).run()
        before = set(report.forest.marked_edges)
        maintainer = _maintainer(graph, report.forest, seed, "mst")
        rng = random.Random(seed)
        key = sorted(before)[rng.randrange(len(before))]
        weight = graph.get_edge(*key).weight
        maintainer.apply(EdgeUpdate.delete(*key))
        maintainer.apply(EdgeUpdate.insert(key[0], key[1], weight))
        # The MST of the (unchanged) graph is unique, so it must come back.
        assert report.forest.marked_edges == before
