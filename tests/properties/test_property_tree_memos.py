"""Property test: a cached tree's sketch memos follow every graph and tree change.

On the fast path a rooted tree memoises its statistics tuple and its cut
column, whatever its size.  Both live for one graph
version and one tree shape: an edge insertion, deletion or weight change
splices a new columnar snapshot with a new version, and a mark or unmark
that reaches the tree patches the cached structure in place.  Starting from
a cached covering tree, after each such change the memos must equal a
brute-force recomputation, and FindMin, FindAny and HP-TestOut must answer
exactly as on the reference tier, counters included.
"""

from hypothesis import given, settings, strategies as st

from repro import fastpath
from repro.core.config import AlgorithmConfig
from repro.core.findany import FindAny
from repro.core.findmin import FindMin
from repro.core.testout import CutTester
from repro.generators import random_connected_graph, random_spanning_tree_forest
from repro.network.accounting import MessageAccountant
from repro.network.columnar import CutColumn

OPS = ("add", "remove", "set_weight", "graft", "detach")


def brute_statistics(graph, nodes):
    """``(size, maxEdgeNum, maxWt, B)`` of ``nodes`` from the graph's edge list."""
    id_bits = graph.id_bits
    incident = [edge for node in nodes for edge in graph.incident_edges(node)]
    return (
        len(nodes),
        max((edge.edge_number(id_bits) for edge in incident), default=0),
        max((edge.augmented_weight(id_bits) for edge in incident), default=0),
        len(incident),
    )


def brute_cut(graph, nodes):
    """The cut column of ``nodes`` from the graph's edge list."""
    id_bits = graph.id_bits
    cut = sorted(
        (edge.augmented_weight(id_bits), edge.edge_number(id_bits), int(edge.u in nodes))
        for edge in graph.edges()
        if (edge.u in nodes) != (edge.v in nodes)
    )
    return CutColumn(
        aug=[aug for aug, _, _ in cut],
        numbers=[number for _, number, _ in cut],
        up=bytes(up for _, _, up in cut),
    )


def answers(graph, forest, root, seed):
    """FindMin's and FindAny's edges, HP-TestOut's answer and their counters."""
    n = graph.num_nodes
    acct = MessageAccountant()
    found_min = FindMin(graph, forest, AlgorithmConfig(n=n, seed=seed), acct).find_min(root)
    found_any = FindAny(graph, forest, AlgorithmConfig(n=n, seed=seed + 1), acct).find_any(root)
    hp = CutTester(graph, forest, AlgorithmConfig(n=n, seed=seed + 2), acct).hp_test_out(root)
    edges = [
        None if found.edge is None else found.edge.endpoints
        for found in (found_min, found_any)
    ]
    return edges, hp, (acct.messages, acct.bits, acct.rounds, acct.broadcast_echoes)


def apply(op, pick, graph, forest, tree):
    """Apply ``op`` with choices drawn by ``pick(sequence)``; False if impossible."""
    inside = tree.parent
    if op == "add":
        absent = [
            (u, v)
            for u in graph.nodes()
            for v in graph.nodes()
            if u < v and not graph.has_edge(u, v)
        ]
        if not absent:
            return False
        graph.add_edge(*pick(absent), weight=pick(range(1, 1 << 12)))
    elif op == "remove":
        unmarked = [e for e in graph.edges() if not forest.is_marked(e.u, e.v)]
        if not unmarked:
            return False
        edge = pick(unmarked)
        graph.remove_edge(edge.u, edge.v)
    elif op == "set_weight":
        edge = pick(graph.edges())
        graph.set_weight(edge.u, edge.v, weight=pick(range(1, 1 << 12)))
    elif op == "graft":
        # Mark an edge leaving the tree: its far side is grafted on.
        leaving = [
            e
            for e in graph.edges()
            if (e.u in inside) != (e.v in inside) and not forest.is_marked(e.u, e.v)
        ]
        if not leaving:
            return False
        edge = pick(leaving)
        forest.mark(edge.u, edge.v)
    else:
        # Unmark the edge above a leaf: the leaf is detached.
        leaves = [node for node, kids in tree.children.items() if not kids and node != tree.root]
        if not leaves:
            return False
        leaf = pick(leaves)
        forest.unmark(leaf, inside[leaf])
    return True


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=16),
    extra=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=10**6),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=8),
    data=st.data(),
)
def test_memos_follow_graph_and_tree_changes(n, extra, seed, ops, data):
    graph = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed)
    forest = random_spanning_tree_forest(graph, seed=seed + 1)
    # Cut one leaf off so the root's tree covers the graph but has a cut.
    root = min(graph.nodes())
    tree = forest.rooted_structure(root)
    leaf = max(node for node, kids in tree.children.items() if not kids)
    forest.unmark(leaf, tree.parent[leaf])

    def pick(sequence):
        return data.draw(st.sampled_from(list(sequence)))

    with fastpath.fast_path():
        tree = forest.rooted_structure(root)
        for step, op in enumerate([None] + ops):
            if op is not None and not apply(op, pick, graph, forest, tree):
                continue
            # Graph changes hit the cache; tree changes patch the same object.
            assert forest.rooted_structure(root) is tree
            cols = graph.columnar()
            nodes = set(tree.parent)
            assert tree.statistics(cols) == brute_statistics(graph, nodes)
            assert tree.cut_column(cols) == brute_cut(graph, nodes)
            fast = answers(graph, forest, root, seed + step)
            with fastpath.reference_path():
                assert answers(graph, forest, root, seed + step) == fast
