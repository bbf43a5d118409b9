"""Tests for broadcast-and-echo: fast executor vs per-node reference protocol.

The key test family here validates the claim in DESIGN.md §4.1: the fast
fragment-level executor charges exactly the messages/bits a genuine per-node
execution of broadcast-and-echo sends, and both compute the same aggregate.
The executor folds the node-local values with a ``Reducer`` in one pass;
the reference protocol combines each node's value with its children's
echoes in arrival order, so agreement for every reducer ``repro.core`` uses
is what licenses the one-pass fold.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.polynomial import product_pair_reducer
from repro.core.sample import k_smallest_reducer
from repro.core.testout import STATS_REDUCER
from repro.generators import random_connected_graph, random_spanning_tree_forest
from repro.network.accounting import MessageAccountant
from repro.network.broadcast import (
    SUM_REDUCER,
    XOR_REDUCER,
    BroadcastEchoExecutor,
    Reducer,
    build_tree_structure,
    delivery_substrate,
    make_substrate,
    run_reference_broadcast_echo,
)
from repro.network.errors import AccountingError, ProtocolError
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph
from repro.network.scheduler import LifoScheduler, RandomScheduler


def _tree_graph():
    """A 7-node tree with two extra non-tree edges."""
    graph = Graph(id_bits=4)
    edges = [(1, 2, 4), (2, 3, 1), (2, 4, 7), (4, 5, 2), (4, 6, 9), (1, 7, 3)]
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    graph.add_edge(3, 5, 20)
    graph.add_edge(6, 7, 30)
    forest = SpanningForest(graph, marked=[(1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (1, 7)])
    return graph, forest


class TestTreeStructure:
    def test_parents_children_depths(self):
        graph, forest = _tree_graph()
        tree = build_tree_structure(forest, root=1)
        assert tree.root == 1
        assert tree.parent[1] is None
        assert tree.parent[3] == 2
        assert sorted(node for node, up in tree.parent.items() if up == 2) == [3, 4]
        assert 3 not in tree.parent.values()
        assert tree.depth[5] == 3
        assert tree.size == 7
        assert tree.num_edges == 6
        assert tree.eccentricity == 3

    def test_invalidate_eccentricity_recomputes(self):
        graph, forest = _tree_graph()
        tree = build_tree_structure(forest, root=1)
        cols = graph.columnar()
        assert tree.eccentricity == 3
        assert sorted(tree.rows(cols)) == [cols.pos[node] for node in tree.nodes]
        for leaf in (5, 6):  # drop the depth-3 leaves, as a patch would
            del tree.parent[leaf], tree.depth[leaf]
        tree.invalidate_memos()
        assert 4 not in tree.parent.values()
        assert tree.eccentricity == 2
        assert sorted(tree.rows(cols)) == [cols.pos[node] for node in tree.nodes]

    def test_row_mask_follows_rows_and_graph_version(self):
        graph, forest = _tree_graph()
        tree = build_tree_structure(forest, root=2)
        cols = graph.columnar()
        mask = tree.row_mask(cols)
        assert tree.row_mask(cols) is mask  # memoised per version
        assert [row for row, bit in enumerate(mask) if bit] == sorted(tree.rows(cols))
        del tree.parent[5], tree.depth[5]
        tree.invalidate_memos()
        assert not tree.row_mask(cols)[cols.pos[5]]
        graph.add_node(8)  # a new version: the mask is rebuilt at its size
        fresh = graph.columnar()
        assert len(tree.row_mask(fresh)) == fresh.num_nodes == 8

    def test_path_from_root(self):
        graph, forest = _tree_graph()
        tree = build_tree_structure(forest, root=1)
        assert tree.path_from_root(5) == [1, 2, 4, 5]
        assert tree.path_from_root(1) == [1]

    def test_unknown_root_rejected(self):
        graph, forest = _tree_graph()
        with pytest.raises(ProtocolError):
            build_tree_structure(forest, root=42)

    def test_structure_covers_only_component(self):
        graph, forest = _tree_graph()
        forest.unmark(2, 4)
        tree = build_tree_structure(forest, root=1)
        assert set(tree.nodes) == {1, 2, 3, 7}


#: Every reducer repro.core aggregates with, and a node-local value drawn for
#: it from an RNG (values lie where the identity is neutral, as the core's do).
HP_PRIME = 1_000_003
REDUCER_CASES = {
    "xor": (XOR_REDUCER, lambda rng: rng.getrandbits(24)),
    "sum": (SUM_REDUCER, lambda rng: rng.randrange(1000)),
    "stats": (
        STATS_REDUCER,
        lambda rng: (1, rng.randrange(1 << 20), rng.randrange(1 << 60), rng.randrange(12)),
    ),
    "hp_pair": (
        product_pair_reducer(HP_PRIME),
        lambda rng: (rng.randrange(HP_PRIME), rng.randrange(HP_PRIME)),
    ),
    "k_smallest": (
        k_smallest_reducer(4),
        lambda rng: sorted(
            (rng.random(), rng.randrange(1 << 16)) for _ in range(rng.randrange(7))
        )[:4],
    ),
}


def local_values_for(case: str, graph, seed: int = 0):
    draw = REDUCER_CASES[case][1]
    return {node: draw(random.Random(seed * 1_000_003 + node)) for node in graph.nodes()}


class TestExecutorAccounting:
    @pytest.mark.parametrize("case", sorted(REDUCER_CASES))
    def test_broadcast_and_echo_counts(self, case):
        graph, forest = _tree_graph()
        reducer = REDUCER_CASES[case][0]
        values = local_values_for(case, graph)
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        total = executor.broadcast_and_echo(
            root=1,
            local_value=values.__getitem__,
            reducer=reducer,
            broadcast_bits=10,
            echo_bits=3,
        )
        expected = reducer.identity
        for node in sorted(graph.nodes()):
            expected = reducer.op(expected, values[node])
        assert total == expected
        assert acct.messages == 2 * (7 - 1)  # broadcast + echo per tree edge
        assert acct.bits == 6 * 10 + 6 * 3
        assert acct.rounds == 2 * 3  # twice the eccentricity
        assert acct.broadcast_echoes == 1

    @pytest.mark.parametrize("substrate", ["plain", "executor", "block"])
    @pytest.mark.parametrize("case", sorted(REDUCER_CASES))
    def test_aggregate_charges_like_the_fold(self, case, substrate):
        # A pre-folded aggregate is returned as given and charged exactly
        # like the fold it replaces, on the plain substrate's one-call
        # charge and on a hardened one, whether the executor holds the
        # substrate or a delivery_substrate block installs it.
        graph, forest = _tree_graph()
        reducer = REDUCER_CASES[case][0]
        values = local_values_for(case, graph)
        bracha = make_substrate("bracha", n=graph.num_nodes)
        held = bracha if substrate == "executor" else None
        installed = bracha if substrate == "block" else None
        accountants = [MessageAccountant(), MessageAccountant()]
        with delivery_substrate(installed):
            folded = BroadcastEchoExecutor(
                graph, forest, accountants[0], substrate=held
            ).broadcast_and_echo(
                2, values.__getitem__, reducer, broadcast_bits=10, echo_bits=3, kind=case
            )
            given_back = BroadcastEchoExecutor(
                graph, forest, accountants[1], substrate=held
            ).broadcast_and_echo(
                2, broadcast_bits=10, echo_bits=3, kind=case, aggregate=folded
            )
        assert given_back == folded
        assert accountants[0].snapshot() == accountants[1].snapshot()
        assert accountants[0].summary() == accountants[1].summary()
        assert accountants[0].broadcast_echoes == 1
        # Root 2 has eccentricity 2 in the 6-edge tree; a hardened hop
        # costs more than the plain one message and one round.
        hardened = substrate != "plain"
        assert (accountants[0].messages > 12) == hardened
        assert (accountants[0].rounds > 4) == hardened
        label = f"{case}:bcast@brb-init" if hardened else f"{case}:bcast"
        assert label in accountants[0].per_kind()

    def test_exactly_one_of_fold_and_aggregate(self):
        graph, forest = _tree_graph()
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        bad_calls = [
            {},
            {"local_value": lambda node: 1},
            {"reducer": SUM_REDUCER},
            {"local_value": lambda node: 1, "reducer": SUM_REDUCER, "aggregate": 7},
            {"reducer": SUM_REDUCER, "aggregate": 7},
        ]
        for kwargs in bad_calls:
            with pytest.raises(ProtocolError):
                executor.broadcast_and_echo(1, broadcast_bits=1, echo_bits=1, **kwargs)
        assert acct.messages == 0 and acct.broadcast_echoes == 0

    def test_sum_counts_tree_size(self):
        graph, forest = _tree_graph()
        executor = BroadcastEchoExecutor(graph, forest, MessageAccountant())
        total = executor.broadcast_and_echo(
            1, lambda node: 1, SUM_REDUCER, broadcast_bits=1, echo_bits=1
        )
        assert total == 7

    def test_broadcast_only_counts(self):
        graph, forest = _tree_graph()
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        executor.broadcast_only(root=1, broadcast_bits=8)
        assert acct.messages == 6
        assert acct.bits == 48
        assert acct.broadcast_echoes == 0

    @pytest.mark.parametrize("form", ["fold", "aggregate"])
    @pytest.mark.parametrize("bits", [8, 0])
    def test_singleton_tree_costs_nothing(self, bits, form):
        # No tree edge, so no message: the bit widths are never checked.
        graph = Graph()
        graph.add_node(1)
        forest = SpanningForest(graph)
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        if form == "fold":
            echo = {"local_value": lambda node: 5, "reducer": SUM_REDUCER}
        else:
            echo = {"aggregate": 5}
        value = executor.broadcast_and_echo(
            root=1, broadcast_bits=bits, echo_bits=bits, **echo
        )
        assert value == 5
        assert (acct.messages, acct.bits, acct.rounds, acct.broadcast_echoes) == (0, 0, 0, 1)
        assert acct.per_kind() == {}

    @pytest.mark.parametrize("form", ["fold", "aggregate", "path_query"])
    @pytest.mark.parametrize("bits", [(0, 8), (8, 0)])
    def test_zero_bit_messages_rejected(self, bits, form):
        # A tree with edges sends messages, and each carries at least a bit.
        graph, forest = _tree_graph()
        executor = BroadcastEchoExecutor(graph, forest, MessageAccountant())
        broadcast_bits, echo_bits = bits
        with pytest.raises(AccountingError, match="a message carries at least one bit"):
            if form == "path_query":
                executor.broadcast_with_downward_state(
                    1, 5, 0, lambda state, parent, child: state,
                    broadcast_bits, echo_bits, lambda node, state: state,
                )
            elif form == "fold":
                executor.broadcast_and_echo(
                    1, lambda node: 1, SUM_REDUCER,
                    broadcast_bits=broadcast_bits, echo_bits=echo_bits,
                )
            else:
                executor.broadcast_and_echo(
                    1, broadcast_bits=broadcast_bits, echo_bits=echo_bits, aggregate=1
                )

    def test_point_to_point_requires_edge(self):
        graph, forest = _tree_graph()
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        executor.point_to_point_along_edge(3, 5, size_bits=8)
        assert acct.messages == 1
        with pytest.raises(ProtocolError):
            executor.point_to_point_along_edge(3, 6, size_bits=8)

    def test_downward_state_propagation(self):
        graph, forest = _tree_graph()
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)

        # Compute, at node 5, the maximum edge weight on the path from root 1.
        def propagate(state, parent, child):
            weight = graph.get_edge(parent, child).weight
            return max(state, weight)

        answer = executor.broadcast_with_downward_state(
            root=1,
            target=5,
            initial_state=0,
            propagate=propagate,
            broadcast_bits=8,
            echo_bits=8,
            collect=lambda node, state: (node, state),
        )
        # Path 1-2-4-5 has weights 4, 7, 2 -> max 7.
        assert answer == (5, 7)
        assert acct.messages == 2 * 6
        assert acct.rounds == 2 * 3


def _heaviest_edge(graph):
    def propagate(state, parent, child):
        edge = graph.get_edge(parent, child)
        weight = edge.augmented_weight(graph.id_bits)
        if state is None or weight > state.augmented_weight(graph.id_bits):
            return edge
        return state

    return propagate


#: Only the target answers the path query: its echo is the one non-None value.
_FIRST_ANSWER = Reducer(lambda a, b: a if a is not None else b, None)


def _two_sweep_path_query(graph, forest, root, target, propagate):
    """The former implementation: carry state to every node, echo the target's."""
    state = {root: None}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child in forest.marked_neighbors(node):
            if child not in state:
                state[child] = propagate(state[node], node, child)
                frontier.append(child)
    return (True, state[target]) if target in state else None


@st.composite
def forest_instances(draw):
    """A random graph, a spanning forest with some tree edges cut, a root."""
    n = draw(st.integers(min_value=1, max_value=18))
    extra = draw(st.integers(min_value=0, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    graph = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed)
    forest = random_spanning_tree_forest(graph, seed=seed + 1)
    marked = sorted(forest.marked_edges)
    cuts = draw(st.integers(min_value=0, max_value=len(marked)))
    for key in random.Random(seed).sample(marked, cuts):
        forest.unmark(*key)
    root = draw(st.sampled_from(graph.nodes()))
    return graph, forest, root, seed


class TestPathWalk:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_two_sweep_for_every_target(self, seed):
        graph = random_connected_graph(24, 60, seed=seed)
        forest = random_spanning_tree_forest(graph, seed=seed + 10)
        forest.unmark(*sorted(forest.marked_edges)[seed + 3])  # two components
        propagate = _heaviest_edge(graph)
        root = graph.nodes()[seed]
        tree = forest.rooted_structure(root)
        for target in graph.nodes():
            acct = MessageAccountant()
            executor = BroadcastEchoExecutor(graph, forest, acct)
            answer = executor.broadcast_with_downward_state(
                root=root,
                target=target,
                initial_state=None,
                propagate=propagate,
                broadcast_bits=11,
                echo_bits=13,
                collect=lambda _node, heaviest: (True, heaviest),
                tree=tree,
                kind="path_query",
            )
            assert answer == _two_sweep_path_query(graph, forest, root, target, propagate)
            if target == root:
                assert answer == (True, None)
            if target not in tree.parent:
                assert answer is None
            # The charge is the full B&E whatever the target.
            assert acct.broadcast_echoes == 1
            assert acct.per_kind() == {
                "path_query:bcast": tree.num_edges,
                "path_query:echo": tree.num_edges,
            }
            assert acct.bits == tree.num_edges * (11 + 13)
            assert acct.rounds == 2 * tree.eccentricity

    @pytest.mark.parametrize("engine", ["sync", "async"])
    @given(forest_instances())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_matches_message_level_twin(self, engine, instance):
        """Every target (the root, inside the tree, outside it) on both engines."""
        graph, forest, root, seed = instance
        propagate = _heaviest_edge(graph)
        tree = forest.rooted_structure(root)
        for target in graph.nodes():
            acct = MessageAccountant()
            answer = BroadcastEchoExecutor(graph, forest, acct).broadcast_with_downward_state(
                root=root,
                target=target,
                initial_state=None,
                propagate=propagate,
                broadcast_bits=11,
                echo_bits=13,
                collect=lambda _node, heaviest: (True, heaviest),
                tree=tree,
            )
            expected, reference_acct = run_reference_broadcast_echo(
                graph, forest, root, local_values=None, reducer=_FIRST_ANSWER,
                broadcast_bits=11, echo_bits=13, engine=engine,
                scheduler=RandomScheduler(seed=seed) if engine == "async" else None,
                collect=lambda node, heaviest: (True, heaviest) if node == target else None,
                propagate=propagate,
            )
            assert answer == expected
            assert acct.messages == reference_acct.messages
            assert acct.bits == reference_acct.bits


def assert_executor_matches_reference(graph, forest, root, case, seed, engine):
    reducer = REDUCER_CASES[case][0]
    local_values = local_values_for(case, graph, seed)
    scheduler = RandomScheduler(seed=seed) if engine == "async" else None
    expected, reference_acct = run_reference_broadcast_echo(
        graph, forest, root, local_values, reducer,
        broadcast_bits=7, echo_bits=11, engine=engine, scheduler=scheduler,
    )
    acct = MessageAccountant()
    value = BroadcastEchoExecutor(graph, forest, acct).broadcast_and_echo(
        root, local_values.__getitem__, reducer, broadcast_bits=7, echo_bits=11,
        kind=case,
    )
    assert value == expected
    assert acct.messages == reference_acct.messages
    assert acct.bits == reference_acct.bits
    assert acct.messages == 2 * (len(forest.component_of(root)) - 1)


@pytest.mark.parametrize("engine", ["sync", "async"])
@pytest.mark.parametrize("case", sorted(REDUCER_CASES))
class TestReducerEquivalence:
    @given(forest_instances())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_random_forests(self, case, engine, instance):
        graph, forest, root, seed = instance
        assert_executor_matches_reference(graph, forest, root, case, seed, engine)

    def test_singleton_tree(self, case, engine):
        graph = Graph()
        graph.add_node(1)
        graph.add_edge(2, 3, 4)
        forest = random_spanning_tree_forest(graph, seed=0)
        assert_executor_matches_reference(graph, forest, 1, case, 5, engine)

    def test_root_inside_small_component(self, case, engine):
        graph = random_connected_graph(16, 30, seed=8)
        forest = random_spanning_tree_forest(graph, seed=9)
        for key in sorted(forest.marked_edges)[::2]:
            forest.unmark(*key)
        small = min((c for c in forest.components() if len(c) >= 2), key=len)
        assert len(small) < graph.num_nodes
        assert_executor_matches_reference(graph, forest, min(small), case, 6, engine)


class TestReferenceProtocolAgreement:
    @pytest.mark.parametrize("engine", ["sync", "async"])
    def test_same_aggregate_and_message_count(self, engine):
        graph, forest = _tree_graph()
        local_values = {node: node * node for node in graph.nodes()}

        reference_value, reference_acct = run_reference_broadcast_echo(
            graph, forest, root=1, local_values=local_values, reducer=SUM_REDUCER,
            broadcast_bits=9, echo_bits=5, engine=engine,
        )

        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        fast_value = executor.broadcast_and_echo(
            root=1,
            local_value=lambda node: local_values[node],
            reducer=SUM_REDUCER,
            broadcast_bits=9,
            echo_bits=5,
        )
        assert fast_value == reference_value
        assert acct.messages == reference_acct.messages
        assert acct.bits == reference_acct.bits

    @pytest.mark.parametrize(
        "scheduler_factory", [lambda: RandomScheduler(seed=5), LifoScheduler]
    )
    def test_async_schedule_independence(self, scheduler_factory):
        graph, forest = _tree_graph()
        local_values = {node: node for node in graph.nodes()}

        value, acct = run_reference_broadcast_echo(
            graph, forest, root=2, local_values=local_values, reducer=SUM_REDUCER,
            broadcast_bits=4, echo_bits=4, engine="async",
            scheduler=scheduler_factory(),
        )
        assert value == sum(graph.nodes())
        assert acct.messages == 2 * 6

    def test_root_only_component_participates(self):
        graph, forest = _tree_graph()
        forest.unmark(2, 4)   # split {1,2,3,7} / {4,5,6}
        local_values = {node: 1 for node in graph.nodes()}

        value, acct = run_reference_broadcast_echo(
            graph, forest, root=1, local_values=local_values, reducer=SUM_REDUCER,
            broadcast_bits=4, echo_bits=4,
        )
        assert value == 4
        assert acct.messages == 2 * 3

    @pytest.mark.parametrize("values", [None, {1: 1}])
    def test_exactly_one_of_local_values_and_collect(self, values):
        graph, forest = _tree_graph()
        collect = None if values is None else (lambda node, state: 1)
        with pytest.raises(ProtocolError, match="either local_values or collect="):
            run_reference_broadcast_echo(
                graph, forest, 1, values, SUM_REDUCER, broadcast_bits=1, echo_bits=1,
                collect=collect,
            )
