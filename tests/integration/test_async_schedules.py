"""Asynchrony integration tests.

Theorem 1.2 is stated for asynchronous networks.  The repair algorithms are
sequences of broadcast-and-echoes, which are self-synchronizing; these tests
run the underlying message-level primitives and the flooding baseline under
adversarial delivery schedules and check that results (and message counts,
where deterministic) do not depend on the schedule.
"""

import pytest

from repro.baselines.flooding_st import flooding_spanning_tree
from repro.generators import random_connected_graph, random_spanning_tree_forest
from repro.network.broadcast import SUM_REDUCER, Reducer, run_reference_broadcast_echo
from repro.network.scheduler import (
    EdgeDelayScheduler,
    FifoScheduler,
    LifoScheduler,
    RandomScheduler,
)
from repro.verify import is_spanning_forest

SCHEDULERS = [
    ("fifo", FifoScheduler),
    ("lifo", LifoScheduler),
    ("random", lambda: RandomScheduler(seed=13)),
    ("edge-delay", lambda: EdgeDelayScheduler(default_delay=3)),
]


class TestBroadcastEchoUnderAdversaries:
    @pytest.mark.parametrize("name,factory", SCHEDULERS, ids=[s[0] for s in SCHEDULERS])
    def test_aggregate_independent_of_schedule(self, name, factory):
        graph = random_connected_graph(20, 45, seed=3)
        forest = random_spanning_tree_forest(graph, seed=3)
        local_values = {node: node * 3 for node in graph.nodes()}

        value, acct = run_reference_broadcast_echo(
            graph,
            forest,
            root=1,
            local_values=local_values,
            reducer=SUM_REDUCER,
            broadcast_bits=8,
            echo_bits=8,
            engine="async",
            scheduler=factory(),
        )
        assert value == sum(local_values.values())
        # Exactly one broadcast + one echo per tree edge, whatever the order.
        assert acct.messages == 2 * (graph.num_nodes - 1)

    @pytest.mark.parametrize("name,factory", SCHEDULERS, ids=[s[0] for s in SCHEDULERS])
    def test_min_aggregation_under_adversaries(self, name, factory):
        graph = random_connected_graph(16, 40, seed=4)
        forest = random_spanning_tree_forest(graph, seed=4)
        local_values = {node: 1000 - node for node in graph.nodes()}

        value, _ = run_reference_broadcast_echo(
            graph, forest, root=2, local_values=local_values,
            reducer=Reducer(min, float("inf")),
            broadcast_bits=4, echo_bits=12, engine="async", scheduler=factory(),
        )
        assert value == min(local_values.values())


class TestFloodingUnderAdversaries:
    @pytest.mark.parametrize("name,factory", SCHEDULERS, ids=[s[0] for s in SCHEDULERS])
    def test_flooding_always_spans(self, name, factory):
        graph = random_connected_graph(22, 70, seed=5)
        forest, acct = flooding_spanning_tree(
            graph, engine="async", scheduler=factory()
        )
        assert is_spanning_forest(forest)
        m = graph.num_edges
        assert m <= acct.messages <= 2 * m
