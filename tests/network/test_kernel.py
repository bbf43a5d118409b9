"""Unit tests for the unified event kernel and its fault boundary.

The kernel itself is mostly exercised through its two facades (see
``test_sync_simulator.py`` / ``test_async_simulator.py``, whose pinned
error messages now come from the single shared implementation); the tests
here cover what is new: the synchrony policy objects, and deterministic
fault injection at the delivery boundary on both engines.
"""

import pytest

import repro
from repro.baselines.flooding_st import flooding_spanning_tree
from repro.byzantine import run_bracha_broadcast
from repro.core.hashing import OddHashFunction
from repro.generators import random_connected_graph, random_spanning_tree_forest
from repro.network.accounting import MessageAccountant
from repro.network.async_simulator import AsynchronousSimulator
from repro.network.broadcast import SUM_REDUCER, run_reference_broadcast_echo
from repro.network.errors import SimulationError
from repro.network.faults import DELIVER, DROP, FaultEvent, FaultInjector
from repro.network.graph import Graph
from repro.network.kernel import EventKernel, EventSynchrony, RoundSynchrony, run_protocol
from repro.network.message import Message
from repro.network.node import ProtocolNode
from repro.network.protocols import (
    run_hp_testout_protocol,
    run_path_max_protocol,
    run_testout_protocol,
)
from repro.network.scheduler import LifoScheduler, RandomScheduler
from repro.network.sync_simulator import SynchronousSimulator


class Pinger(ProtocolNode):
    """Node 1 pings every neighbour; everyone records what arrives."""

    def __init__(self, node_id, neighbors, initiator=False):
        super().__init__(node_id, neighbors)
        self.initiator = initiator
        self.received = []
        self.round_begins = 0

    def on_start(self):
        if self.initiator:
            self.broadcast_to_neighbors("PING", size_bits=4)

    def on_message(self, message):
        self.received.append((message.kind, message.sender))

    def on_round_begin(self, round_number):
        self.round_begins += 1


class Relay(ProtocolNode):
    """Forward a token along a line graph."""

    def __init__(self, node_id, neighbors, start=False, last=False):
        super().__init__(node_id, neighbors)
        self.start_token = start
        self.last = last
        self.received = []

    def on_start(self):
        if self.start_token:
            self.send(self.node_id + 1, "TOKEN", size_bits=2)

    def on_message(self, message):
        self.received.append(message.sender)
        if not self.last:
            self.send(self.node_id + 1, "TOKEN", size_bits=2)


def _star(n=4):
    graph = Graph()
    for i in range(2, n + 1):
        graph.add_edge(1, i, i)
    return graph


def _pingers(graph, initiator=1):
    nodes = []
    for node_id in graph.nodes():
        neighbors = {v: 1 for v in graph.neighbors(node_id)}
        nodes.append(Pinger(node_id, neighbors, initiator=(node_id == initiator)))
    return nodes


def _relays(graph):
    n = graph.num_nodes
    return [
        Relay(
            node_id,
            {v: 1 for v in graph.neighbors(node_id)},
            start=(node_id == 1),
            last=(node_id == n),
        )
        for node_id in graph.nodes()
    ]


class TestKernelStructure:
    def test_facades_are_kernel_instances(self, unit_line_graph):
        graph = unit_line_graph(3)
        sync = SynchronousSimulator(graph)
        asyn = AsynchronousSimulator(graph)
        assert isinstance(sync, EventKernel)
        assert isinstance(asyn, EventKernel)
        assert isinstance(sync.synchrony, RoundSynchrony)
        assert isinstance(asyn.synchrony, EventSynchrony)

    def test_policies_report_their_limit_noun(self):
        assert RoundSynchrony.limit_noun == "rounds"
        assert EventSynchrony.limit_noun == "deliveries"

    def test_shared_registration_is_one_implementation(self):
        # Both facades inherit register() from the kernel, unchanged.
        assert (
            SynchronousSimulator.register
            is AsynchronousSimulator.register
            is EventKernel.register
        )
        assert SynchronousSimulator.submit is EventKernel.submit

    def test_started_property(self, unit_line_graph):
        sim = SynchronousSimulator(unit_line_graph(2))
        sim.register_all(_pingers(unit_line_graph(2)))
        assert not sim.started
        sim.start()
        assert sim.started


class TestFaultInjector:
    def test_probability_validation(self):
        with pytest.raises(SimulationError):
            FaultInjector(drop=1.0)
        with pytest.raises(SimulationError):
            FaultInjector(duplicate=-0.1)

    def test_bad_link_window_rejected(self):
        with pytest.raises(SimulationError):
            FaultInjector(link_down=[(1, 2, 5, 3)])

    def test_crash_and_link_predicates(self):
        injector = FaultInjector(crashes={3: 2}, link_down=[(1, 2, 1, 4), (4, 5, 0, None)])
        assert not injector.is_crashed(3, 1)
        assert injector.is_crashed(3, 2)
        assert injector.crashed_nodes == [3]
        assert not injector.link_is_down(2, 1, 0)
        assert injector.link_is_down(2, 1, 1)
        assert not injector.link_is_down(1, 2, 4)
        assert injector.link_is_down(5, 4, 10 ** 9)  # fail-stop: never heals

    def test_verdict_logs_drops(self):
        injector = FaultInjector(crashes={2: 0})
        message = Message(sender=1, receiver=2, kind="X")
        assert injector.verdict(message, 0) == DROP
        assert injector.verdict(Message(sender=2, receiver=1, kind="X"), 0) == DELIVER
        assert injector.event_log() == [[0, "drop", 1, 2]]

    def test_seeded_decisions_are_reproducible(self):
        def history(seed):
            injector = FaultInjector(drop=0.5, seed=seed)
            return [
                injector.verdict(Message(sender=1, receiver=2, kind="X"), t)
                for t in range(32)
            ]

        assert history(7) == history(7)
        assert history(7) != history(8)

    def test_fault_event_round_trip_shape(self):
        event = FaultEvent(time=3, kind="drop", u=1, v=2)
        assert event.to_list() == [3, "drop", 1, 2]


class TestCrashStopOnBothEngines:
    def test_sync_crashed_node_never_acts(self):
        graph = _star(4)
        injector = FaultInjector(crashes={3: 0})
        sim = SynchronousSimulator(graph, faults=injector)
        sim.register_all(_pingers(graph))
        sim.run()
        assert sim.nodes[3].received == []
        assert sim.nodes[3].round_begins == 0  # handlers fully suppressed
        assert sim.nodes[2].received == [("PING", 1)]
        assert [e.to_list() for e in injector.log] == [[1, "drop", 1, 3]]

    def test_async_crashed_node_never_acts(self, unit_line_graph):
        graph = unit_line_graph(4)
        injector = FaultInjector(crashes={3: 0})
        sim = AsynchronousSimulator(graph, faults=injector)
        sim.register_all(_relays(graph))
        sim.run()
        # The token dies at node 3: node 4 never hears anything.
        assert sim.nodes[2].received == [1]
        assert sim.nodes[3].received == []
        assert sim.nodes[4].received == []

    def test_crashed_initiator_skips_on_start(self, unit_line_graph):
        graph = unit_line_graph(3)
        sim = AsynchronousSimulator(graph, faults=FaultInjector(crashes={1: 0}))
        sim.register_all(_relays(graph))
        assert sim.run() == 0  # nothing was ever sent


class TestLinkFaults:
    def test_fail_stop_link_drops_traffic(self, unit_line_graph):
        graph = unit_line_graph(4)
        injector = FaultInjector(link_down=[(2, 3, 0, None)])
        sim = AsynchronousSimulator(graph, faults=injector)
        sim.register_all(_relays(graph))
        sim.run()
        assert sim.nodes[2].received == [1]
        assert sim.nodes[3].received == []
        assert injector.event_log() == [[2, "drop", 2, 3]]

    def test_partition_heals_on_schedule(self, unit_line_graph):
        # Link (2,3) is down only for delivery times < 2; the sender keeps
        # no retransmission logic, so a relay chain dies — but a message
        # delivered at time >= 2 crosses fine.
        graph = unit_line_graph(3)
        injector = FaultInjector(link_down=[(1, 2, 0, 1)])
        sim = AsynchronousSimulator(graph, faults=injector)
        relays = _relays(graph)
        sim.register_all(relays)
        sim.start()
        # Re-send after the heal: delivery times 1, 2 are past the window.
        relays[0].send(2, "TOKEN", size_bits=2)
        sim.run()
        # First copy (delivered at time 1 >= end of window [0,1)) passes.
        assert sim.nodes[2].received == [1, 1]

    def test_sync_round_clock_drives_link_windows(self, unit_line_graph):
        graph = unit_line_graph(3)
        # Down during round 1 only (the round in which round-0 sends land).
        injector = FaultInjector(link_down=[(1, 2, 1, 2)])
        sim = SynchronousSimulator(graph, faults=injector)
        sim.register_all(_pingers(graph))
        sim.run()
        assert sim.nodes[2].received == []
        assert injector.event_log() == [[1, "drop", 1, 2]]


class TestLossyLinks:
    def test_drop_all_messages(self):
        graph = _star(5)
        injector = FaultInjector(drop=0.999999, seed=0)
        sim = SynchronousSimulator(graph, faults=injector)
        sim.register_all(_pingers(graph))
        sim.run()
        assert all(sim.nodes[i].received == [] for i in (2, 3, 4, 5))
        # Accounting still charges the sends: the wire cost happened.
        assert sim.accountant.messages == 4

    def test_duplicate_delivers_twice_and_charges_the_copy(self, unit_line_graph):
        graph = unit_line_graph(2)
        injector = FaultInjector(duplicate=0.999999, seed=1)
        sim = SynchronousSimulator(graph, faults=injector)
        sim.register_all(_pingers(graph))
        sim.run()
        # Original + duplicated copy, and the copy is never re-duplicated.
        assert sim.nodes[2].received == [("PING", 1), ("PING", 1)]
        assert sim.accountant.messages == 2
        assert [e.kind for e in injector.log] == ["duplicate"]

    def test_lossy_run_is_deterministic_per_seed(self, unit_line_graph):
        def counters(seed):
            graph = unit_line_graph(6)
            injector = FaultInjector(drop=0.3, duplicate=0.2, seed=seed)
            sim = AsynchronousSimulator(
                graph, scheduler=RandomScheduler(seed=9), faults=injector
            )
            sim.register_all(_relays(graph))
            sim.run()
            return dict(sim.accountant.summary()), injector.event_log()

        assert counters(5) == counters(5)

    def test_no_injector_means_no_fault_branch(self, unit_line_graph):
        graph = unit_line_graph(3)
        sim = SynchronousSimulator(graph)
        assert sim.faults is None
        sim.register_all(_pingers(graph))
        sim.run()
        assert sim.nodes[2].received == [("PING", 1)]


def _tree_instance():
    graph = random_connected_graph(8, 12, seed=2)
    return graph, random_spanning_tree_forest(graph, seed=3)


def _unknown_engine_calls():
    """Every message-level entry point, each asked for engine 'warp'."""

    def reference_bne(engine):
        graph, forest = _tree_instance()
        run_reference_broadcast_echo(
            graph, forest, 1, {}, SUM_REDUCER, broadcast_bits=1, echo_bits=1, engine=engine
        )

    def testout(engine):
        graph, forest = _tree_instance()
        run_testout_protocol(graph, forest, 1, OddHashFunction(3, 1, 4), engine=engine)

    def hp_testout(engine):
        graph, forest = _tree_instance()
        run_hp_testout_protocol(graph, forest, 1, alpha=2, field_prime=101, engine=engine)

    def path_max(engine):
        graph, forest = _tree_instance()
        run_path_max_protocol(graph, forest, 1, 8, engine=engine)

    def flooding(engine):
        flooding_spanning_tree(_tree_instance()[0], engine=engine)

    def bracha(engine):
        run_bracha_broadcast(4, 1, value=7, engine=engine)

    def flooding_runner(engine):
        spec = repro.GraphSpec(nodes=8, density="sparse", seed=1)
        repro.run("flooding", spec, engine=engine)

    return [reference_bne, testout, hp_testout, path_max, flooding, bracha, flooding_runner]


class TestRunProtocol:
    @pytest.mark.parametrize(
        "call", _unknown_engine_calls(), ids=lambda call: call.__name__
    )
    def test_unknown_engine_is_one_error(self, call):
        with pytest.raises(SimulationError, match=r"^unknown engine 'warp'$"):
            call("warp")

    @pytest.mark.parametrize("engine", ["sync", "async"])
    def test_builds_one_node_per_graph_node_and_runs_to_quiescence(self, engine):
        graph = _star(5)
        accountant = MessageAccountant()
        seen = {}

        def make_node(node_id, neighbors):
            seen[node_id] = neighbors
            return Pinger(node_id, neighbors, initiator=(node_id == 1))

        sim = run_protocol(
            graph,
            make_node,
            engine=engine,
            scheduler=LifoScheduler(),
            accountant=accountant,
        )
        facade = SynchronousSimulator if engine == "sync" else AsynchronousSimulator
        assert isinstance(sim, facade)
        assert sim.accountant is accountant
        assert accountant.messages == 4
        # Each node's KT1 map: its neighbours and the edge weights.
        assert seen == {
            node: {nbr: graph.get_edge(node, nbr).weight for nbr in graph.neighbors(node)}
            for node in graph.nodes()
        }
        assert all(sim.nodes[leaf].received == [("PING", 1)] for leaf in range(2, 6))
        if engine == "async":
            assert isinstance(sim.scheduler, LifoScheduler)
