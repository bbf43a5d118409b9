"""The unified event kernel shared by both simulation engines.

Historically the synchronous and asynchronous CONGEST engines were two
separate, partially duplicated implementations.  :class:`EventKernel` is the
one simulation core both are now thin facades over: node registration and
validation, outbox/submit validation, the delivery loop, round and
causal-depth accounting and the max-steps safety valve all live here, once.

Synchrony is a *policy object*, not a separate engine:

* :class:`RoundSynchrony` — the global-clock model of Theorem 1.1.  Messages
  submitted in round ``r`` are buffered and delivered together at the
  beginning of round ``r + 1``; each batch advances the accountant's round
  counter by one.
* :class:`EventSynchrony` — the asynchronous model of Theorem 1.2.  A
  pluggable :class:`~repro.network.scheduler.Scheduler` picks the next
  message; "time" is the causal depth of the execution, advanced to the
  length of the longest causal chain.

Faults are injected at the kernel's delivery boundary: when a
:class:`~repro.network.faults.FaultInjector` is installed, every message
popped for delivery is first passed through :meth:`EventKernel._admit`, which
drops messages to crashed nodes, messages on failed or partitioned links and
(seed-deterministically) messages on lossy links, and enqueues duplicate
copies.  The adversarial *node* behaviours that Bracha's reliable broadcast
is tested against (see :mod:`repro.byzantine`) ride the same boundary: an
installed :class:`~repro.byzantine.ByzantineInjector` may additionally
silence, corrupt or equivocate the payloads of compromised senders and
replay their stale messages.  Every protocol — flooding,
broadcast-and-echo, leader election — therefore sees the same fault model
without knowing about it.  With no
injector installed the kernel behaves bit-identically to the historical
engines: same counters, same delivery orders, same error messages.

:func:`run_protocol` is the one launcher of a message-level run: it builds
one protocol node per graph node from its KT1 neighbour map, picks the engine
by name, runs it to quiescence and returns it.  Broadcast-and-echo, the
flooding baseline and Bracha's reliable broadcast all start through it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Union, TYPE_CHECKING

from .accounting import MessageAccountant
from .errors import SimulationError
from .graph import Graph
from .message import Message
from .node import ProtocolNode
from .scheduler import FifoScheduler, Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultInjector

__all__ = [
    "EventKernel",
    "SynchronyModel",
    "RoundSynchrony",
    "EventSynchrony",
    "run_protocol",
]


class SynchronyModel:
    """Policy interface: how pending messages are queued, clocked, delivered.

    A synchrony model owns the message store (round outbox or scheduler
    queue), the engine-specific notion of time (rounds or deliveries — this
    is also the clock fault programs are keyed on) and the per-step delivery
    semantics.  Everything else — registration, validation, the fault
    boundary, the quiescence loop — is the kernel's.
    """

    #: Noun used in the safety-valve error ("rounds" / "deliveries").
    limit_noun = "steps"

    kernel: "EventKernel"

    def bind(self, kernel: "EventKernel") -> None:
        self.kernel = kernel

    def clock(self) -> int:
        """The current fault-model time (round number or delivery count)."""
        raise NotImplementedError

    def on_start(self) -> None:
        """Hook run once by :meth:`EventKernel.start` before ``on_start``s."""

    def stamp_and_queue(self, message: Message) -> None:
        """Record the send time on ``message`` and queue it for delivery."""
        raise NotImplementedError

    def stamp_duplicate(self, copy: Message, original: Message) -> None:
        """Queue a fault-duplicated ``copy`` of ``original``.

        By default a copy is queued like a fresh send; models with per-send
        bookkeeping (causal depth) override this to make the copy inherit
        the original's, since a duplicate is the *same* send on the wire.
        """
        self.stamp_and_queue(copy)

    def pending(self) -> bool:
        """Is at least one message waiting for delivery?"""
        raise NotImplementedError

    def deliver_next(self):
        """Deliver the next unit of work (one round / one message)."""
        raise NotImplementedError

    def limit_exceeded(self, executed: int, max_steps: int) -> bool:
        """Safety valve: has the execution outrun ``max_steps``?"""
        raise NotImplementedError


class RoundSynchrony(SynchronyModel):
    """Global-clock rounds: all round-``r`` sends are delivered in ``r + 1``."""

    limit_noun = "rounds"

    def __init__(self) -> None:
        self.round = 0
        self.outbox: List[Message] = []
        # Registration order is stable once start() runs; the sorted node
        # list is computed once there instead of once per round.
        self.node_order: List[int] = []

    def clock(self) -> int:
        return self.round

    def on_start(self) -> None:
        self.node_order = sorted(self.kernel._nodes)

    def stamp_and_queue(self, message: Message) -> None:
        message.send_time = self.round
        self.outbox.append(message)

    def pending(self) -> bool:
        return bool(self.outbox)

    def deliver_next(self) -> int:
        """Run one round: deliver last round's messages.  Returns #delivered."""
        kernel = self.kernel
        deliveries = self.outbox
        self.outbox = []
        self.round += 1
        kernel.accountant.record_rounds(1)

        per_node: Dict[int, List[Message]] = defaultdict(list)
        for message in deliveries:
            per_node[message.receiver].append(message)

        faults = kernel.faults
        for node_id in self.node_order:
            if faults is not None and faults.is_crashed(node_id, self.round):
                continue
            kernel._nodes[node_id].on_round_begin(self.round)
        for node_id in sorted(per_node):
            node = kernel._nodes[node_id]
            for message in per_node[node_id]:
                if kernel._admit(message):
                    node.on_message(message)
        return len(deliveries)

    def limit_exceeded(self, executed: int, max_steps: int) -> bool:
        # The synchronous valve bounds the rounds of *this* run() call.
        return executed >= max_steps


class EventSynchrony(SynchronyModel):
    """Scheduler-driven delivery with causal-depth round accounting."""

    limit_noun = "deliveries"

    def __init__(self, scheduler: Optional[Scheduler] = None) -> None:
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        self.deliveries = 0
        # Causal depth bookkeeping: depth of the message currently being
        # processed (0 while running on_start handlers).
        self.current_depth = 0
        self.max_depth = 0
        self._depth_of_message: Dict[int, int] = {}

    def clock(self) -> int:
        return self.deliveries

    def on_start(self) -> None:
        self.current_depth = 0

    def stamp_and_queue(self, message: Message) -> None:
        message.send_time = self.deliveries
        self._depth_of_message[message.sequence] = self.current_depth + 1
        self.scheduler.push(message)

    def stamp_duplicate(self, copy: Message, original: Message) -> None:
        # A duplicate is the same send delivered twice: it sits at the
        # original's causal depth, not at depth 1 (the original's depth is
        # still recorded here — it is only popped after the fault boundary).
        copy.send_time = self.deliveries
        self._depth_of_message[copy.sequence] = self._depth_of_message.get(
            original.sequence, 1
        )
        self.scheduler.push(copy)

    def pending(self) -> bool:
        return not self.scheduler.empty()

    def deliver_next(self) -> Message:
        """Deliver a single message chosen by the scheduler."""
        kernel = self.kernel
        message = self.scheduler.pop()
        self.deliveries += 1
        if not kernel._admit(message):
            # A faulted message extends no causal chain: nothing happened.
            self._depth_of_message.pop(message.sequence, None)
            return message
        depth = self._depth_of_message.pop(message.sequence, 1)
        self.current_depth = depth
        if depth > self.max_depth:
            extra = depth - self.max_depth
            self.max_depth = depth
            kernel.accountant.record_rounds(extra)
        kernel._nodes[message.receiver].on_message(message)
        self.current_depth = 0
        return message

    def limit_exceeded(self, executed: int, max_steps: int) -> bool:
        # The asynchronous valve bounds the *total* deliveries of the run.
        return self.deliveries >= max_steps


class EventKernel:
    """One simulation core; synchrony and faults are pluggable policies.

    Parameters
    ----------
    graph:
        The communication graph.  Node protocols may only send along its
        edges.
    synchrony:
        The :class:`SynchronyModel` policy (rounds or scheduled events).
    accountant:
        Message accountant; a fresh one is created when omitted.
    max_steps:
        Safety valve against non-terminating protocols, in the synchrony
        model's own unit (rounds / deliveries).
    faults:
        Optional :class:`~repro.network.faults.FaultInjector` applied at the
        delivery boundary.  ``None`` (the default) short-circuits every fault
        check, so fault-free executions are bit-identical to the historical
        engines.
    """

    def __init__(
        self,
        graph: Graph,
        synchrony: SynchronyModel,
        accountant: Optional[MessageAccountant] = None,
        max_steps: int = 1_000_000,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.graph = graph
        self.synchrony = synchrony
        synchrony.bind(self)
        self.accountant = accountant if accountant is not None else MessageAccountant()
        self.max_steps = max_steps
        self.faults = faults
        self._nodes: Dict[int, ProtocolNode] = {}
        self._started = False

    # ------------------------------------------------------------------ #
    # setup (the one copy of the node bookkeeping both engines shared)
    # ------------------------------------------------------------------ #
    def register(self, node: ProtocolNode) -> None:
        """Register a protocol node; its ID must exist in the graph."""
        if not self.graph.has_node(node.node_id):
            raise SimulationError(f"node {node.node_id} is not in the graph")
        if node.node_id in self._nodes:
            raise SimulationError(f"node {node.node_id} registered twice")
        node.attach(self)
        self._nodes[node.node_id] = node

    def register_all(self, nodes: Iterable[ProtocolNode]) -> None:
        for node in nodes:
            self.register(node)

    @property
    def nodes(self) -> Dict[int, ProtocolNode]:
        return dict(self._nodes)

    @property
    def started(self) -> bool:
        return self._started

    # ------------------------------------------------------------------ #
    # engine interface used by ProtocolNode.send
    # ------------------------------------------------------------------ #
    def submit(self, message: Message) -> None:
        if message.receiver not in self._nodes:
            raise SimulationError(
                f"message addressed to unregistered node {message.receiver}"
            )
        if not self.graph.has_edge(message.sender, message.receiver):
            raise SimulationError(
                f"no edge ({message.sender}, {message.receiver}) in the graph"
            )
        self.synchrony.stamp_and_queue(message)
        self.accountant.record_message(message.size_bits, kind=message.kind)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Call every node's ``on_start`` (time-zero sends happen here)."""
        if self._started:
            raise SimulationError("simulation already started")
        if set(self._nodes) != set(self.graph.nodes()):
            missing = set(self.graph.nodes()) - set(self._nodes)
            raise SimulationError(f"nodes without a protocol: {sorted(missing)}")
        self._started = True
        self.synchrony.on_start()
        clock = self.synchrony.clock()
        for node_id in sorted(self._nodes):
            if self.faults is not None and self.faults.is_crashed(node_id, clock):
                continue
            self._nodes[node_id].on_start()

    def run_to_quiescence(self) -> int:
        """Deliver until nothing is pending.  Returns the steps executed."""
        executed = 0
        synchrony = self.synchrony
        while synchrony.pending():
            if synchrony.limit_exceeded(executed, self.max_steps):
                raise SimulationError(
                    f"protocol did not quiesce within "
                    f"{self.max_steps} {synchrony.limit_noun}"
                )
            synchrony.deliver_next()
            executed += 1
        return executed

    # ------------------------------------------------------------------ #
    # the fault boundary
    # ------------------------------------------------------------------ #
    def _admit(self, message: Message) -> bool:
        """Should this popped message reach its receiver's handler?

        This is the single point where faults act: crash-stop receivers,
        failed or partitioned links and lossy drops suppress the delivery;
        lossy duplication re-queues a copy (whose wire cost is charged to the
        accountant like any other message).  Byzantine behaviours act here
        too: an admitted message takes one last trip through the injector's
        :meth:`~repro.network.faults.FaultInjector.on_deliver` hook, which
        may tamper with it in place (corruption, equivocation) and/or hand
        back a stale replay the kernel enqueues — and charges — like a
        duplicate.
        """
        if self.faults is None:
            return True
        from .faults import DELIVER, DUPLICATE  # local: avoid import cycle

        clock = self.synchrony.clock()
        verdict = self.faults.verdict(message, clock)
        if verdict == DUPLICATE:
            copy = message.clone()
            self.faults.mark_duplicate(copy)
            self.synchrony.stamp_duplicate(copy, message)
            self.accountant.record_message(copy.size_bits, kind=copy.kind)
        elif verdict != DELIVER:
            return False
        extra = self.faults.on_deliver(message, clock)
        if extra is not None:
            # A replayed message is the *same* stale send put back on the
            # wire: like a duplicate it sits at the triggering delivery's
            # causal depth and its wire cost is charged as a fresh message.
            self.synchrony.stamp_duplicate(extra, message)
            self.accountant.record_message(extra.size_bits, kind=extra.kind)
        return True


def run_protocol(
    graph: Graph,
    make_node: Callable[[int, Dict[int, int]], ProtocolNode],
    engine: str = "sync",
    scheduler: Optional[Scheduler] = None,
    faults: Optional["FaultInjector"] = None,
    accountant: Optional[MessageAccountant] = None,
) -> EventKernel:
    """Run one per-node protocol on every node of ``graph`` to quiescence.

    ``make_node(node_id, neighbors)`` builds a node's protocol instance from
    its KT1 knowledge (``neighbors`` maps each neighbour to the edge weight).
    ``engine`` is ``"sync"`` (:class:`SynchronousSimulator`) or ``"async"``
    (:class:`AsynchronousSimulator` under ``scheduler``), each with its own
    safety valve.  Returns the engine, whose ``nodes`` and ``accountant``
    hold the outcome.
    """
    from .async_simulator import AsynchronousSimulator  # local: facades import us
    from .sync_simulator import SynchronousSimulator

    simulator: Union[SynchronousSimulator, AsynchronousSimulator]
    if engine == "sync":
        simulator = SynchronousSimulator(graph, accountant=accountant, faults=faults)
    elif engine == "async":
        simulator = AsynchronousSimulator(
            graph, scheduler=scheduler, accountant=accountant, faults=faults
        )
    else:
        raise SimulationError(f"unknown engine {engine!r}")
    for node_id in graph.nodes():
        neighbors = {
            nbr: graph.get_edge(node_id, nbr).weight for nbr in graph.neighbors(node_id)
        }
        simulator.register(make_node(node_id, neighbors))
    simulator.run()
    return simulator
