"""Bracha's reliable broadcast (Bracha 1987): INIT / ECHO / READY.

The KKT broadcast-and-echo primitives assume a reliable tree: whatever the
root sends is what every node receives.  With Byzantine nodes that
assumption breaks, and the classic repair is Bracha's asynchronous reliable
broadcast, which guarantees for ``n`` nodes with at most ``t < n/3``
Byzantine among them:

* **validity** — if the sender is honest, every honest node delivers the
  sender's value;
* **agreement** — no two honest nodes deliver different values;
* **totality** — if any honest node delivers, every honest node delivers.

The protocol is three message waves over a complete graph:

1. the sender sends ``INIT(v)`` to everyone;
2. on the first ``INIT(v)`` (and never again) a node sends ``ECHO(v)`` to
   everyone; on ``ceil((n + t + 1) / 2)`` matching echoes it sends
   ``READY(v)``;
3. ``t + 1`` matching readies also trigger ``READY(v)`` (amplification, so
   totality holds even for nodes that missed the echo quorum), and
   ``2t + 1`` matching readies *deliver* ``v``.

The thresholds only work when ``n > 3t``; :class:`BrachaConfig` refuses
anything else.  Nodes count their *own* echo and ready alongside received
ones, the standard formulation in which the thresholds are quorum sizes
over all ``n`` nodes.

This module is the executable protocol — real :class:`ProtocolNode` state
machines on the event kernel, attackable through
:class:`~repro.byzantine.behaviors.ByzantineInjector`.  The *accounting
model* the fast-path executor charges when the substrate is enabled lives
in :mod:`repro.byzantine.substrate` and is cross-validated against this
implementation by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..network.accounting import MessageAccountant
from ..network.errors import AlgorithmError, ProtocolError
from ..network.faults import FaultInjector
from ..network.graph import Graph
from ..network.kernel import run_protocol
from ..network.message import Message
from ..network.node import ProtocolNode
from ..network.scheduler import Scheduler

__all__ = [
    "TAG_BITS",
    "BrachaConfig",
    "BrachaNode",
    "BrachaRun",
    "complete_graph",
    "run_bracha_broadcast",
]

#: Wire overhead per Bracha message: a 2-bit INIT/ECHO/READY discriminator.
TAG_BITS = 2

INIT = "INIT"
ECHO = "ECHO"
READY = "READY"


@dataclass(frozen=True)
class BrachaConfig:
    """The (n, t) resilience parameters of one Bracha instance.

    ``n`` is the group size and ``t`` the number of Byzantine nodes the
    instance must survive.  Bracha's thresholds are sound **only** when
    ``n > 3t``; construction fails loudly otherwise, because silently
    running an unsound configuration would let tests "pass" against a
    broadcast that guarantees nothing.
    """

    n: int
    t: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise AlgorithmError("Bracha broadcast needs at least one node")
        if self.t < 0:
            raise AlgorithmError("the Byzantine bound t cannot be negative")
        if self.n <= 3 * self.t:
            raise AlgorithmError(
                f"Bracha reliable broadcast requires n > 3t: n={self.n} "
                f"tolerates at most t={max(0, (self.n - 1) // 3)} Byzantine "
                f"nodes, got t={self.t}"
            )

    @property
    def echo_threshold(self) -> int:
        """Matching echoes needed to turn ECHO into READY: ceil((n+t+1)/2)."""
        return (self.n + self.t + 2) // 2

    @property
    def ready_support(self) -> int:
        """Matching readies that amplify into our own READY: t + 1."""
        return self.t + 1

    @property
    def ready_threshold(self) -> int:
        """Matching readies needed to deliver: 2t + 1."""
        return 2 * self.t + 1

    def message_bits(self, value_bits: int) -> int:
        """Wire size of one Bracha message carrying a value of ``value_bits``."""
        return value_bits + TAG_BITS


class BrachaNode(ProtocolNode):
    """One participant of a Bracha reliable-broadcast instance.

    The node follows the three-wave state machine above, counting its own
    echo/ready towards the quorums.  ``accepted`` holds the delivered value
    (``None`` until delivery); ``delivered`` records whether the 2t+1 ready
    quorum was reached.
    """

    def __init__(
        self,
        node_id: int,
        neighbors: Dict[int, int],
        config: BrachaConfig,
        sender: int,
        value: Any = None,
        value_bits: int = 8,
    ) -> None:
        super().__init__(node_id, neighbors)
        self.config = config
        self.sender = sender
        self.value = value
        self.value_bits = value_bits
        self.echo_sent = False
        self.ready_sent = False
        self.delivered = False
        self.accepted: Any = None
        # Quorum bookkeeping: value -> the set of nodes heard from (a set,
        # so replayed/duplicated messages never double-count a voter).
        self._echoes: Dict[Any, Set[int]] = {}
        self._readies: Dict[Any, Set[int]] = {}

    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        if self.node_id != self.sender:
            return
        bits = self.config.message_bits(self.value_bits)
        self.broadcast_to_neighbors(INIT, payload=self.value, size_bits=bits)
        # The sender processes its own INIT locally (no self-loop edge).
        self._handle_init(self.value)

    def on_message(self, message: Message) -> None:
        if self.delivered:
            return
        if message.kind == INIT:
            # Only the designated sender's INIT counts; an INIT relayed or
            # forged from another node is ignored outright.
            if message.sender == self.sender:
                self._handle_init(message.payload)
        elif message.kind == ECHO:
            self._handle_echo(message.sender, message.payload)
        elif message.kind == READY:
            self._handle_ready(message.sender, message.payload)
        else:
            raise ProtocolError(f"unexpected message kind {message.kind!r}")

    # ------------------------------------------------------------------ #
    def _handle_init(self, value: Any) -> None:
        if self.echo_sent:
            return
        self.echo_sent = True
        bits = self.config.message_bits(self.value_bits)
        self.broadcast_to_neighbors(ECHO, payload=value, size_bits=bits)
        self._handle_echo(self.node_id, value)

    def _handle_echo(self, voter: int, value: Any) -> None:
        votes = self._echoes.setdefault(value, set())
        votes.add(voter)
        if len(votes) >= self.config.echo_threshold:
            self._send_ready(value)

    def _send_ready(self, value: Any) -> None:
        if self.ready_sent:
            return
        self.ready_sent = True
        bits = self.config.message_bits(self.value_bits)
        self.broadcast_to_neighbors(READY, payload=value, size_bits=bits)
        self._handle_ready(self.node_id, value)

    def _handle_ready(self, voter: int, value: Any) -> None:
        votes = self._readies.setdefault(value, set())
        votes.add(voter)
        if len(votes) >= self.config.ready_support and not self.ready_sent:
            self._send_ready(value)
        if len(votes) >= self.config.ready_threshold and not self.delivered:
            self.delivered = True
            self.accepted = value
            self.halt()


def complete_graph(n: int, weight: int = 1) -> Graph:
    """The complete graph on nodes ``1..n`` — Bracha's communication medium."""
    if n < 1:
        raise AlgorithmError("a broadcast group needs at least one node")
    return Graph.from_edges(
        max(1, n.bit_length()),
        range(1, n + 1),
        [(u, v, weight) for u in range(1, n + 1) for v in range(u + 1, n + 1)],
    )


@dataclass
class BrachaRun:
    """Outcome of one executed Bracha instance."""

    config: BrachaConfig
    sender: int
    #: node id -> delivered value (``None`` if the node never delivered).
    delivered: Dict[int, Any]
    accountant: MessageAccountant
    fault_events: List[List] = field(default_factory=list)

    def honest_delivered(self, byzantine: Set[int]) -> Dict[int, Any]:
        """The delivered values of the honest nodes only."""
        return {
            node: value
            for node, value in self.delivered.items()
            if node not in byzantine
        }


def run_bracha_broadcast(
    n: int,
    t: int,
    value: Any,
    sender: int = 1,
    value_bits: int = 8,
    engine: str = "sync",
    scheduler: Optional[Scheduler] = None,
    faults: Optional[FaultInjector] = None,
) -> BrachaRun:
    """Execute one Bracha broadcast of ``value`` in a group of ``n`` nodes.

    ``t`` is the resilience bound baked into the thresholds (the adversary,
    if any, arrives via ``faults``, typically a
    :class:`~repro.byzantine.behaviors.ByzantineInjector` controlling at
    most ``t`` nodes).  Fault-free, the run costs exactly
    ``(n-1) + 2·n·(n-1)`` messages: one INIT wave plus full ECHO and READY
    waves.
    """
    config = BrachaConfig(n=n, t=t)
    if not 1 <= sender <= n:
        raise AlgorithmError(f"sender {sender} is not one of the {n} group nodes")
    graph = complete_graph(n)
    simulator = run_protocol(
        graph,
        lambda node_id, neighbors: BrachaNode(
            node_id=node_id,
            neighbors=neighbors,
            config=config,
            sender=sender,
            value=value if node_id == sender else None,
            value_bits=value_bits,
        ),
        engine=engine,
        scheduler=scheduler,
        faults=faults,
    )
    delivered = {node.node_id: node.accepted for node in simulator.nodes.values()}
    events = faults.event_log() if faults is not None else []
    return BrachaRun(
        config=config,
        sender=sender,
        delivered=delivered,
        accountant=simulator.accountant,
        fault_events=events,
    )
