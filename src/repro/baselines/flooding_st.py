"""Flooding broadcast-tree construction — the Θ(m) "folk theorem" baseline.

A single source floods the network: every node, on receiving the flood for
the first time, marks the edge to the sender as its parent edge and forwards
the flood to all its other neighbours.  Every edge carries at least one and
at most two messages, so the message complexity is Θ(m) — exactly the cost
the folk theorem of Awerbuch et al. said was unavoidable and that Build-ST
(Theorem 1.1) beats.

The protocol is implemented as genuine per-node handlers and can be run on
either engine; under the synchronous engine it also yields a BFS tree, under
an adversarial asynchronous schedule an arbitrary spanning tree — both are
valid broadcast trees.

Registered in the runner API as ``flooding`` — ``repro.run("flooding",
spec)`` wraps :func:`flooding_spanning_tree` in a uniform
:class:`~repro.api.result.RunResult`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..network.accounting import MessageAccountant
from ..network.errors import AlgorithmError
from ..network.faults import FaultInjector
from ..network.fragments import SpanningForest
from ..network.graph import Graph
from ..network.kernel import run_protocol
from ..network.message import Message
from ..network.node import ProtocolNode
from ..network.scheduler import Scheduler

__all__ = ["FloodingNode", "flooding_spanning_tree"]


class FloodingNode(ProtocolNode):
    """Per-node flooding protocol: adopt the first sender as parent, forward."""

    def __init__(self, node_id: int, neighbors: Dict[int, int], is_source: bool, id_bits: int):
        super().__init__(node_id, neighbors)
        self.is_source = is_source
        self.id_bits = id_bits
        self.parent: Optional[int] = None
        self.reached = is_source

    def on_start(self) -> None:
        if self.is_source:
            self.broadcast_to_neighbors("FLOOD", size_bits=self.id_bits)
            self.halt()

    def on_message(self, message: Message) -> None:
        if message.kind != "FLOOD":
            raise AlgorithmError(f"unexpected message kind {message.kind!r}")
        if self.reached:
            return
        self.reached = True
        self.parent = message.sender
        self.broadcast_to_neighbors("FLOOD", size_bits=self.id_bits, exclude=[message.sender])
        self.halt()


def flooding_spanning_tree(
    graph: Graph,
    source: Optional[int] = None,
    engine: str = "sync",
    scheduler: Optional[Scheduler] = None,
    accountant: Optional[MessageAccountant] = None,
    faults: Optional[FaultInjector] = None,
) -> Tuple[SpanningForest, MessageAccountant]:
    """Build a broadcast tree (or forest) by flooding.

    With an explicit ``source`` a single flood runs and only the source's
    component is marked (unreachable components stay unmarked — that is all
    one broadcast can achieve, and what the broadcast-tree use wants).  With
    ``source=None`` every connected component is flooded from its smallest
    node, one flood after another on a shared accountant, so the result is a
    genuine spanning forest on *any* input; on a connected graph this is
    exactly the classic single flood from the smallest node.  An optional
    :class:`~repro.network.faults.FaultInjector` is installed at the
    engine's delivery boundary; nodes cut off by crashes or message loss
    simply stay outside the tree.
    """
    if graph.num_nodes == 0:
        raise AlgorithmError("cannot flood an empty graph")
    acct = accountant if accountant is not None else MessageAccountant()
    if source is not None:
        if not graph.has_node(source):
            raise AlgorithmError(f"source {source} is not in the graph")
        return _flood_component(graph, source, engine, scheduler, acct, faults)

    forest = SpanningForest(graph)
    for component in sorted(graph.connected_components(), key=min):
        flooded, _ = _flood_component(
            graph, min(component), engine, scheduler, acct, faults
        )
        for u, v in flooded.marked_edges:
            forest.mark(u, v)
    return forest, acct


def _flood_component(
    graph: Graph,
    source: int,
    engine: str,
    scheduler: Optional[Scheduler],
    acct: MessageAccountant,
    faults: Optional[FaultInjector],
) -> Tuple[SpanningForest, MessageAccountant]:
    """One flood from ``source``: marks exactly the reachable component."""
    id_bits = graph.id_bits
    sim = run_protocol(
        graph,
        lambda node_id, neighbors: FloodingNode(
            node_id, neighbors, is_source=(node_id == source), id_bits=id_bits
        ),
        engine=engine,
        scheduler=scheduler,
        faults=faults,
        accountant=acct,
    )
    forest = SpanningForest(graph)
    for node in sim.nodes.values():
        if node.parent is not None:
            forest.mark(node.node_id, node.parent)
    return forest, acct
