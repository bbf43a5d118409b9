"""Message-level reference protocols for the paper's primitives.

The algorithms in :mod:`repro.core` execute broadcast-and-echo through the
fast fragment-level executor (closed-form accounting, one centralised
reduction per echo).  Each protocol here builds its per-node combine from
the same :class:`~repro.network.broadcast.Reducer` the executor folds with.
To back up the fidelity claim — that nothing in the fast path could not be
done by real per-node code exchanging real messages — this module implements
the key primitives as genuine :class:`~repro.network.node.ProtocolNode` state
machines that run on the synchronous or asynchronous engine:

* :func:`run_testout_protocol` — ``TestOut(x, j, k)``: the root broadcasts an
  odd hash function and a weight range over the tree; every node answers with
  the parity of its incident hashed edges; parities XOR up the tree.
* :func:`run_hp_testout_protocol` — ``HP-TestOut(x, j, k)``: same shape, with
  the Schwartz–Zippel ``(up, down)`` product pair as the echo value.
* :func:`run_path_max_protocol` — the ``Insert(u, v)`` query: a broadcast
  that carries the running path maximum downward and an echo that reports
  whether ``v`` was found and which path edge was heaviest.

Tests (``tests/network/test_protocols.py``) assert that these per-node
executions return the same answers and charge the same number of messages as
the fragment-level implementations in :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.hashing import OddHashFunction
from ..core.polynomial import SetEqualitySketch, local_product, product_pair_reducer
from .accounting import MessageAccountant
from .async_simulator import AsynchronousSimulator
from .broadcast import XOR_REDUCER, Reducer
from .errors import ProtocolError, SimulationError
from .fragments import SpanningForest
from .graph import Graph
from .message import Message
from .node import ProtocolNode
from .scheduler import Scheduler
from .sync_simulator import SynchronousSimulator

__all__ = [
    "TreeAggregationNode",
    "run_testout_protocol",
    "run_hp_testout_protocol",
    "run_path_max_protocol",
]


class TreeAggregationNode(ProtocolNode):
    """Generic per-node broadcast-and-echo with a downward-state hook.

    The root sends a ``QUERY`` message carrying a (protocol-specific) state to
    each tree neighbour; every other node adopts the first ``QUERY`` sender as
    its parent, transforms the state with ``propagate`` and forwards it; once
    a node has received ``REPLY`` messages from all its children it folds
    its local value (``collect`` of its node id and received state) with the
    children's values through ``reducer`` and replies to its parent.  The
    root's folded value is the protocol result.

    This is exactly the reference broadcast-and-echo of
    :mod:`repro.network.broadcast`, generalised with the downward state so
    that the path-max (Insert) query can also be expressed.
    """

    def __init__(
        self,
        node_id: int,
        neighbors: Dict[int, int],
        tree_neighbors: List[int],
        is_root: bool,
        collect,
        reducer: Reducer,
        propagate,
        initial_state: Any,
        query_bits: int,
        reply_bits: int,
    ) -> None:
        super().__init__(node_id, neighbors)
        self.tree_neighbors = list(tree_neighbors)
        self.is_root = is_root
        self.collect = collect
        self.combine = reducer.combine
        self.propagate = propagate
        self.initial_state = initial_state
        self.query_bits = query_bits
        self.reply_bits = reply_bits
        self.parent: Optional[int] = None
        self.state: Any = None
        self.pending: set = set()
        self.child_values: List[Any] = []
        self.result: Any = None

    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        if not self.is_root:
            return
        self.state = self.initial_state
        self.pending = set(self.tree_neighbors)
        if not self.pending:
            self.result = self.combine(self.collect(self.node_id, self.state), [])
            self.halt()
            return
        for neighbor in sorted(self.pending):
            child_state = self.propagate(self.state, self.node_id, neighbor)
            self.send(neighbor, "QUERY", payload=child_state, size_bits=self.query_bits)

    def on_message(self, message: Message) -> None:
        if message.kind == "QUERY":
            self._handle_query(message.sender, message.payload)
        elif message.kind == "REPLY":
            self._handle_reply(message.sender, message.payload)
        else:
            raise ProtocolError(f"unexpected message kind {message.kind!r}")

    # ------------------------------------------------------------------ #
    def _handle_query(self, sender: int, state: Any) -> None:
        if self.is_root or self.parent is not None:
            raise ProtocolError(
                f"node {self.node_id} received a second QUERY; the marked "
                "subgraph is not a tree"
            )
        self.parent = sender
        self.state = state
        self.pending = set(self.tree_neighbors) - {sender}
        if not self.pending:
            value = self.combine(self.collect(self.node_id, self.state), [])
            self.send(sender, "REPLY", payload=value, size_bits=self.reply_bits)
            self.halt()
            return
        for neighbor in sorted(self.pending):
            child_state = self.propagate(self.state, self.node_id, neighbor)
            self.send(neighbor, "QUERY", payload=child_state, size_bits=self.query_bits)

    def _handle_reply(self, sender: int, value: Any) -> None:
        if sender not in self.pending:
            raise ProtocolError(f"node {self.node_id}: unexpected REPLY from {sender}")
        self.pending.discard(sender)
        self.child_values.append(value)
        if self.pending:
            return
        combined = self.combine(self.collect(self.node_id, self.state), self.child_values)
        if self.is_root:
            self.result = combined
        else:
            assert self.parent is not None
            self.send(self.parent, "REPLY", payload=combined, size_bits=self.reply_bits)
        self.halt()


def _run_aggregation(
    graph: Graph,
    forest: SpanningForest,
    root: int,
    collect,
    reducer: Reducer,
    propagate,
    initial_state: Any,
    query_bits: int,
    reply_bits: int,
    engine: str,
    scheduler: Optional[Scheduler],
) -> Tuple[Any, MessageAccountant]:
    """Instantiate the per-node protocol on every node and run it."""
    component = forest.component_of(root)
    nodes = []
    for node_id in graph.nodes():
        neighbors = {
            nbr: graph.get_edge(node_id, nbr).weight for nbr in graph.neighbors(node_id)
        }
        tree_neighbors = forest.marked_neighbors(node_id) if node_id in component else []
        nodes.append(
            TreeAggregationNode(
                node_id=node_id,
                neighbors=neighbors,
                tree_neighbors=tree_neighbors,
                is_root=(node_id == root),
                collect=collect,
                reducer=reducer,
                propagate=propagate,
                initial_state=initial_state,
                query_bits=query_bits,
                reply_bits=reply_bits,
            )
        )
    if engine == "sync":
        simulator: Any = SynchronousSimulator(graph)
    elif engine == "async":
        simulator = AsynchronousSimulator(graph, scheduler=scheduler)
    else:
        raise SimulationError(f"unknown engine {engine!r}")
    simulator.register_all(nodes)
    simulator.run()
    return simulator.nodes[root].result, simulator.accountant


# ---------------------------------------------------------------------- #
# TestOut
# ---------------------------------------------------------------------- #
def run_testout_protocol(
    graph: Graph,
    forest: SpanningForest,
    root: int,
    odd_hash: OddHashFunction,
    low: Optional[int] = None,
    high: Optional[int] = None,
    engine: str = "sync",
    scheduler: Optional[Scheduler] = None,
) -> Tuple[bool, MessageAccountant]:
    """Message-level ``TestOut(x, j, k)``; returns (cut detected?, accountant)."""
    id_bits = graph.id_bits
    low_bound = low if low is not None else 0
    high_bound = high if high is not None else (1 << 256)

    def collect(node_id: int, _state: Any) -> int:
        parity = 0
        for edge in graph.incident_edges(node_id):
            weight = edge.augmented_weight(id_bits)
            if low_bound <= weight <= high_bound:
                parity ^= odd_hash(edge.edge_number(id_bits))
        return parity

    def propagate(state: Any, _parent: int, _child: int) -> Any:
        return state

    result, accountant = _run_aggregation(
        graph,
        forest,
        root,
        collect,
        XOR_REDUCER,
        propagate,
        initial_state=None,
        query_bits=odd_hash.description_bits(),
        reply_bits=1,
        engine=engine,
        scheduler=scheduler,
    )
    return bool(result), accountant


# ---------------------------------------------------------------------- #
# HP-TestOut
# ---------------------------------------------------------------------- #
def run_hp_testout_protocol(
    graph: Graph,
    forest: SpanningForest,
    root: int,
    alpha: int,
    field_prime: int,
    low: Optional[int] = None,
    high: Optional[int] = None,
    engine: str = "sync",
    scheduler: Optional[Scheduler] = None,
) -> Tuple[bool, MessageAccountant]:
    """Message-level ``HP-TestOut(x, j, k)``; returns (cut detected?, accountant)."""
    id_bits = graph.id_bits
    low_bound = low if low is not None else 0
    high_bound = high if high is not None else (1 << 256)
    p = field_prime

    def collect(node_id: int, _state: Any) -> Tuple[int, int]:
        up, down = [], []
        for edge in graph.incident_edges(node_id):
            weight = edge.augmented_weight(id_bits)
            if not (low_bound <= weight <= high_bound):
                continue
            number = edge.edge_number(id_bits)
            (up if node_id == edge.u else down).append(number)
        return local_product(up, alpha, p), local_product(down, alpha, p)

    def propagate(state: Any, _parent: int, _child: int) -> Any:
        return state

    (up, down), accountant = _run_aggregation(
        graph,
        forest,
        root,
        collect,
        product_pair_reducer(p),
        propagate,
        initial_state=None,
        query_bits=p.bit_length(),
        reply_bits=2 * p.bit_length(),
        engine=engine,
        scheduler=scheduler,
    )
    return (not SetEqualitySketch(up, down, alpha, p).sides_equal), accountant


# ---------------------------------------------------------------------- #
# Path-max query (Insert)
# ---------------------------------------------------------------------- #
def run_path_max_protocol(
    graph: Graph,
    forest: SpanningForest,
    root: int,
    target: int,
    engine: str = "sync",
    scheduler: Optional[Scheduler] = None,
) -> Tuple[Tuple[bool, Optional[Tuple[int, int]]], MessageAccountant]:
    """Message-level Insert query: is ``target`` in ``T_root``, and which edge
    on the tree path ``root → target`` is heaviest?

    Returns ``((found, heaviest_edge_key_or_None), accountant)``.
    """
    id_bits = graph.id_bits

    def propagate(state, parent: int, child: int):
        edge = graph.get_edge(parent, child)
        key = (edge.u, edge.v)
        if state is None:
            return key
        current = graph.get_edge(*state)
        if edge.augmented_weight(id_bits) > current.augmented_weight(id_bits):
            return key
        return state

    def collect(node_id: int, state):
        if node_id == target:
            return ("found", state)
        return None

    # Only the target answers, so "the one non-None value" is the echo.
    first_answer = Reducer(lambda a, b: a if a is not None else b, None)

    answer, accountant = _run_aggregation(
        graph,
        forest,
        root,
        collect,
        first_answer,
        propagate,
        initial_state=None,
        query_bits=2 * id_bits + max(graph.max_weight().bit_length(), 1),
        reply_bits=2 * id_bits + max(graph.max_weight().bit_length(), 1),
        engine=engine,
        scheduler=scheduler,
    )
    if answer is None:
        return (False, None), accountant
    return (True, answer[1]), accountant
