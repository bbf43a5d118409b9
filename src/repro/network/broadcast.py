"""Broadcast-and-echo: the paper's basic communication step.

The paper (Section 1) builds every algorithm out of a single primitive, a
broadcast from a root node ``x`` over the maintained tree followed by an echo
that aggregates values from the leaves back up to ``x``.  Two realisations
are provided:

* :class:`BroadcastEchoExecutor` — the *fast path* used by all algorithms in
  :mod:`repro.core`.  Every echo in the paper aggregates with an operation
  that is commutative and associative (XOR of parities, sums and maxima,
  products mod ``p``), so the root's value does not depend on the tree's
  shape: it is one reduction (:class:`Reducer`) of the node-local values of
  the tree's nodes.  The executor computes exactly that reduction and charges
  the accountant the closed-form cost a per-node execution pays: one
  broadcast message and one echo message per tree edge, with the declared
  bit widths, and ``2 × eccentricity(root)`` rounds.  The shortcut is exact
  because each ``local_value`` is still computed from node-local knowledge
  only (a node sees its own ID, its incident edges and the broadcast
  payload), and the reducer's operation ignores order and grouping, so
  folding the values in any order gives the value the echo delivers.  A
  caller that already holds that reduction — the fused sketch kernels of
  :mod:`repro.core.sketches`, which fold it straight from the columnar
  snapshot — hands it over as ``aggregate=`` and the executor only charges.

* :class:`BroadcastEchoProtocolNode` — a genuine per-node protocol for the
  message-level engines.  Tests run the same aggregation through both paths
  and assert that message counts, bit counts and results agree
  (``tests/network/test_broadcast.py``); this is what justifies using the
  fast path for the large benchmark runs.

Both realisations assume reliable point-to-point delivery.  That assumption
is itself pluggable: a registered :class:`DeliverySubstrate` (see
:func:`register_substrate` / :func:`delivery_substrate`) replaces each
logical tree-hop message with a hardened delivery protocol — the Bracha
reliable-broadcast substrate of :mod:`repro.byzantine` being the shipped
example — and charges its messages, bits and rounds through the same
accountant.  The plain substrate is the historical direct send and keeps
every counter bit-identical.
"""

from __future__ import annotations

import operator
from collections import deque
from contextlib import contextmanager
from functools import reduce
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .. import fastpath
from .accounting import MessageAccountant
from .columnar import ColumnarGraph, CutColumn
from .errors import ProtocolError, SimulationError
from .fragments import SpanningForest
from .graph import Graph
from .message import Message
from .node import ProtocolNode

__all__ = [
    "Reducer",
    "XOR_REDUCER",
    "SUM_REDUCER",
    "TreeStructure",
    "build_tree_structure",
    "BroadcastEchoExecutor",
    "BroadcastEchoProtocolNode",
    "run_reference_broadcast_echo",
    "DeliverySubstrate",
    "register_substrate",
    "list_substrates",
    "make_substrate",
    "delivery_substrate",
    "active_substrate",
]

# A node-local value callback: (node_id) -> value.  The callback must only use
# information local to the node (its incident edges / the broadcast payload);
# algorithms in repro.core honour this contract.
LocalValueFn = Callable[[int], Any]

#: Each B&E kind's ``(kind:bcast, kind:echo)`` accounting labels, built once.
_CHARGE_LABELS: Dict[str, Tuple[str, str]] = {}

# Marks an omitted ``aggregate=`` (no aggregate is ever None, but the
# sentinel keeps "not given" unambiguous).
_NO_AGGREGATE: Any = object()


class Reducer(NamedTuple):
    """How an echo aggregates: a binary operation and its identity.

    ``op`` must be commutative and associative and ``identity`` neutral for
    it; then the value a broadcast-and-echo delivers at the root is the
    reduction of the node-local values in any order, which is what lets
    :meth:`BroadcastEchoExecutor.broadcast_and_echo` fold them in one pass.
    """

    op: Callable[[Any, Any], Any]
    identity: Any

    def combine(self, local: Any, children: Sequence[Any]) -> Any:
        """One node's echo step: its local value folded with its children's."""
        return reduce(self.op, children, local)


#: XOR of parity words and edge numbers (TestOut, FindAny).
XOR_REDUCER = Reducer(operator.xor, 0)
#: Integer sums (counts).
SUM_REDUCER = Reducer(operator.add, 0)


class TreeStructure:
    """Rooted view of one maintained tree: parents, children, depths.

    On the fast path (see :mod:`repro.fastpath`) structures live across many
    broadcast-and-echoes via the
    :class:`~repro.network.tree_cache.TreeStructureCache`, so everything a
    sketch reads from the graph's columnar snapshot is memoised: the tree's
    rows and row mask, its statistics tuple and its cut column.  These memos
    live for one graph version (:meth:`rows` drops them when the snapshot's
    version moves on), and the cache calls :meth:`invalidate_memos` whenever
    it patches the structure, which also forgets the eccentricity.
    """

    def __init__(
        self,
        root: int,
        parent: Dict[int, Optional[int]],
        children: Dict[int, List[int]],
        depth: Dict[int, int],
    ) -> None:
        self.root = root
        self.parent = parent
        self.children = children
        self.depth = depth
        self._eccentricity: Optional[int] = None
        self._rows: Optional[List[int]] = None
        self._rows_version = -1
        self._forget_row_memos()

    @property
    def nodes(self) -> List[int]:
        return sorted(self.parent)

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def num_edges(self) -> int:
        return len(self.parent) - 1

    @property
    def eccentricity(self) -> int:
        """Depth of the deepest node (the root's eccentricity in the tree)."""
        if self._eccentricity is None:
            self._eccentricity = max(self.depth.values(), default=0)
        return self._eccentricity

    def rows(self, cols: ColumnarGraph) -> List[int]:
        """The tree's row indices in ``cols``, the snapshot of its graph.

        Memoised per graph version: the fast-path sketch kernels read only
        these rows, and a tree typically serves many broadcast-and-echoes
        between two graph mutations.  A new version also drops the row
        mask, statistics and cut column.
        """
        if self._rows is None or self._rows_version != cols.version:
            pos = cols.pos
            self._rows = [pos[node] for node in self.parent]
            self._rows_version = cols.version
            self._forget_row_memos()
        return self._rows

    def row_mask(self, cols: ColumnarGraph) -> bytearray:
        """``mask[row]`` is 1 iff the node of ``row`` in ``cols`` is in the tree.

        Memoised alongside :meth:`rows`: the cut column is built from it,
        and HP-TestOut and FindAny's Test read it to tell which endpoints
        of an edge the tree holds.
        """
        mask = self._mask
        if mask is not None and self._rows_version == cols.version:
            return mask
        rows = self.rows(cols)
        mask = self._mask = bytearray(cols.num_nodes)
        for row in rows:
            mask[row] = 1
        return mask

    def statistics(self, cols: ColumnarGraph) -> Tuple[int, int, int, int]:
        """The statistics echo ``(size, maxEdgeNum, maxWt, B)`` of the tree.

        The fold of the per-node ``(1, max edge number, max augmented
        weight, degree)`` under ``(sum, max, max, sum)``, read from the
        snapshot's per-row columns; memoised alongside :meth:`rows`.
        """
        stats = self._stats
        if stats is not None and self._rows_version == cols.version:
            return stats
        rows = self.rows(cols)
        indptr = cols.indptr
        stats = self._stats = (
            len(rows),
            max(map(cols.node_max_number.__getitem__, rows), default=0),
            max(map(cols.node_max_augmented.__getitem__, rows), default=0),
            sum(indptr[row + 1] - indptr[row] for row in rows),
        )
        return stats

    def cut_column(self, cols: ColumnarGraph) -> CutColumn:
        """The tree's cut column, the one input of the sketch kernels.

        Memoised alongside :meth:`rows`.  A tree holding at least half the
        nodes (:func:`~repro.fastpath.covers_half`) builds it in one pass
        over the graph's edge columns (:meth:`ColumnarGraph.cut_column`); a
        smaller one from its own rows
        (:meth:`ColumnarGraph.cut_column_of_rows`).  Both give the same
        column.
        """
        cut = self._cut
        if cut is not None and self._rows_version == cols.version:
            return cut
        rows = self.rows(cols)
        mask = self.row_mask(cols)
        if fastpath.covers_half(len(rows), cols.num_nodes):
            cut = cols.cut_column(mask)
        else:
            cut = cols.cut_column_of_rows(rows, mask)
        self._cut = cut
        return cut

    def invalidate_memos(self) -> None:
        """Forget every memo after a patch of the structure."""
        self._eccentricity = None
        self._rows = None
        self._forget_row_memos()

    def _forget_row_memos(self) -> None:
        self._mask: Optional[bytearray] = None
        self._stats: Optional[Tuple[int, int, int, int]] = None
        self._cut: Optional[CutColumn] = None

    def path_from_root(self, node: int) -> List[int]:
        """The tree path root -> ... -> node."""
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path


def build_tree_structure(forest: SpanningForest, root: int) -> TreeStructure:
    """Root the maintained tree ``T_root`` at ``root`` via BFS over marked edges."""
    if not forest.graph.has_node(root):
        raise ProtocolError(f"root {root} is not a node of the graph")
    parent: Dict[int, Optional[int]] = {root: None}
    children: Dict[int, List[int]] = {root: []}
    depth: Dict[int, int] = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for nbr in forest.marked_neighbors(node):
            if nbr in parent:
                continue
            parent[nbr] = node
            children[nbr] = []
            children[node].append(nbr)
            depth[nbr] = depth[node] + 1
            queue.append(nbr)
    return TreeStructure(root, parent, children, depth)


# ---------------------------------------------------------------------- #
# delivery substrates
# ---------------------------------------------------------------------- #
class DeliverySubstrate:
    """How one logical tree-hop message is realised on the wire.

    The plain substrate (``None`` everywhere) is a direct CONGEST send: one
    message, the declared bit width, one round per hop — exactly the
    historical accounting.  A hardened substrate replaces each logical hop
    with a reliable-delivery protocol instance and charges *its* messages,
    bits and rounds instead (see
    :class:`repro.byzantine.substrate.BrachaSubstrate`).  Substrates only
    change the accounting: the values flowing through the broadcast are
    untouched, which is what makes "same tree, higher cost" a checkable
    contract.
    """

    name = "substrate"
    #: Wire rounds one logical hop costs (plain delivery: 1).
    rounds_per_hop = 1

    def charge_messages(
        self, accountant: MessageAccountant, count: int, size_bits: int, kind: str
    ) -> None:
        """Charge ``count`` logical messages of ``size_bits`` bits each."""
        raise NotImplementedError


#: A substrate builder: ``(n=..., **params) -> Optional[DeliverySubstrate]``.
SubstrateBuilder = Callable[..., Optional[DeliverySubstrate]]

_SUBSTRATES: Dict[str, SubstrateBuilder] = {}

#: The process-wide default substrate installed by :func:`delivery_substrate`.
_ACTIVE_SUBSTRATE: Optional[DeliverySubstrate] = None


def register_substrate(name: str) -> Callable[[SubstrateBuilder], SubstrateBuilder]:
    """Function decorator: publish a delivery-substrate builder under ``name``.

    Mirrors the fault/workload registries: builders take keyword parameters
    (at least ``n``, the system size) and return a
    :class:`DeliverySubstrate` — or ``None`` for the plain direct-send
    substrate, which keeps the executor on its historical bit-identical
    code path.
    """
    if not name or name != name.strip().lower():
        raise ProtocolError(f"substrate names must be non-empty lowercase, got {name!r}")

    def decorate(fn: SubstrateBuilder) -> SubstrateBuilder:
        if name in _SUBSTRATES and _SUBSTRATES[name] is not fn:
            raise ProtocolError(f"delivery substrate {name!r} is already registered")
        _SUBSTRATES[name] = fn
        return fn

    return decorate


def list_substrates() -> List[str]:
    """The registered delivery-substrate names, sorted."""
    return sorted(_SUBSTRATES)


def make_substrate(name: str, **params: Any) -> Optional[DeliverySubstrate]:
    """Build the substrate registered under ``name`` (``"plain"`` -> ``None``)."""
    try:
        builder = _SUBSTRATES[name]
    except KeyError:
        known = ", ".join(list_substrates()) or "<none>"
        raise ProtocolError(
            f"unknown delivery substrate {name!r}; registered substrates: {known}"
        ) from None
    return builder(**params)


@register_substrate("plain")
def _plain_substrate(**_params: Any) -> None:
    """Direct CONGEST sends: the historical, bit-identical accounting."""
    return None


@contextmanager
def delivery_substrate(substrate: Optional[DeliverySubstrate]) -> Iterator[None]:
    """Install ``substrate`` as the process-wide default for the block.

    Executors constructed without an explicit ``substrate`` consult the
    active default at charge time, so a whole algorithm run — including the
    executors it builds internally — can be hardened by wrapping it here.
    ``None`` (the plain substrate) makes the block a no-op.
    """
    global _ACTIVE_SUBSTRATE
    previous = _ACTIVE_SUBSTRATE
    _ACTIVE_SUBSTRATE = substrate
    try:
        yield
    finally:
        _ACTIVE_SUBSTRATE = previous


def active_substrate() -> Optional[DeliverySubstrate]:
    """The process-wide default substrate (``None`` = plain delivery)."""
    return _ACTIVE_SUBSTRATE


class BroadcastEchoExecutor:
    """Fast-path broadcast-and-echo with exact CONGEST accounting.

    The root's value is one reduction of the tree's node-local values with a
    commutative, associative :class:`Reducer`; the charge is the closed-form
    cost of the per-node protocol (one broadcast and one echo message per
    tree edge, ``2 × eccentricity`` rounds).  Both are exactly what
    :class:`BroadcastEchoProtocolNode` computes and sends, because the local
    values stay node-local and the reducer ignores order and grouping.

    ``substrate`` optionally names how each logical tree-hop message is
    realised on the wire (default: the plain direct send, or whatever
    :func:`delivery_substrate` installed for the surrounding block).
    """

    def __init__(
        self,
        graph: Graph,
        forest: SpanningForest,
        accountant: MessageAccountant,
        substrate: Optional[DeliverySubstrate] = None,
    ):
        self.graph = graph
        self.forest = forest
        self.accountant = accountant
        self.substrate = substrate

    def _substrate(self) -> Optional[DeliverySubstrate]:
        return self.substrate if self.substrate is not None else _ACTIVE_SUBSTRATE

    # ------------------------------------------------------------------ #
    # primitives
    # ------------------------------------------------------------------ #
    def broadcast_and_echo(
        self,
        root: int,
        local_value: Optional[LocalValueFn] = None,
        reducer: Optional[Reducer] = None,
        *,
        broadcast_bits: int,
        echo_bits: int,
        tree: Optional[TreeStructure] = None,
        kind: str = "b&e",
        aggregate: Any = _NO_AGGREGATE,
    ) -> Any:
        """One broadcast-and-echo rooted at ``root``; returns the aggregate.

        The aggregate is ``reducer`` folded over ``local_value(node)`` for
        every node of the tree — or, when the caller has already folded it
        (the fused sketch kernels), the given ``aggregate``; exactly one of
        the two forms is allowed.  Either way charges ``num_edges``
        broadcast messages of ``broadcast_bits`` bits, ``num_edges`` echo
        messages of ``echo_bits`` bits, and ``2 × eccentricity`` rounds (the
        paper's time for one B&E).
        """
        folds = aggregate is _NO_AGGREGATE
        if (local_value is not None, reducer is not None) != (folds, folds):
            raise ProtocolError(
                "broadcast_and_echo takes either local_value and reducer, "
                "or aggregate="
            )
        structure = tree if tree is not None else self.forest.rooted_structure(root)
        self._charge(structure, broadcast_bits, echo_bits, kind)
        if not folds:
            return aggregate
        return reduce(reducer.op, map(local_value, structure.parent), reducer.identity)

    def broadcast_only(
        self,
        root: int,
        broadcast_bits: int,
        tree: Optional[TreeStructure] = None,
        kind: str = "bcast",
    ) -> TreeStructure:
        """A broadcast with no echo (e.g. "stop", "add edge", leader announce)."""
        structure = tree if tree is not None else self.forest.rooted_structure(root)
        substrate = self._substrate()
        if substrate is None:
            self.accountant.record_messages(structure.num_edges, broadcast_bits, kind=kind)
            self.accountant.record_rounds(structure.eccentricity)
        else:
            substrate.charge_messages(
                self.accountant, structure.num_edges, broadcast_bits, kind
            )
            self.accountant.record_rounds(
                substrate.rounds_per_hop * structure.eccentricity
            )
        return structure

    def broadcast_with_downward_state(
        self,
        root: int,
        target: int,
        initial_state: Any,
        propagate: Callable[[Any, int, int], Any],
        broadcast_bits: int,
        echo_bits: int,
        collect: Callable[[int, Any], Any],
        tree: Optional[TreeStructure] = None,
        kind: str = "b&e",
    ) -> Any:
        """Broadcast-and-echo where the broadcast carries state down the tree.

        ``propagate(parent_state, parent, child)`` computes the state handed
        to ``child`` when the broadcast crosses the tree edge
        ``(parent, child)`` — e.g. the heaviest edge seen on the path from
        the root, used by ``Insert`` (Section 3.2).  Only ``target`` answers:
        the echo relays ``collect(target, state)`` back to the root, and
        every other node echoes nothing.  That value depends only on the
        states along the root → ``target`` path, so it is computed by walking
        that path (O(depth)); ``None`` when ``target`` is not in the tree.
        The charge is the full broadcast-and-echo the protocol sends.
        """
        structure = tree if tree is not None else self.forest.rooted_structure(root)
        self._charge(structure, broadcast_bits, echo_bits, kind)
        if target not in structure.parent:
            return None
        path = structure.path_from_root(target)
        state = initial_state
        for parent, child in zip(path, path[1:]):
            state = propagate(state, parent, child)
        return collect(target, state)

    def point_to_point_along_edge(self, u: int, v: int, size_bits: int, kind: str = "p2p") -> None:
        """Charge a single message over the (graph) edge ``{u, v}``."""
        if not self.graph.has_edge(u, v):
            raise ProtocolError(f"no edge ({u}, {v}) to send along")
        substrate = self._substrate()
        if substrate is None:
            self.accountant.record_message(size_bits, kind=kind)
            self.accountant.record_rounds(1)
        else:
            substrate.charge_messages(self.accountant, 1, size_bits, kind)
            self.accountant.record_rounds(substrate.rounds_per_hop)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _charge(
        self, structure: TreeStructure, broadcast_bits: int, echo_bits: int, kind: str
    ) -> None:
        labels = _CHARGE_LABELS.get(kind)
        if labels is None:
            labels = _CHARGE_LABELS[kind] = (f"{kind}:bcast", f"{kind}:echo")
        substrate = self._substrate()
        if substrate is None:
            self.accountant.record_broadcast_echo_cost(
                structure.num_edges,
                broadcast_bits,
                echo_bits,
                labels,
                2 * structure.eccentricity,
            )
            return
        accountant = self.accountant
        accountant.record_broadcast_echo()
        edges = structure.num_edges
        bcast, echo = labels
        substrate.charge_messages(accountant, edges, broadcast_bits, bcast)
        substrate.charge_messages(accountant, edges, echo_bits, echo)
        accountant.record_rounds(substrate.rounds_per_hop * 2 * structure.eccentricity)


# ---------------------------------------------------------------------- #
# Reference per-node protocol
# ---------------------------------------------------------------------- #
class BroadcastEchoProtocolNode(ProtocolNode):
    """Message-level broadcast-and-echo node (reference implementation).

    Every node knows its tree neighbours (its marked incident edges).  The
    designated root starts the broadcast in ``on_start``.  A node receiving
    the broadcast designates the sender as its parent and forwards to its
    other tree neighbours; leaves echo immediately; an internal node echoes
    once it has heard from all children, folding its local value with
    theirs through ``reducer`` (:meth:`Reducer.combine`).
    """

    def __init__(
        self,
        node_id: int,
        neighbors: Dict[int, int],
        tree_neighbors: List[int],
        is_root: bool,
        local_value: Any,
        reducer: Reducer,
        broadcast_bits: int,
        echo_bits: int,
    ) -> None:
        super().__init__(node_id, neighbors)
        self.tree_neighbors = list(tree_neighbors)
        self.is_root = is_root
        self.local_value = local_value
        self.combine = reducer.combine
        self.broadcast_bits = broadcast_bits
        self.echo_bits = echo_bits
        self.parent: Optional[int] = None
        self.pending_children: Set[int] = set()
        self.child_values: List[Any] = []
        self.result: Any = None
        self.done = False

    def on_start(self) -> None:
        if self.is_root:
            self.pending_children = set(self.tree_neighbors)
            if not self.pending_children:
                self.result = self.combine(self.local_value, [])
                self.done = True
                self.halt()
                return
            for nbr in self.tree_neighbors:
                self.send(nbr, "BCAST", size_bits=self.broadcast_bits)

    def on_message(self, message: Message) -> None:
        if message.kind == "BCAST":
            self._handle_broadcast(message.sender)
        elif message.kind == "ECHO":
            self._handle_echo(message.sender, message.payload)
        else:
            raise ProtocolError(f"unexpected message kind {message.kind!r}")

    def _handle_broadcast(self, sender: int) -> None:
        if self.parent is not None or self.is_root:
            raise ProtocolError(
                f"node {self.node_id} received a second broadcast (not a tree?)"
            )
        self.parent = sender
        self.pending_children = set(self.tree_neighbors) - {sender}
        if not self.pending_children:
            value = self.combine(self.local_value, [])
            self.send(sender, "ECHO", payload=value, size_bits=self.echo_bits)
            self.done = True
            self.halt()
            return
        for nbr in sorted(self.pending_children):
            self.send(nbr, "BCAST", size_bits=self.broadcast_bits)

    def _handle_echo(self, sender: int, value: Any) -> None:
        if sender not in self.pending_children:
            raise ProtocolError(
                f"node {self.node_id} received an unexpected echo from {sender}"
            )
        self.pending_children.discard(sender)
        self.child_values.append(value)
        if self.pending_children:
            return
        combined = self.combine(self.local_value, self.child_values)
        if self.is_root:
            self.result = combined
        else:
            assert self.parent is not None
            self.send(self.parent, "ECHO", payload=combined, size_bits=self.echo_bits)
        self.done = True
        self.halt()


def run_reference_broadcast_echo(
    graph: Graph,
    forest: SpanningForest,
    root: int,
    local_values: Dict[int, Any],
    reducer: Reducer,
    broadcast_bits: int,
    echo_bits: int,
    engine: str = "sync",
    scheduler=None,
) -> Tuple[Any, MessageAccountant]:
    """Run the per-node reference protocol and return (root value, accountant).

    ``engine`` is ``"sync"`` or ``"async"``.  Only the nodes of ``root``'s
    component participate actively, but every node of the graph gets a
    (possibly idle) protocol instance as both engines require full coverage.
    """
    from .async_simulator import AsynchronousSimulator
    from .sync_simulator import SynchronousSimulator

    component = forest.component_of(root)
    nodes = []
    for node_id in graph.nodes():
        neighbors = {nbr: graph.get_edge(node_id, nbr).weight for nbr in graph.neighbors(node_id)}
        tree_neighbors = forest.marked_neighbors(node_id) if node_id in component else []
        nodes.append(
            BroadcastEchoProtocolNode(
                node_id=node_id,
                neighbors=neighbors,
                tree_neighbors=tree_neighbors,
                is_root=(node_id == root),
                local_value=local_values.get(node_id, reducer.identity),
                reducer=reducer,
                broadcast_bits=broadcast_bits,
                echo_bits=echo_bits,
            )
        )
    if engine == "sync":
        sim: Any = SynchronousSimulator(graph)
    elif engine == "async":
        sim = AsynchronousSimulator(graph, scheduler=scheduler)
    else:
        raise SimulationError(f"unknown engine {engine!r}")
    sim.register_all(nodes)
    sim.run()
    root_node = sim.nodes[root]
    return root_node.result, sim.accountant
