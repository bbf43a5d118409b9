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

* :class:`BroadcastEchoProtocolNode` — the one genuine per-node protocol for
  the message-level engines, run by :func:`run_reference_broadcast_echo`
  through the engine launcher :func:`~repro.network.kernel.run_protocol`.
  Its broadcast may carry downward state (``propagate``) and each node's
  value may be collected from that state (``collect``), so the Insert path
  query and the per-node TestOut/HP-TestOut protocols of
  :mod:`repro.network.protocols` are single runs of it.  Tests run the same
  aggregation through both paths and assert that message counts, bit counts
  and results agree (``tests/network/test_broadcast.py``); this is what
  justifies using the fast path for the large benchmark runs.

Both realisations assume reliable point-to-point delivery.  That assumption
is itself pluggable: a registered :class:`DeliverySubstrate` (see
:func:`register_substrate`, and :func:`delivery_substrate`, which installs
one for the current thread/context) replaces each
logical tree-hop message with a hardened delivery protocol — the Bracha
reliable-broadcast substrate of :mod:`repro.byzantine` being the shipped
example — and charges its messages, bits and rounds through the same
accountant.  The plain substrate is the historical direct send and keeps
every counter bit-identical.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from contextvars import ContextVar
from functools import reduce
from itertools import compress
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..registry import Registry
from .accounting import MessageAccountant
from .columnar import ColumnarGraph, CutColumn
from .errors import ProtocolError
from .fragments import SpanningForest
from .graph import Graph
from .kernel import run_protocol
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


# Marks an omitted ``aggregate=`` (no aggregate is ever None, but the
# sentinel keeps "not given" unambiguous).
_NO_AGGREGATE: Any = object()
_ONE_FORM = "broadcast_and_echo takes either local_value and reducer, or aggregate="

# Swaps the bytes 0 and 1: a row mask's complement, or a cut's E↑/E↓ flags
# seen from the other side.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


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
    """Rooted view of one maintained tree: each node's parent and depth.

    ``parent`` maps every node of the tree to its parent (the root to
    ``None``), each node listed after its parent.  On the fast path (see :mod:`repro.fastpath`)
    structures live across many broadcast-and-echoes via the
    :class:`~repro.network.tree_cache.TreeStructureCache`, so everything a
    sketch reads from the graph's columnar snapshot is memoised: the tree's
    row mask and rows, its statistics tuple and its cut column.  These memos
    live for one graph version (:meth:`row_mask` drops them when the
    snapshot's version moves on), and the cache calls
    :meth:`invalidate_memos` whenever it patches the structure, which also
    forgets the eccentricity.

    Every memo reads the smaller side of the tree's cut.  A tree under half
    the nodes gathers its own rows and folds them.  A tree holding at least
    half builds its mask in one pass over the snapshot's IDs, gathers the
    rows outside it once, and takes from those: its degree sum is every
    slot minus theirs, its ``maxEdgeNum`` (``maxWt``) is the snapshot's when
    the tree holds an endpoint of the edge that attains it and otherwise
    the masked maximum of the per-row column, and its cut column is theirs
    with ``E↑`` and ``E↓`` swapped.  Wall-clock-only: both sides give the
    same values.
    """

    def __init__(
        self,
        root: int,
        parent: Dict[int, Optional[int]],
        depth: Dict[int, int],
    ) -> None:
        self.root = root
        self.parent = parent
        self.depth = depth
        self._eccentricity: Optional[int] = None
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

    def row_mask(self, cols: ColumnarGraph) -> bytearray:
        """``mask[row]`` is 1 iff the node of ``row`` in ``cols`` is in the tree.

        Memoised per graph version, and the first memo of a version: the
        fast-path sketch kernels read only this tree's memos, and a tree
        typically serves many broadcast-and-echoes between two graph
        mutations.  A new version drops the rows, statistics and cut
        column, and gathers the smaller side's rows again: the tree's own
        under half the nodes, else the rows outside it.  HP-TestOut and
        FindAny's Test read the mask to tell which endpoints of an edge
        the tree holds.
        """
        mask = self._mask
        if mask is not None and self._version == cols.version:
            return mask
        self._forget_row_memos()
        parent = self.parent
        if self._holds_half(cols):
            mask = bytearray(map(parent.__contains__, cols.ids))
            self._outside = list(compress(range(cols.num_nodes), mask.translate(_FLIP)))
        else:
            pos = cols.pos
            rows = self._rows = [pos[node] for node in parent]
            mask = bytearray(cols.num_nodes)
            for row in rows:
                mask[row] = 1
        self._mask = mask
        self._version = cols.version
        return mask

    def rows(self, cols: ColumnarGraph) -> List[int]:
        """The tree's row indices in ``cols``, the snapshot of its graph.

        In no particular order; memoised alongside :meth:`row_mask`, which
        lists them for a tree under half the nodes.  A larger tree reads
        them off its mask on demand.
        """
        mask = self.row_mask(cols)
        if self._rows is None:
            self._rows = list(compress(range(cols.num_nodes), mask))
        return self._rows

    def statistics(self, cols: ColumnarGraph) -> Tuple[int, int, int, int]:
        """The statistics echo ``(size, maxEdgeNum, maxWt, B)`` of the tree.

        The fold of the per-node ``(1, max edge number, max augmented
        weight, degree)`` under ``(sum, max, max, sum)``, read from the
        snapshot's per-row columns on the smaller side of the cut;
        memoised alongside :meth:`row_mask`.
        """
        mask = self.row_mask(cols)
        stats = self._stats
        if stats is not None:
            return stats
        indptr = cols.indptr
        if not self._holds_half(cols):
            rows = self._rows
            stats = (
                len(rows),
                max(map(cols.node_max_number.__getitem__, rows), default=0),
                max(map(cols.node_max_augmented.__getitem__, rows), default=0),
                sum(indptr[row + 1] - indptr[row] for row in rows),
            )
        else:
            id_bits = cols.id_bits
            id_mask = (1 << id_bits) - 1
            pos = cols.pos

            def held(number: int) -> bool:
                # Whether the tree holds an endpoint of the edge ``number``.
                return bool(mask[pos[number >> id_bits]] or mask[pos[number & id_mask]])

            max_number = cols.max_number
            if not (max_number and held(max_number)):
                max_number = max(compress(cols.node_max_number, mask), default=0)
            max_augmented = cols.max_augmented
            if not (max_augmented and held(max_augmented & ((1 << 2 * id_bits) - 1))):
                max_augmented = max(compress(cols.node_max_augmented, mask), default=0)
            stats = (
                len(self.parent),
                max_number,
                max_augmented,
                len(cols.numbers)
                - sum(indptr[row + 1] - indptr[row] for row in self._outside),
            )
        self._stats = stats
        return stats

    def cut_column(self, cols: ColumnarGraph) -> CutColumn:
        """The tree's cut column, the one input of the sketch kernels.

        Memoised alongside :meth:`row_mask`, and built by
        :meth:`ColumnarGraph.cut_column_of_rows` from the smaller side of
        the cut: a tree under half the nodes gathers its own rows, a larger
        one the rows outside it, whose cut is the same edges with ``E↑``
        and ``E↓`` swapped.
        """
        mask = self.row_mask(cols)
        cut = self._cut
        if cut is not None:
            return cut
        if not self._holds_half(cols):
            cut = cols.cut_column_of_rows(self._rows, mask)
        else:
            aug, numbers, up = cols.cut_column_of_rows(
                self._outside, mask.translate(_FLIP)
            )
            cut = CutColumn(aug, numbers, up.translate(_FLIP))
        self._cut = cut
        return cut

    def invalidate_memos(self) -> None:
        """Forget every memo after a patch of the structure."""
        self._eccentricity = None
        self._forget_row_memos()

    def _holds_half(self, cols: ColumnarGraph) -> bool:
        """Whether the tree holds at least half the nodes: the side rule."""
        return 2 * len(self.parent) >= cols.num_nodes

    def _forget_row_memos(self) -> None:
        self._version = -1
        self._mask: Optional[bytearray] = None
        self._rows: Optional[List[int]] = None
        self._outside: Optional[List[int]] = None
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
    """Root the maintained tree ``T_root`` at ``root`` via BFS over marked edges.

    Level by level, each node's marked neighbours in ascending ID order, so
    ``parent`` lists the nodes in FIFO-queue BFS order.
    """
    if not forest.graph.has_node(root):
        raise ProtocolError(f"root {root} is not a node of the graph")
    marked_adj = forest._marked_adj
    parent: Dict[int, Optional[int]] = {root: None}
    depth: Dict[int, int] = {root: 0}
    frontier = [root]
    level = 0
    while frontier:
        level += 1
        below: List[int] = []
        for node in frontier:
            for nbr in marked_adj.get(node, ()):
                if nbr not in parent:
                    parent[nbr] = node
                    depth[nbr] = level
                    below.append(nbr)
        frontier = below
    return TreeStructure(root, parent, depth)


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


#: The substrate registry.  Its entries are builders that take keyword
#: parameters (at least ``n``, the system size) and return a
#: :class:`DeliverySubstrate` — or ``None`` for the plain direct-send
#: substrate, which keeps the executor on its historical bit-identical path.
SUBSTRATE_REGISTRY = Registry("delivery substrate", "substrates", ProtocolError)
register_substrate = SUBSTRATE_REGISTRY.register
list_substrates = SUBSTRATE_REGISTRY.names

#: The current thread's (context's) default substrate, installed by
#: :func:`delivery_substrate`.  A context variable rather than a module
#: global, so concurrent runs in different threads never see each other's.
_ACTIVE_SUBSTRATE: ContextVar[Optional[DeliverySubstrate]] = ContextVar(
    "delivery_substrate", default=None
)
_current_substrate = _ACTIVE_SUBSTRATE.get


def make_substrate(name: str, **params: Any) -> Optional[DeliverySubstrate]:
    """Build the substrate registered under ``name`` (``"plain"`` -> ``None``)."""
    return SUBSTRATE_REGISTRY.get(name)(**params)


@register_substrate("plain")
def _plain_substrate(**_params: Any) -> None:
    """Direct CONGEST sends: the historical, bit-identical accounting."""
    return None


@contextmanager
def delivery_substrate(substrate: Optional[DeliverySubstrate]) -> Iterator[None]:
    """Install ``substrate`` as the default of the current thread/context for the block.

    Executors constructed without an explicit ``substrate`` consult the
    active default at charge time, so a whole algorithm run — including the
    executors it builds internally — can be hardened by wrapping it here.
    ``None`` installs the plain substrate for the block.  The default is
    per thread/context: a run in another thread keeps its own.
    """
    token = _ACTIVE_SUBSTRATE.set(substrate)
    try:
        yield
    finally:
        _ACTIVE_SUBSTRATE.reset(token)


def active_substrate() -> Optional[DeliverySubstrate]:
    """The current thread/context's default substrate (``None`` = plain delivery)."""
    return _current_substrate()


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
    :func:`delivery_substrate` installed for the surrounding block in the
    charging thread/context).
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
        return self.substrate if self.substrate is not None else _current_substrate()

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
        if aggregate is not _NO_AGGREGATE:
            if local_value is not None or reducer is not None:
                raise ProtocolError(_ONE_FORM)
        elif local_value is None or reducer is None:
            raise ProtocolError(_ONE_FORM)
        structure = tree if tree is not None else self.forest.rooted_structure(root)
        if self.substrate is None and _current_substrate() is None:
            self.accountant.record_broadcast_echo_cost(
                len(structure.parent) - 1,
                broadcast_bits,
                echo_bits,
                kind,
                2 * structure.eccentricity,
            )
        else:
            self._charge(structure, broadcast_bits, echo_bits, kind)
        if local_value is None:
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
        if self.substrate is None and _current_substrate() is None:
            self.accountant.record_broadcast_echo_cost(
                len(structure.parent) - 1,
                broadcast_bits,
                echo_bits,
                kind,
                2 * structure.eccentricity,
            )
        else:
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
        """Charge one B&E through a hardened substrate, one wave at a time.

        The plain substrate's charge is the accountant's one update
        :meth:`~repro.network.accounting.MessageAccountant.record_broadcast_echo_cost`,
        made by the B&E methods themselves.
        """
        substrate = self._substrate()
        accountant = self.accountant
        accountant.record_broadcast_echo()
        edges = structure.num_edges
        substrate.charge_messages(accountant, edges, broadcast_bits, f"{kind}:bcast")
        substrate.charge_messages(accountant, edges, echo_bits, f"{kind}:echo")
        accountant.record_rounds(substrate.rounds_per_hop * 2 * structure.eccentricity)


# ---------------------------------------------------------------------- #
# Reference per-node protocol
# ---------------------------------------------------------------------- #
class BroadcastEchoProtocolNode(ProtocolNode):
    """Message-level broadcast-and-echo node (the one reference implementation).

    Every node knows its tree neighbours (its marked incident edges).  The
    designated root starts the broadcast in ``on_start``.  A node receiving
    the broadcast designates the sender as its parent and forwards to its
    other tree neighbours; leaves echo immediately; an internal node echoes
    once it has heard from all children, folding its own value with theirs
    through ``reducer`` (:meth:`Reducer.combine`).

    The broadcast may carry downward state: the root's state is ``None`` and
    each ``BCAST`` to ``child`` carries ``propagate(state, node, child)``
    (without ``propagate`` the state is forwarded unchanged).  A node's own
    value is the fixed ``local_value`` or, given ``collect``,
    ``collect(node, state)`` evaluated when it echoes.
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
        collect: Optional[Callable[[int, Any], Any]] = None,
        propagate: Optional[Callable[[Any, int, int], Any]] = None,
    ) -> None:
        super().__init__(node_id, neighbors)
        self.tree_neighbors = list(tree_neighbors)
        self.is_root = is_root
        self.local_value = local_value
        self.combine = reducer.combine
        self.broadcast_bits = broadcast_bits
        self.echo_bits = echo_bits
        self.collect = collect
        self.propagate = propagate
        self.state: Any = None
        self.parent: Optional[int] = None
        self.pending_children: Set[int] = set()
        self.child_values: List[Any] = []
        self.result: Any = None

    def on_start(self) -> None:
        if self.is_root:
            self.pending_children = set(self.tree_neighbors)
            if not self.pending_children:
                self.result = self._fold()
                self.halt()
                return
            self._broadcast(self.tree_neighbors)

    def on_message(self, message: Message) -> None:
        if message.kind == "BCAST":
            self._handle_broadcast(message.sender, message.payload)
        elif message.kind == "ECHO":
            self._handle_echo(message.sender, message.payload)
        else:
            raise ProtocolError(f"unexpected message kind {message.kind!r}")

    def _broadcast(self, children: Iterable[int]) -> None:
        for nbr in children:
            payload = (
                self.state
                if self.propagate is None
                else self.propagate(self.state, self.node_id, nbr)
            )
            self.send(nbr, "BCAST", payload=payload, size_bits=self.broadcast_bits)

    def _fold(self) -> Any:
        if self.collect is None:
            return self.combine(self.local_value, self.child_values)
        return self.combine(self.collect(self.node_id, self.state), self.child_values)

    def _handle_broadcast(self, sender: int, state: Any) -> None:
        if self.parent is not None or self.is_root:
            raise ProtocolError(
                f"node {self.node_id} received a second broadcast (not a tree?)"
            )
        self.parent = sender
        self.state = state
        self.pending_children = set(self.tree_neighbors) - {sender}
        if not self.pending_children:
            self.send(sender, "ECHO", payload=self._fold(), size_bits=self.echo_bits)
            self.halt()
            return
        self._broadcast(sorted(self.pending_children))

    def _handle_echo(self, sender: int, value: Any) -> None:
        if sender not in self.pending_children:
            raise ProtocolError(
                f"node {self.node_id} received an unexpected echo from {sender}"
            )
        self.pending_children.discard(sender)
        self.child_values.append(value)
        if self.pending_children:
            return
        combined = self._fold()
        if self.is_root:
            self.result = combined
        else:
            assert self.parent is not None
            self.send(self.parent, "ECHO", payload=combined, size_bits=self.echo_bits)
        self.halt()


def run_reference_broadcast_echo(
    graph: Graph,
    forest: SpanningForest,
    root: int,
    local_values: Optional[Mapping[int, Any]],
    reducer: Reducer,
    broadcast_bits: int,
    echo_bits: int,
    engine: str = "sync",
    scheduler=None,
    *,
    collect: Optional[Callable[[int, Any], Any]] = None,
    propagate: Optional[Callable[[Any, int, int], Any]] = None,
) -> Tuple[Any, MessageAccountant]:
    """Run the per-node reference protocol and return (root value, accountant).

    Each node's value is ``local_values[node]`` (the reducer's identity when
    absent) or, with ``local_values=None``, ``collect(node, state)`` of the
    downward state the broadcast delivered (see
    :class:`BroadcastEchoProtocolNode`).  ``engine`` is ``"sync"`` or
    ``"async"`` (:func:`~repro.network.kernel.run_protocol`).  Only the
    nodes of ``root``'s component participate actively, but every node of
    the graph gets a (possibly idle) protocol instance as both engines
    require full coverage.
    """
    if (local_values is None) == (collect is None):
        raise ProtocolError(
            "run_reference_broadcast_echo takes either local_values or collect="
        )
    component = forest.component_of(root)
    values = local_values if local_values is not None else {}

    def make_node(node_id: int, neighbors: Dict[int, int]) -> BroadcastEchoProtocolNode:
        return BroadcastEchoProtocolNode(
            node_id=node_id,
            neighbors=neighbors,
            tree_neighbors=forest.marked_neighbors(node_id) if node_id in component else [],
            is_root=(node_id == root),
            local_value=values.get(node_id, reducer.identity),
            reducer=reducer,
            broadcast_bits=broadcast_bits,
            echo_bits=echo_bits,
            collect=collect,
            propagate=propagate,
        )

    sim = run_protocol(graph, make_node, engine=engine, scheduler=scheduler)
    return sim.nodes[root].result, sim.accountant
