"""Flat columnar incidence storage: the fast path's one sketch input.

Every TestOut, HP-TestOut and FindAny echo value is a pure function of one
node's incident edges plus the broadcast parameters, so one incidence layout
serves every tree whatever its size.  This module stores the *whole graph's*
incidence structure once:

* ``ids`` — the node IDs in sorted order; ``pos`` maps an ID to its row.
* ``indptr`` — ``indptr[i]:indptr[i+1]`` is node ``ids[i]``'s slot range.
  Always a plain list: a splice shifts the tail of it, and list slicing
  and concatenation do that faster than an ``array`` can be extended.
* ``numbers`` / ``augmented`` / ``up`` — flat slot columns, one entry per
  (node, incident edge) pair, in :meth:`Graph.incident_edges` order (sorted
  by the other endpoint's ID).  ``up[slot]`` is 1 iff the node is the
  smaller endpoint, i.e. the edge counts towards the paper's ``E↑``.
* ``edge_aug`` — every edge's augmented weight, ascending (the weights end
  in the edge numbers, so they are distinct).

The fast-path kernels in :mod:`repro.core.sketches` read only a tree's
:class:`CutColumn`: the edges with exactly one endpoint in the tree, sorted
by augmented weight, so a weight window is one bisection of the cut.  The
tree memoises it (:meth:`~repro.network.broadcast.TreeStructure.cut_column`)
from the one builder, :meth:`ColumnarGraph.cut_column_of_rows`, which
gathers a row set's cut slots and sorts them.  The cut of a set is the cut
of its complement with ``E↑`` and ``E↓`` swapped, so a tree holding at least
half the nodes gathers the rows outside it instead of its own: either way
the builder reads the smaller side of the cut.

The other columns but ``up`` (a ``bytearray``) are ``array('Q')`` when
every value fits 64 bits and plain Python lists otherwise (the default
``id_bits=32`` pushes augmented weights past 64 bits, so both
representations are first-class).

Instances are immutable snapshots of one graph version.  :meth:`Graph.columnar`
builds one with :meth:`ColumnarGraph.from_graph` on first use and caches it
against :attr:`Graph.version`; from then on every edge insertion or deletion
replaces the cached snapshot with :meth:`ColumnarGraph.spliced`, a
copy-on-write successor that bisects the edge into (or out of) its two rows
and ``edge_aug``, so a repair never rebuilds the columns.  The layout a
splice produces is exactly the one :meth:`from_graph` builds.  Adding or
removing a node, or a splice that would move the snapshot between the two
column representations (``fits64``), drops the cache instead, and the next
read rebuilds it.  The reference tier never builds one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import GraphError

__all__ = ["ColumnarGraph", "CutColumn"]

_UINT64_MAX = (1 << 64) - 1


def _freeze(values: List[int], fits64: bool) -> Sequence[int]:
    """An ``array('Q')`` copy when every value fits 64 bits, else the list."""
    return array("Q", values) if fits64 else values


def _splice(column: Any, edits: Tuple[Tuple[int, int], ...], insert: bool) -> Any:
    """A copy of ``column`` with every ``(slot, value)`` of ``edits`` applied.

    Inserting puts ``value`` before ``slot``; deleting drops ``slot``.  The
    slots index the old column, largest first, so no edit moves the slot of
    a later one.  Works on ``array``, ``list`` and ``bytearray``.
    """
    column = column[:]
    for slot, value in edits:
        if insert:
            column.insert(slot, value)
        else:
            del column[slot]
    return column


class CutColumn(NamedTuple):
    """The edges with exactly one endpoint in a row set, by augmented weight.

    Parallel columns: ``aug`` (ascending), ``numbers`` and ``up``, where
    ``up[i]`` is 1 iff the set holds the edge's smaller endpoint ``u`` (the
    edge is in the set's ``E↑``) and 0 iff it holds ``v`` (``E↓``).  These
    are the only edges an XOR echo over the set sees: an edge with both
    endpoints inside contributes the same value at each and cancels.
    """

    aug: List[int]
    numbers: List[int]
    up: bytes


class ColumnarGraph:
    """An immutable snapshot of a graph's incidence structure.

    Built via :meth:`from_graph` (or, with caching, :meth:`Graph.columnar`).
    The CSR columns are parallel over *slots*; a node's slots are
    ``indptr[pos[node]] : indptr[pos[node] + 1]``.  ``edge_aug`` holds one
    entry per edge, in ascending augmented weight.
    """

    __slots__ = (
        "id_bits",
        "version",
        "ids",
        "pos",
        "indptr",
        "numbers",
        "augmented",
        "up",
        "edge_aug",
        "node_max_number",
        "node_max_augmented",
        "max_number",
        "max_augmented",
        "fits64",
    )

    def __init__(
        self,
        *,
        id_bits: int,
        version: int,
        ids: List[int],
        pos: Dict[int, int],
        indptr: List[int],
        numbers: Sequence[int],
        augmented: Sequence[int],
        up: bytearray,
        edge_aug: Sequence[int],
        node_max_number: Sequence[int],
        node_max_augmented: Sequence[int],
        max_number: int,
        max_augmented: int,
        fits64: bool,
    ) -> None:
        self.id_bits = id_bits
        self.version = version
        self.ids = ids
        self.pos = pos
        self.indptr = indptr
        self.numbers = numbers
        self.augmented = augmented
        self.up = up
        self.edge_aug = edge_aug
        self.node_max_number = node_max_number
        self.node_max_augmented = node_max_augmented
        self.max_number = max_number
        self.max_augmented = max_augmented
        self.fits64 = fits64

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph: Any) -> "ColumnarGraph":
        """Build the snapshot for ``graph`` at its current version."""
        adj: Dict[int, Dict[int, Any]] = graph._adj
        id_bits = graph.id_bits
        shift = 2 * id_bits
        ids = sorted(adj)
        pos = {node: row for row, node in enumerate(ids)}
        indptr = [0] * (len(ids) + 1)
        numbers: List[int] = []
        augmented: List[int] = []
        up = bytearray()
        # Each edge's augmented weight, taken at its smaller endpoint.
        edge_aug: List[int] = []
        node_max_number: List[int] = []
        node_max_augmented: List[int] = []
        slot = 0
        for row, node in enumerate(ids):
            nbrs = adj[node]
            start = slot
            for other in sorted(nbrs):
                edge = nbrs[other]
                number = (edge.u << id_bits) | edge.v
                aug = (edge.weight << shift) | number
                numbers.append(number)
                augmented.append(aug)
                if node == edge.u:
                    up.append(1)
                    edge_aug.append(aug)
                else:
                    up.append(0)
                slot += 1
            indptr[row + 1] = slot
            node_max_augmented.append(max(augmented[start:slot], default=0))
            node_max_number.append(max(numbers[start:slot], default=0))
        edge_aug.sort()
        max_augmented = max(node_max_augmented, default=0)
        fits64 = max_augmented <= _UINT64_MAX
        return cls(
            id_bits=id_bits,
            version=graph.version,
            ids=ids,
            pos=pos,
            indptr=indptr,
            numbers=_freeze(numbers, fits64),
            augmented=_freeze(augmented, fits64),
            up=up,
            edge_aug=_freeze(edge_aug, fits64),
            node_max_number=_freeze(node_max_number, fits64),
            node_max_augmented=_freeze(node_max_augmented, fits64),
            max_number=max(node_max_number, default=0),
            max_augmented=max_augmented,
            fits64=fits64,
        )

    def spliced(self, edge: Any, version: int, insert: bool) -> Optional["ColumnarGraph"]:
        """The snapshot one edge insertion (or deletion) later, or ``None``.

        ``edge`` (an :class:`~repro.network.graph.Edge` between two nodes of
        this snapshot) is inserted when ``insert`` is true and deleted
        otherwise.  Copy-on-write: the successor, stamped ``version``,
        shares ``ids`` and ``pos`` with this snapshot and holds fresh copies
        of every other column, with the edge bisected into (or out of) its
        two rows of the CSR columns and into (or out of) ``edge_aug``;
        ``indptr`` is shifted and the two rows' maxima recomputed.  The
        largest edge number is rescanned only when the deleted edge held
        it.  The result equals :meth:`from_graph` on the mutated graph,
        column for column.

        Returns ``None`` when the mutation would change ``fits64`` (the
        columns would change representation); the caller then rebuilds.
        """
        id_bits = self.id_bits
        number = (edge.u << id_bits) | edge.v
        aug = (edge.weight << (2 * id_bits)) | number
        edge_aug = self.edge_aug
        k = bisect_left(edge_aug, aug)
        if insert:
            max_augmented = max(self.max_augmented, aug)
        elif k + 1 < len(edge_aug):
            max_augmented = self.max_augmented
        else:
            max_augmented = edge_aug[k - 1] if k else 0
        if (max_augmented <= _UINT64_MAX) != self.fits64:
            return None

        # The edge's smaller endpoint u has the smaller row, so its slots
        # come first in every CSR column.  A row's slots are ordered by the
        # other endpoint's ID, which orders their edge numbers too.
        pos, indptr = self.pos, self.indptr
        urow, vrow = pos[edge.u], pos[edge.v]
        u_start, u_stop = indptr[urow], indptr[urow + 1]
        v_start, v_stop = indptr[vrow], indptr[vrow + 1]
        numbers = self.numbers
        i = bisect_left(numbers, number, u_start, u_stop)
        j = bisect_left(numbers, number, v_start, v_stop)

        step = 1 if insert else -1
        new_indptr = (
            indptr[: urow + 1]
            + [p + step for p in indptr[urow + 1 : vrow + 1]]
            + [p + 2 * step for p in indptr[vrow + 1 :]]
        )
        new_numbers = _splice(numbers, ((j, number), (i, number)), insert)
        new_augmented = _splice(self.augmented, ((j, aug), (i, aug)), insert)
        node_max_number = self.node_max_number[:]
        node_max_augmented = self.node_max_augmented[:]
        for row in (urow, vrow):
            start, stop = new_indptr[row], new_indptr[row + 1]
            node_max_number[row] = new_numbers[stop - 1] if stop > start else 0
            node_max_augmented[row] = max(new_augmented[start:stop], default=0)
        if insert:
            max_number = max(self.max_number, number)
        elif number == self.max_number:
            max_number = max(node_max_number, default=0)
        else:
            max_number = self.max_number
        return ColumnarGraph(
            id_bits=id_bits,
            version=version,
            ids=self.ids,
            pos=pos,
            indptr=new_indptr,
            numbers=new_numbers,
            augmented=new_augmented,
            up=_splice(self.up, ((j, 0), (i, 1)), insert),
            edge_aug=_splice(edge_aug, ((k, aug),), insert),
            node_max_number=node_max_number,
            node_max_augmented=node_max_augmented,
            max_number=max_number,
            max_augmented=max_augmented,
            fits64=self.fits64,
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_slots(self) -> int:
        """Total slot count (= 2 * num_edges)."""
        return len(self.numbers)

    @property
    def num_edges(self) -> int:
        return len(self.edge_aug)

    def slice_of(self, node: int) -> Tuple[int, int]:
        """The ``[start, stop)`` slot range of ``node``'s incident edges."""
        try:
            row = self.pos[node]
        except KeyError as exc:
            raise GraphError(f"node {node} not present") from exc
        return self.indptr[row], self.indptr[row + 1]

    def degree(self, node: int) -> int:
        start, stop = self.slice_of(node)
        return stop - start

    def cut_column_of_rows(self, rows: Iterable[int], row_mask: bytearray) -> CutColumn:
        """The :class:`CutColumn` of the rows ``row_mask`` marks, listed in ``rows``.

        Gathers every slot of the rows whose other endpoint's row is outside
        the mask, then sorts them by augmented weight: ``O(Σdeg · log)`` in
        the rows' degree sum, never a pass over every edge.
        """
        id_bits = self.id_bits
        id_mask = (1 << id_bits) - 1
        pos, indptr = self.pos, self.indptr
        numbers, augmented, up = self.numbers, self.augmented, self.up
        slots = []
        for row in rows:
            for slot in range(indptr[row], indptr[row + 1]):
                number = numbers[slot]
                other = number & id_mask if up[slot] else number >> id_bits
                if not row_mask[pos[other]]:
                    slots.append(slot)
        slots.sort(key=augmented.__getitem__)
        return CutColumn(
            aug=list(map(augmented.__getitem__, slots)),
            numbers=list(map(numbers.__getitem__, slots)),
            up=bytes(map(up.__getitem__, slots)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarGraph(n={self.num_nodes}, slots={self.num_slots}, "
            f"fits64={self.fits64}, version={self.version})"
        )
