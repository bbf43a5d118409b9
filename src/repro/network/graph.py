"""Weighted undirected communication graphs for the CONGEST model.

The paper's conventions (Section 1 and "Definitions") are implemented here:

* every node has a unique integer ID drawn from ``[1, 2^id_bits)``;
* an edge ``{u, v}``'s *edge number* is the concatenation of its endpoint IDs,
  smallest first: ``(min(u, v) << id_bits) | max(u, v)``;
* a *unique weight* (called the *augmented weight* throughout this package)
  is the original integer weight concatenated in front of the edge number:
  ``(weight << 2 * id_bits) | edge_number``.  Because edge numbers are unique,
  augmented weights are distinct even when raw weights collide, which is what
  makes the MST unique and lets ``FindMin`` identify an edge from its
  augmented weight alone.

The class is deliberately small and explicit: it stores an adjacency map of
:class:`Edge` objects and offers the dynamic operations the repair algorithms
need (insert, delete, change weight).  A graph whose edges are known up front
(a generator's output, a trace's initial state, a subgraph) is built by
:meth:`Graph.from_edges` in one pass; :meth:`Graph.add_edge` stays for
workloads and tests that grow a graph edge by edge.  Both, and
:meth:`Graph.set_weight`, run one check on every edge: integer IDs in the ID
space, no self-loop, a non-negative integer weight (``bool`` is neither an
ID nor a weight).  Everything a *node* is allowed to know
in the KT1 CONGEST model — its own ID, its incident edges, their weights and
the IDs of the other endpoints — is available through :meth:`Graph.neighbors`
and :meth:`Graph.incident_edges`; algorithms in :mod:`repro.core` only touch
the graph through those node-local views plus the broadcast-and-echo
primitive.

Those views serve the two tiers of :mod:`repro.fastpath`: the reference
tier reads :meth:`Graph.incident_edges` node by node, and the columnar tier
reads the rows of one version-stamped CSR snapshot of the same incidence
data, :meth:`Graph.columnar` (:mod:`repro.network.columnar`).  The snapshot
is built once, on first read; after that every edge insertion or deletion
(and so every weight change) splices itself into a copy-on-write successor
snapshot, and only :meth:`Graph.add_node` / :meth:`Graph.remove_node`, or a
splice that would change the columns' representation, drop it for the next
read to rebuild.  While the snapshot is current it also answers the global
maxima (:meth:`Graph.max_weight` and friends) in O(1).  The graph keeps no
other derived cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .columnar import ColumnarGraph
from .errors import GraphError

__all__ = ["Edge", "Graph", "IncidentArrays", "edge_key"]


def edge_key(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (smallest-first) key for the edge ``{u, v}``."""
    if u == v:
        raise GraphError(f"self-loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Edge:
    """An undirected weighted edge with canonical endpoint order ``u < v``."""

    u: int
    v: int
    weight: int = 1

    def __post_init__(self) -> None:
        if self.u >= self.v:
            raise GraphError(
                f"Edge endpoints must satisfy u < v, got ({self.u}, {self.v})"
            )
        if self.weight < 0:
            raise GraphError(f"Edge weights must be non-negative, got {self.weight}")

    @property
    def endpoints(self) -> Tuple[int, int]:
        return (self.u, self.v)

    def other(self, node: int) -> int:
        """Return the endpoint that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise GraphError(f"node {node} is not an endpoint of {self}")

    def edge_number(self, id_bits: int) -> int:
        """Concatenation of the endpoint IDs, smallest first (paper, §1)."""
        return (self.u << id_bits) | self.v

    def augmented_weight(self, id_bits: int) -> int:
        """Unique weight: the weight concatenated in front of the edge number."""
        return (self.weight << (2 * id_bits)) | self.edge_number(id_bits)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{{{self.u},{self.v}}}(w={self.weight})"


class IncidentArrays(NamedTuple):
    """One node's row of the columnar snapshot (:meth:`Graph.incident_arrays`).

    Parallel sequences over the node's incident edges, sorted by the other
    endpoint's ID (:meth:`Graph.incident_edges` order); ``up[i]`` is 1 iff
    the node is the smaller endpoint of edge ``i``.
    """

    numbers: Sequence[int]
    augmented: Sequence[int]
    up: Sequence[int]


class Graph:
    """A dynamic, weighted, undirected communication graph.

    Parameters
    ----------
    id_bits:
        Width of the node-ID space.  Node IDs must be in ``[1, 2^id_bits)``.
        Edge numbers occupy ``2 * id_bits`` bits.  The default of 32 bits is
        comfortable for any simulated network; generators typically pass the
        smallest width that fits ``n`` so that message sizes stay
        ``O(log n)``.
    """

    def __init__(self, id_bits: int = 32) -> None:
        if id_bits < 1:
            raise GraphError("id_bits must be positive")
        self._id_bits = id_bits
        self._id_limit = 1 << id_bits
        self._adj: Dict[int, Dict[int, Edge]] = {}
        # Version stamp: bumped on every topology/weight mutation; the
        # columnar snapshot, when cached, is always at the current version.
        self._version = 0
        self._columnar_cache: Optional[ColumnarGraph] = None

    # ------------------------------------------------------------------ #
    # construction / mutation
    # ------------------------------------------------------------------ #
    @property
    def id_bits(self) -> int:
        return self._id_bits

    @property
    def version(self) -> int:
        """Monotonic mutation counter (caches key off it)."""
        return self._version

    def add_node(self, node: int) -> None:
        """Add an isolated node with identifier ``node``."""
        self._check_id(node)
        if node not in self._adj:
            self._adj[node] = {}
            self._version += 1
            self._columnar_cache = None

    @classmethod
    def from_edges(
        cls,
        id_bits: int,
        nodes: Iterable[int],
        edges: Iterable[Tuple[int, int, int]],
    ) -> "Graph":
        """A graph of ``nodes`` and ``(u, v, weight)`` ``edges``, filled in one pass.

        The result equals :meth:`add_node` over ``nodes`` followed by
        :meth:`add_edge` over ``edges`` on a fresh ``Graph(id_bits)``: the
        same :class:`Edge` objects, adjacency order and :attr:`version`, with
        endpoints missing from ``nodes`` created smaller first.  It raises
        the same :class:`GraphError` at the same first bad node or edge.  The
        columnar snapshot is left for the first :meth:`columnar` read, as
        after ``add_edge``.

        >>> graph = Graph.from_edges(3, [1, 2], [(3, 1, 5), (2, 3, 1)])
        >>> [(e.u, e.v, e.weight) for e in graph.edges()], graph.version
        ([(1, 3, 5), (2, 3, 1)], 5)
        >>> Graph.from_edges(3, [1, 2], [(1, 2, 5), (2, 1, 4)])
        Traceback (most recent call last):
        ...
        repro.network.errors.GraphError: edge (1, 2) already present
        """
        graph = cls(id_bits)
        adj = graph._adj
        check_id = graph._check_id
        for node in nodes:
            check_id(node)
            if node not in adj:
                adj[node] = {}
        key = graph._edge_key
        count = 0
        for u, v, weight in edges:
            a, b = key(u, v, weight)
            row_a = adj.get(a)
            if row_a is None:
                row_a = adj[a] = {}
            row_b = adj.get(b)
            if row_b is None:
                row_b = adj[b] = {}
            if b in row_a:
                raise GraphError(f"edge ({a}, {b}) already present")
            row_a[b] = row_b[a] = Edge(a, b, weight)
            count += 1
        # One stamp per node created and per edge inserted, as add_node and
        # add_edge count them.
        graph._version = len(adj) + count
        return graph

    def add_edge(self, u: int, v: int, weight: int = 1) -> Edge:
        """Insert the edge ``{u, v}`` with the given weight.

        Both endpoints are created if absent.  Raises :class:`GraphError` if
        the edge already exists (use :meth:`set_weight` to change a weight).
        """
        a, b = self._edge_key(u, v, weight)
        self.add_node(a)
        self.add_node(b)
        if b in self._adj[a]:
            raise GraphError(f"edge ({a}, {b}) already present")
        edge = Edge(a, b, weight)
        self._adj[a][b] = edge
        self._adj[b][a] = edge
        self._splice(edge, insert=True)
        return edge

    def remove_edge(self, u: int, v: int) -> Edge:
        """Delete the edge ``{u, v}`` and return it."""
        a, b = edge_key(u, v)
        try:
            edge = self._adj[a].pop(b)
            del self._adj[b][a]
        except KeyError as exc:
            raise GraphError(f"edge ({a}, {b}) not present") from exc
        self._splice(edge, insert=False)
        return edge

    def remove_node(self, node: int) -> None:
        """Delete ``node`` and all its incident edges."""
        if node not in self._adj:
            raise GraphError(f"node {node} not present")
        # Dropped first, so the edge deletions below do not splice.
        self._columnar_cache = None
        for other in list(self._adj[node]):
            self.remove_edge(node, other)
        del self._adj[node]
        self._version += 1

    def set_weight(self, u: int, v: int, weight: int) -> Edge:
        """Change the weight of an existing edge and return the new Edge."""
        a, b = self._edge_key(u, v, weight)
        if not self.has_edge(a, b):
            raise GraphError(f"edge ({a}, {b}) not present")
        self.remove_edge(a, b)
        return self.add_edge(a, b, weight)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def has_node(self, node: int) -> bool:
        return node in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        a, b = edge_key(u, v)
        return a in self._adj and b in self._adj[a]

    def get_edge(self, u: int, v: int) -> Edge:
        a, b = edge_key(u, v)
        try:
            return self._adj[a][b]
        except KeyError as exc:
            raise GraphError(f"edge ({a}, {b}) not present") from exc

    def nodes(self) -> List[int]:
        """All node IDs, in sorted order (deterministic iteration)."""
        return sorted(self._adj)

    def edges(self) -> List[Edge]:
        """All edges, each reported once, sorted by (u, v)."""
        result = []
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    result.append(self._adj[u][v])
        return result

    def neighbors(self, node: int) -> List[int]:
        """IDs of the neighbours of ``node`` (the KT1 knowledge), sorted."""
        try:
            return sorted(self._adj[node])
        except KeyError as exc:
            raise GraphError(f"node {node} not present") from exc

    def incident_edges(self, node: int) -> List[Edge]:
        """Edges incident to ``node``, sorted by the other endpoint's ID."""
        try:
            return [self._adj[node][v] for v in sorted(self._adj[node])]
        except KeyError as exc:
            raise GraphError(f"node {node} not present") from exc

    def degree(self, node: int) -> int:
        try:
            return len(self._adj[node])
        except KeyError as exc:
            raise GraphError(f"node {node} not present") from exc

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges())

    # ------------------------------------------------------------------ #
    # paper-specific encodings
    # ------------------------------------------------------------------ #
    def edge_number(self, u: int, v: int) -> int:
        """The paper's edge number of ``{u, v}`` (IDs concatenated, smallest first)."""
        a, b = edge_key(u, v)
        return (a << self._id_bits) | b

    def edge_from_number(self, number: int) -> Optional[Edge]:
        """Decode an edge number back to the edge, or ``None`` if absent."""
        mask = (1 << self._id_bits) - 1
        v = number & mask
        u = number >> self._id_bits
        if u <= 0 or v <= 0 or u >= v:
            return None
        if self.has_node(u) and self.has_node(v) and self.has_edge(u, v):
            return self.get_edge(u, v)
        return None

    def augmented_weight(self, u: int, v: int) -> int:
        """Unique weight of ``{u, v}``: weight concatenated with the edge number."""
        return self.get_edge(u, v).augmented_weight(self._id_bits)

    def edge_from_augmented_weight(self, aug: int) -> Optional[Edge]:
        """Decode an augmented weight back to the edge, or ``None`` if absent."""
        edge_number = aug & ((1 << (2 * self._id_bits)) - 1)
        edge = self.edge_from_number(edge_number)
        if edge is None:
            return None
        if edge.augmented_weight(self._id_bits) != aug:
            return None
        return edge

    # The global maxima are O(1) reads of the current snapshot when one is
    # cached, and an O(m) scan otherwise (the reference tier never builds
    # one).
    def max_edge_number(self) -> int:
        """``maxEdgeNum`` over the whole graph (0 for an edgeless graph)."""
        cols = self._columnar_cache
        if cols is not None:
            return cols.max_number
        return max((e.edge_number(self._id_bits) for e in self.edges()), default=0)

    def max_weight(self) -> int:
        """Maximum raw edge weight (0 for an edgeless graph)."""
        cols = self._columnar_cache
        if cols is not None:
            # The weight is the top bits of the heaviest augmented weight.
            return cols.max_augmented >> (2 * self._id_bits)
        return max((e.weight for e in self.edges()), default=0)

    def max_augmented_weight(self) -> int:
        """Maximum augmented weight (0 for an edgeless graph)."""
        cols = self._columnar_cache
        if cols is not None:
            return cols.max_augmented
        return max(
            (e.augmented_weight(self._id_bits) for e in self.edges()), default=0
        )

    # ------------------------------------------------------------------ #
    # fast-path snapshot (version-stamped; see repro.fastpath)
    # ------------------------------------------------------------------ #
    def incident_arrays(self, node: int) -> IncidentArrays:
        """``node``'s row of :meth:`columnar`, sliced afresh on every call.

        A convenience view for inspection; the sketch kernels read the
        snapshot's rows directly.
        """
        cols = self.columnar()
        start, stop = cols.slice_of(node)
        return IncidentArrays(
            cols.numbers[start:stop], cols.augmented[start:stop], cols.up[start:stop]
        )

    def columnar(self) -> ColumnarGraph:
        """The :class:`~repro.network.columnar.ColumnarGraph` snapshot at :attr:`version`.

        Built by :meth:`ColumnarGraph.from_graph` on the first read and
        cached.  Each later edge insertion or deletion replaces the cache
        with :meth:`ColumnarGraph.spliced`, a new immutable snapshot stamped
        with the new version, so a repair's reads never rebuild.  A node
        insertion or deletion, or a splice that would flip ``fits64``,
        drops the cache and the next read rebuilds it.
        """
        cache = self._columnar_cache
        if cache is None:
            cache = ColumnarGraph.from_graph(self)
            self._columnar_cache = cache
        return cache

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def connected_components(self) -> List[Set[int]]:
        """Connected components of the graph, as sets of node IDs."""
        seen: Set[int] = set()
        components: List[Set[int]] = []
        for start in self.nodes():
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                node = stack.pop()
                for nbr in self._adj[node]:
                    if nbr not in seen:
                        seen.add(nbr)
                        comp.add(nbr)
                        stack.append(nbr)
            components.append(comp)
        return components

    def is_connected(self) -> bool:
        return self.num_nodes <= 1 or len(self.connected_components()) == 1

    def subgraph(self, nodes: Iterable[int]) -> "Graph":
        """A new graph induced on ``nodes`` (same ``id_bits``)."""
        keep = set(nodes)
        for node in keep:
            if not self.has_node(node):
                raise GraphError(f"node {node} not present")
        return Graph.from_edges(
            self._id_bits,
            keep,
            [
                (edge.u, edge.v, edge.weight)
                for edge in self.edges()
                if edge.u in keep and edge.v in keep
            ],
        )

    def copy(self) -> "Graph":
        """An independent graph with the same nodes, edges and :attr:`version`.

        Copies the adjacency dicts in ``O(n + m)`` and shares the frozen
        :class:`Edge` objects; the columnar snapshot is not shared, so the
        copy builds its own on first read.
        """
        dup = Graph(id_bits=self._id_bits)
        dup._adj = {node: dict(nbrs) for node, nbrs in self._adj.items()}
        dup._version = self._version
        return dup

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes())

    def __contains__(self, node: int) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_nodes}, m={self.num_edges}, id_bits={self._id_bits})"

    # ------------------------------------------------------------------ #
    # internal helpers
    # ------------------------------------------------------------------ #
    def _splice(self, edge: Edge, insert: bool) -> None:
        """Bump the version and splice ``edge`` into the cached snapshot, if any."""
        self._version += 1
        cache = self._columnar_cache
        if cache is not None:
            self._columnar_cache = cache.spliced(edge, self._version, insert)

    def _check_id(self, node: int) -> None:
        if not isinstance(node, int) or isinstance(node, bool):
            raise GraphError(f"node IDs must be integers, got {node!r}")
        if node < 1 or node >= self._id_limit:
            raise GraphError(
                f"node ID {node} outside the ID space [1, 2^{self._id_bits})"
            )

    def _edge_key(self, u: int, v: int, weight: int) -> Tuple[int, int]:
        """The canonical key of a new edge ``{u, v}``, once it is valid.

        The one check of :meth:`add_edge`, :meth:`set_weight` and
        :meth:`from_edges`: both IDs (in order), then the self-loop, then the
        weight, each failing with its own :class:`GraphError` before the
        graph changes.  Plain ints in range pass the first test alone.
        """
        limit = self._id_limit
        if (
            type(u) is int
            and type(v) is int
            and type(weight) is int
            and 0 < u < limit
            and 0 < v < limit
            and u != v
            and weight >= 0
        ):
            return (u, v) if u < v else (v, u)
        self._check_id(u)
        self._check_id(v)
        key = edge_key(u, v)
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise GraphError(f"Edge weights must be integers, got {weight!r}")
        if weight < 0:
            raise GraphError(f"Edge weights must be non-negative, got {weight}")
        return key
