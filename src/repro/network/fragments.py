"""Spanning-forest state: the "properly marked" network of the paper.

The paper (Section 1) maintains trees implicitly: every node marks a subset
of its incident edges, the network is *properly marked* when every edge is
marked by both or neither endpoint, and the maintained trees are the
connected components of the marked subgraph.

:class:`SpanningForest` is exactly that state.  It stores the set of marked
edges (canonically keyed), provides the node-local view each processor is
allowed to have (``marked_neighbors``), and offers whole-forest queries used
by the simulation driver and the verifiers (components, cycles, outgoing
edges).  The impromptu property of the repair algorithms is that *this* is
the only state that persists between updates.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import ForestError
from .graph import Edge, Graph, edge_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .tree_cache import TreeStructureCache
    from .broadcast import TreeStructure

__all__ = ["SpanningForest"]

#: How many mutations the journal retains unless the ``journal_limit``
#: constructor argument says otherwise.  A structure cached longer ago than
#: this many mutations is rebuilt instead of patched; the
#: :meth:`~repro.network.tree_cache.TreeStructureCache.stats` hook reports
#: how often an overrun forced a rebuild.
_JOURNAL_LIMIT = 1024


class SpanningForest:
    """The marked-edge state maintained by the network.

    Mutations are version-stamped: every :meth:`mark` / :meth:`unmark` /
    :meth:`clear` bumps :attr:`version` and appends to a bounded journal, so
    the :class:`~repro.network.tree_cache.TreeStructureCache` can patch a
    cached rooted structure on single-edge attach/detach instead of
    rebuilding it per broadcast-and-echo.  A sorted marked-adjacency map is
    maintained incrementally, making :meth:`marked_neighbors` ``O(marked
    degree)`` instead of ``O(degree)``.
    """

    def __init__(
        self,
        graph: Graph,
        marked: Optional[Iterable[Tuple[int, int]]] = None,
        journal_limit: Optional[int] = None,
    ):
        self.graph = graph
        self._marked: Set[Tuple[int, int]] = set()
        self._marked_adj: Dict[int, List[int]] = {}
        self._version = 0
        self._journal: deque = deque()
        self._journal_limit = max(
            _JOURNAL_LIMIT if journal_limit is None else journal_limit, 1
        )
        self._structures: Optional["TreeStructureCache"] = None
        for u, v in marked or []:
            self.mark(u, v)

    @property
    def journal_limit(self) -> int:
        """How many mutations the patch journal retains for this forest."""
        return self._journal_limit

    # ------------------------------------------------------------------ #
    # marking
    # ------------------------------------------------------------------ #
    def mark(self, u: int, v: int) -> None:
        """Mark the existing edge ``{u, v}`` as a tree edge."""
        key = edge_key(u, v)
        if not self.graph.has_edge(*key):
            raise ForestError(f"cannot mark non-existent edge {key}")
        if key in self._marked:
            return
        self._marked.add(key)
        insort(self._marked_adj.setdefault(key[0], []), key[1])
        insort(self._marked_adj.setdefault(key[1], []), key[0])
        self._record("mark", key)

    def unmark(self, u: int, v: int) -> None:
        """Remove the mark from ``{u, v}`` (no-op if it was unmarked)."""
        key = edge_key(u, v)
        if key not in self._marked:
            return
        self._marked.discard(key)
        self._marked_adj[key[0]].remove(key[1])
        self._marked_adj[key[1]].remove(key[0])
        self._record("unmark", key)

    def is_marked(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._marked

    def drop_missing_edges(self) -> List[Tuple[int, int]]:
        """Unmark edges that no longer exist in the graph (after deletions)."""
        gone = [key for key in self._marked if not self.graph.has_edge(*key)]
        for key in gone:
            self.unmark(*key)
        return gone

    def clear(self) -> None:
        self._marked.clear()
        self._marked_adj.clear()
        self._record("clear", (0, 0))

    # ------------------------------------------------------------------ #
    # version stamping / structure cache plumbing
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotonic mutation counter over the marked-edge state."""
        return self._version

    def _record(self, op: str, key: Tuple[int, int]) -> None:
        self._version += 1
        self._journal.append((self._version, op, key[0], key[1]))
        if len(self._journal) > self._journal_limit:
            self._journal.popleft()

    def journal_since(self, version: int) -> Optional[List[Tuple[int, str, int, int]]]:
        """Mutations recorded after ``version``, oldest first.

        Returns ``None`` when the journal no longer reaches back that far
        (the caller must rebuild instead of patching).
        """
        if version == self._version:
            return []
        if not self._journal or self._journal[0][0] > version + 1:
            return None
        return [entry for entry in self._journal if entry[0] > version]

    @property
    def structures(self) -> "TreeStructureCache":
        """The forest's rooted-structure cache (created lazily)."""
        if self._structures is None:
            from .tree_cache import TreeStructureCache

            self._structures = TreeStructureCache(self)
        return self._structures

    def rooted_structure(self, root: int) -> "TreeStructure":
        """Rooted view of ``T_root`` — cached on the fast path.

        With the fast path enabled (see :mod:`repro.fastpath`) this reuses
        and incrementally patches a cached :class:`TreeStructure`; otherwise
        it rebuilds from scratch, exactly like
        :func:`~repro.network.broadcast.build_tree_structure`.
        """
        from .tree_cache import rooted_tree

        return rooted_tree(self, root)

    # ------------------------------------------------------------------ #
    # node-local views (what a processor is allowed to know)
    # ------------------------------------------------------------------ #
    def marked_neighbors(self, node: int) -> List[int]:
        """Neighbours of ``node`` connected by a marked edge (sorted).

        Served from the incremental marked-adjacency map, which assumes the
        "properly marked" invariant: a marked edge exists in the graph.
        Deleting a graph edge therefore requires :meth:`unmark` (what the
        repair algorithms do) or :meth:`drop_missing_edges` *before* the
        forest is traversed again.
        """
        return list(self._marked_adj.get(node, ()))

    def unmarked_incident_edges(self, node: int) -> List[Edge]:
        """Incident edges of ``node`` that are not tree edges (sorted)."""
        return [
            edge
            for edge in self.graph.incident_edges(node)
            if edge_key(edge.u, edge.v) not in self._marked
        ]

    def marked_degree(self, node: int) -> int:
        return len(self.marked_neighbors(node))

    # ------------------------------------------------------------------ #
    # forest-level queries (simulation driver / verification)
    # ------------------------------------------------------------------ #
    @property
    def marked_edges(self) -> Set[Tuple[int, int]]:
        return set(self._marked)

    @property
    def num_marked(self) -> int:
        return len(self._marked)

    def marked_edge_objects(self) -> List[Edge]:
        return [self.graph.get_edge(u, v) for u, v in sorted(self._marked)]

    def total_marked_weight(self) -> int:
        return sum(edge.weight for edge in self.marked_edge_objects())

    def component_of(self, node: int) -> Set[int]:
        """The node set of the maintained tree containing ``node`` (``T_x``)."""
        if not self.graph.has_node(node):
            raise ForestError(f"node {node} not in the graph")
        seen = {node}
        queue = deque([node])
        while queue:
            current = queue.popleft()
            for nbr in self.marked_neighbors(current):
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        return seen

    def components(self) -> List[Set[int]]:
        """All maintained trees (every node belongs to exactly one)."""
        seen: Set[int] = set()
        result: List[Set[int]] = []
        for node in self.graph.nodes():
            if node in seen:
                continue
            comp = self.component_of(node)
            seen |= comp
            result.append(comp)
        return result

    def component_index(self) -> Dict[int, int]:
        """Map node -> index of its component in :meth:`components` order."""
        index: Dict[int, int] = {}
        for i, comp in enumerate(self.components()):
            for node in comp:
                index[node] = i
        return index

    def tree_adjacency(self, component: Iterable[int]) -> Dict[int, List[int]]:
        """Adjacency (over marked edges) restricted to ``component``."""
        comp = set(component)
        return {
            node: [nbr for nbr in self.marked_neighbors(node) if nbr in comp]
            for node in sorted(comp)
        }

    def same_component(self, u: int, v: int) -> bool:
        return v in self.component_of(u)

    def outgoing_edges(self, component: Iterable[int]) -> List[Edge]:
        """Edges of the graph leaving the node set ``component`` (God's view).

        Used only by verifiers and tests; the distributed algorithms never
        call this.
        """
        comp = set(component)
        result = []
        for node in sorted(comp):
            for edge in self.graph.incident_edges(node):
                if (edge.other(node) not in comp) and edge not in result:
                    result.append(edge)
        return result

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #
    def is_forest(self) -> bool:
        """True iff the marked subgraph is acyclic."""
        try:
            self.check_forest()
        except ForestError:
            return False
        return True

    def check_forest(self) -> None:
        """Raise :class:`ForestError` if the marked subgraph contains a cycle."""
        for comp in self.components():
            edges_inside = sum(
                1
                for (u, v) in self._marked
                if u in comp and v in comp
            )
            if edges_inside != len(comp) - 1:
                raise ForestError(
                    f"component {sorted(comp)} has {edges_inside} marked edges; "
                    f"a tree on {len(comp)} nodes must have {len(comp) - 1}"
                )

    def is_spanning(self) -> bool:
        """True iff each maintained tree spans a connected component of the graph."""
        graph_components = {frozenset(c) for c in self.graph.connected_components()}
        forest_components = {frozenset(c) for c in self.components()}
        return graph_components == forest_components

    def cycle_nodes(self, component: Iterable[int]) -> List[int]:
        """Nodes of ``component`` lying on a cycle of the marked subgraph.

        Computed by repeatedly pruning leaves (the 2-core of the marked
        subgraph restricted to the component).  Empty list when the component
        is a tree.  Build-ST's distributed cycle detection (Section 4.2) is
        the message-passing realisation of this; see
        :func:`repro.network.leader_election.detect_cycle`.
        """
        adj = {node: set(nbrs) for node, nbrs in self.tree_adjacency(component).items()}
        queue = deque(node for node, nbrs in adj.items() if len(nbrs) <= 1)
        removed: Set[int] = set()
        while queue:
            node = queue.popleft()
            if node in removed:
                continue
            removed.add(node)
            for nbr in list(adj[node]):
                adj[nbr].discard(node)
                adj[node].discard(nbr)
                if len(adj[nbr]) == 1 and nbr not in removed:
                    queue.append(nbr)
        return sorted(node for node in adj if node not in removed)

    def copy(self) -> "SpanningForest":
        return SpanningForest(
            self.graph, marked=self._marked, journal_limit=self._journal_limit
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpanningForest(marked={len(self._marked)}, "
            f"components={len(self.components())})"
        )
