"""Impromptu repair of an MST or ST under edge updates (Sections 3.2, 4.3).

The repairs are *impromptu*: between updates every node knows only the names
and weights of its incident edges and which of them are marked — exactly the
:class:`~repro.network.fragments.SpanningForest` state — and nothing else is
precomputed or stored.  Each update is processed as follows (Theorem 1.2):

* **Delete / weight increase of a tree edge** ``{u, v}``: the smaller
  endpoint ``u`` initiates ``FindMin`` (MST) or ``FindAny`` (ST) on its side
  ``T_u`` of the broken tree.  If a replacement edge is found it is announced
  with one broadcast over ``T_u`` plus one message across the replacement
  edge, and marked; if the procedure certifies that no edge leaves ``T_u``,
  the deleted edge was a bridge and nothing more is needed.  Expected cost:
  ``O(|T_u| log n / log log n)`` messages for MST, ``O(|T_u|)`` for ST.

* **Insert / weight decrease of an edge** ``{u, v}``: ``u`` runs a single
  broadcast-and-echo over ``T_u`` that simultaneously (a) discovers whether
  ``v ∈ T_u`` and (b) computes the heaviest edge on the tree path from ``u``
  to ``v``.  If ``v`` is in a different tree the new edge joins the forest;
  otherwise it replaces the heaviest path edge iff it is lighter.
  Deterministic, ``O(|T_u|)`` messages.

One engine, :class:`TreeRepairer`, runs these procedures for a *wave* of
updates; a sequential update is simply a wave of one.

The asynchronous model of Theorem 1.2 is honoured because every step is a
broadcast-and-echo (self-synchronizing) or a single point-to-point message;
tests exercise the underlying primitive under adversarial schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..network.accounting import CostDelta, MessageAccountant
from ..network.broadcast import BroadcastEchoExecutor
from ..network.errors import AlgorithmError, GraphError
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph, edge_key
from .config import AlgorithmConfig
from .findany import FindAny
from .findmin import FindMin

__all__ = ["RepairReport", "TreeRepairer"]


@dataclass
class RepairReport:
    """What one repair wave did to the maintained forest.

    For a wave of one this is the update's own report.  A larger wave shares
    one repair round, so costs are accounted *per wave* and the per-update
    figure is the amortized ``cost.messages / size``.  The correctness
    contract for larger waves is final-forest equality with sequential
    processing (exact in MST mode, where the distinct augmented weights make
    the maintained forest the unique minimum spanning forest of the current
    graph), not per-update counter equality.
    """

    size: int
    holes: int
    candidates: int
    #: Updates that annihilated inside the wave (an edge inserted and then
    #: deleted before the wave settles) — their repair work vanished
    #: entirely, path query and FindMin both.
    skipped_candidates: int
    replacements: int
    bridges: int
    joins: int
    swaps: int
    #: Edges the repair marked, in order: hole replacements, joining and
    #: swapped-in candidates.
    marked: List[Edge]
    #: Tree edges the wave unmarked, in order: deleted or weight-increased
    #: tree edges, and the heaviest path edge each swap evicted.
    unmarked: List[Edge]
    cost: CostDelta


class TreeRepairer:
    """Impromptu repair of a wave of updates (Theorem 1.2).

    Sequential impromptu repair pays the full FindMin/FindAny + path-query
    machinery per event.  A wave of ``k`` events is processed in three
    phases sharing the tree-structure cache and the columnar sketch columns
    at a single stable graph version:

    1. **Coalesce** — walk the wave in stream order, validating each update,
       applying removals and weight increases to the graph and collecting
       their *holes* (tree edges lost — each remembers both endpoints,
       either may initiate repair), while insertions and weight decreases
       of non-tree edges are *deferred* as candidates; insert+delete pairs
       annihilate on the spot, costing nothing.
    2. **Reconnect** — repair the holes; each runs one FindMin (MST) /
       FindAny (ST) from its initiator's fragment and marks the
       replacement.  A wave of one follows the paper: the smaller-ID
       endpoint initiates.  A larger wave pops the hole endpoint in the
       smallest current fragment first.  With ``j`` holes in a component
       that stays connected, each pop still sees at least two fragments,
       so ``j`` pops provably restore spanning — no extra searches are
       needed.
    3. **Settle** — replay the deferred candidates in stream order,
       path-querying each with the usual cut/cycle rule.

    Phases 2 and 3 together replay a *canonical sequential ordering* of the
    wave — removals and increases first, then insertions and decreases — so
    in MST mode the final forest equals sequential processing's whp (the
    unique minimum spanning forest under the always-distinct augmented
    weights).  Deferring the candidates is what makes this sound: a FindMin
    that could see a not-yet-settled candidate might consume it as a hole
    replacement and skip the red-rule eviction its settle owes, stranding a
    stale non-MSF edge in the tree.

    ``configs[i]`` is the config (and hence the randomness) of the wave's
    ``i``-th update; every hole or candidate searches with the config of
    the update that caused it, so each update keeps its own fresh coins
    whatever wave it lands in.
    """

    def __init__(
        self,
        graph: Graph,
        forest: SpanningForest,
        configs: Sequence[AlgorithmConfig],
        mode: str = "mst",
        accountant: Optional[MessageAccountant] = None,
    ) -> None:
        if mode not in ("mst", "st"):
            raise AlgorithmError("mode must be 'mst' or 'st'")
        self.graph = graph
        self.forest = forest
        self.configs = configs
        self.mode = mode
        self.accountant = accountant if accountant is not None else MessageAccountant()
        self._executor = BroadcastEchoExecutor(graph, forest, self.accountant)

    def run(self, wave: Sequence) -> RepairReport:
        """Apply a wave of :class:`~repro.dynamic.updates.EdgeUpdate`-likes."""
        if len(wave) > len(self.configs):
            raise AlgorithmError("the wave has more updates than configs")
        start = self.accountant.snapshot()
        self._marked: List[Edge] = []
        self._unmarked: List[Edge] = []
        holes, candidates, annihilated = self._coalesce(wave)
        replacements, bridges = self._reconnect(holes, sequential_initiators=len(wave) == 1)
        joins, swaps = self._settle(candidates)
        return RepairReport(
            size=len(wave),
            holes=len(holes),
            candidates=len(candidates),
            skipped_candidates=annihilated,
            replacements=replacements,
            bridges=bridges,
            joins=joins,
            swaps=swaps,
            marked=self._marked,
            unmarked=self._unmarked,
            cost=self.accountant.since(start),
        )

    # ------------------------------------------------------------------ #
    # phase 1: apply mutations, classify repair work
    # ------------------------------------------------------------------ #
    def _coalesce(self, wave: Sequence):
        # holes: [wave_index, u, v, origin_key] — u < v are the endpoints of
        # the lost tree edge (either may initiate repair); origin_key is set
        # for weight-increase holes whose edge is still in the graph, so a
        # budget-exhausted search can fall back to re-marking it; cleared if
        # the edge is later deleted.
        holes: List[List] = []
        # candidates: [wave_index, key, kind, weight] with kind "insert" or
        # "decrease".  Candidate mutations are NOT applied here: the settle
        # phase replays them one at a time after the holes are repaired, so
        # the wave is processed in a canonical sequential ordering (removals
        # and weight increases first, then insertions and decreases).  This
        # is what makes the final forest order-independent: a FindMin that
        # could see a not-yet-settled candidate might consume it as a hole
        # replacement and silently skip the red-rule eviction its settle
        # owes, stranding a stale non-MSF edge in the tree.
        candidates: List[List] = []
        pending = {}  # key -> candidate entry (deferred, not yet in graph/weight)
        annihilated = 0

        for index, update in enumerate(wave):
            kind = update.kind.value
            key = edge_key(update.u, update.v)
            entry = pending.get(key)
            if kind == "insert":
                if entry is not None or self.graph.has_edge(*key):
                    raise GraphError(f"edge {key} already exists")
                entry = [index, key, "insert", update.effective_weight]
                pending[key] = entry
                candidates.append(entry)
            elif kind == "delete":
                if entry is not None:
                    # An insert (or a decrease of an edge that is then
                    # deleted) annihilates inside the wave: neither side
                    # ever reaches the repair machinery.
                    if entry[2] == "insert":
                        candidates.remove(entry)
                        del pending[key]
                        annihilated += 1
                        continue
                    candidates.remove(entry)
                    del pending[key]
                if not self.graph.has_edge(*key):
                    raise GraphError(f"cannot delete non-existent edge {key}")
                was_tree_edge = self.forest.is_marked(*key)
                removed = self.graph.remove_edge(*key)
                self.forest.unmark(*key)
                for hole in holes:
                    if hole[3] == key:
                        hole[3] = None
                if was_tree_edge:
                    self._unmarked.append(removed)
                    holes.append([index, key[0], key[1], None])
            elif kind == "increase_weight":
                if entry is not None:
                    # Validate against the pending (sequentially current)
                    # weight; the merged mutation settles once, later.
                    if update.weight < entry[3]:
                        raise AlgorithmError("increase_weight called with a smaller weight")
                    original = (
                        None if entry[2] == "insert" else self.graph.get_edge(*key).weight
                    )
                    if original is not None and update.weight >= original:
                        # The decrease was undone: net effect is a plain
                        # increase of an unmarked edge — apply it now.
                        candidates.remove(entry)
                        del pending[key]
                        self.graph.set_weight(key[0], key[1], update.weight)
                    else:
                        entry[3] = update.weight
                    continue
                edge = self.graph.get_edge(*key)
                if update.weight < edge.weight:
                    raise AlgorithmError("increase_weight called with a smaller weight")
                was_tree_edge = self.forest.is_marked(*key)
                heavier = self.graph.set_weight(key[0], key[1], update.weight)
                if was_tree_edge and self.mode == "mst":
                    # Like a delete, except the (heavier) edge remains in the
                    # graph and may legitimately be re-picked by FindMin.
                    self.forest.unmark(*key)
                    self._unmarked.append(heavier)
                    holes.append([index, key[0], key[1], key])
            elif kind == "decrease_weight":
                if entry is not None:
                    if update.weight > entry[3]:
                        raise AlgorithmError("decrease_weight called with a larger weight")
                    entry[3] = update.weight
                    continue
                edge = self.graph.get_edge(*key)
                if update.weight > edge.weight:
                    raise AlgorithmError("decrease_weight called with a larger weight")
                was_tree_edge = self.forest.is_marked(*key)
                if was_tree_edge or self.mode == "st":
                    # A tree edge getting lighter stays in the MST, and an
                    # ST ignores weights entirely — nothing to settle.
                    self.graph.set_weight(key[0], key[1], update.weight)
                else:
                    entry = [index, key, "decrease", update.weight]
                    pending[key] = entry
                    candidates.append(entry)
            else:  # pragma: no cover - exhaustive over UpdateKind
                raise AlgorithmError(f"unknown update kind {kind!r}")
        return holes, candidates, annihilated

    # ------------------------------------------------------------------ #
    # phase 2: one FindMin/FindAny per hole, at the final graph version
    # ------------------------------------------------------------------ #
    def _reconnect(self, holes, sequential_initiators: bool = False) -> Tuple[int, int]:
        replacements = bridges = 0
        pending = list(holes)
        while pending:
            if sequential_initiators:
                # A wave of one is a sequential update: the smaller-ID
                # endpoint initiates, as in the paper.
                index, initiator, _, origin = pending.pop(0)
            else:
                # Pop the hole endpoint that currently sits in the smallest
                # fragment (ties by wave order then endpoint, so runs stay
                # deterministic).  This generalizes the paper's
                # search-from-the-smaller-side rule to a wave: every
                # FindMin/FindAny and its announce broadcast runs over a
                # small fragment instead of the growing merged tree.
                sizes = {}
                for component in self.forest.components():
                    for node in component:
                        sizes[node] = len(component)
                best = min(
                    (sizes.get(hole[end], 1), hole[0], end, i)
                    for i, hole in enumerate(pending)
                    for end in (1, 2)
                )
                hole = pending.pop(best[3])
                index, origin = hole[0], hole[3]
                initiator = hole[best[2]]
            replacement, bridge = self._find_replacement(initiator, self.configs[index])
            if replacement is not None:
                replacements += 1
            elif bridge:
                bridges += 1
            elif origin is not None and self.graph.has_edge(*origin) and not self.forest.is_marked(*origin):
                # Monte Carlo total failure on a weight-increase hole: keep
                # the heavier edge so the forest stays spanning.
                self.forest.mark(*origin)
                self._marked.append(self.graph.get_edge(*origin))
        return replacements, bridges

    # ------------------------------------------------------------------ #
    # phase 3: settle surviving candidates, skipping already-marked ones
    # ------------------------------------------------------------------ #
    def _settle(self, candidates) -> Tuple[int, int]:
        joins = swaps = 0
        for _, key, kind, weight in candidates:
            if kind == "insert":
                self.graph.add_edge(key[0], key[1], weight)
            else:  # deferred decrease of an unmarked edge
                self.graph.set_weight(key[0], key[1], weight)
                if self.forest.is_marked(*key):
                    # Phase 2 re-picked the edge (at its old weight — a
                    # blue-rule choice that only improves as it gets
                    # lighter): a tree edge getting lighter stays put.
                    continue
            action = self._settle_candidate(key)
            if action == "joined":
                joins += 1
            elif action == "swapped":
                swaps += 1
        return joins, swaps

    # ------------------------------------------------------------------ #
    # building blocks
    # ------------------------------------------------------------------ #
    def _settle_candidate(self, key: Tuple[int, int]) -> str:
        """Path-query an unmarked existing edge and apply the cut/cycle rule.

        Returns ``"joined"`` (endpoints were in different trees; the edge
        joins the forest), ``"swapped"`` (MST mode: the edge evicted the
        heaviest edge on the tree cycle it closed), or ``"kept"`` (the
        forest is unchanged).
        """
        initiator, other = key
        in_same_tree, heaviest = self._path_query(initiator, other)
        new_edge = self.graph.get_edge(*key)
        if not in_same_tree:
            # The edge joins two maintained trees; one message across it
            # tells the other endpoint to mark.
            self._charge_edge_message(key)
            self.forest.mark(*key)
            self._marked.append(new_edge)
            return "joined"

        if self.mode == "st":
            # A spanning tree ignores redundant edges.
            return "kept"

        assert heaviest is not None
        id_bits = self.graph.id_bits
        if heaviest.augmented_weight(id_bits) > new_edge.augmented_weight(id_bits):
            # Swap: broadcast the removal of the heaviest path edge, mark the
            # new one.
            self._executor.broadcast_only(
                root=initiator, broadcast_bits=2 * id_bits, kind="remove_edge"
            )
            self._charge_edge_message(key)
            self.forest.unmark(heaviest.u, heaviest.v)
            self.forest.mark(*key)
            self._unmarked.append(heaviest)
            self._marked.append(new_edge)
            return "swapped"
        return "kept"

    def _find_replacement(
        self, initiator: int, config: AlgorithmConfig
    ) -> Tuple[Optional[Edge], bool]:
        """Search for the replacement edge across the cut (FindMin/FindAny).

        Returns ``(edge_or_None, bridge)`` where ``bridge`` means the search
        certified that no replacement exists.  On a budget-exhausted ∅ the
        search is retried (FindMin / FindAny already retry internally with
        w.h.p. guarantees; an extra outer retry keeps the maintained forest
        spanning even in the astronomically unlikely total-failure case,
        while charging the extra messages honestly).
        """
        if self.mode == "mst":
            search = FindMin(self.graph, self.forest, config, self.accountant).find_min
        else:
            search = FindAny(self.graph, self.forest, config, self.accountant).find_any
        for _ in range(3):
            result = search(initiator)
            if result.edge is not None:
                self._announce_replacement(initiator, result.edge)
                return result.edge, False
            if result.verified_empty:
                return None, True
        return None, False

    def _announce_replacement(self, initiator: int, edge: Edge) -> None:
        """Broadcast the replacement over ``T_initiator`` and mark it.

        The initiator knows from its own marks (KT1) whether ``T_initiator``
        has any other node to tell.
        """
        if self.forest.marked_degree(initiator) > 0:
            self._executor.broadcast_only(
                root=initiator, broadcast_bits=2 * self.graph.id_bits, kind="add_edge"
            )
        self._charge_edge_message((edge.u, edge.v))
        self.forest.mark(edge.u, edge.v)
        self._marked.append(edge)

    def _path_query(self, root: int, target: int) -> Tuple[bool, Optional[Edge]]:
        """One B&E over ``T_root``: is ``target`` there, and if so which is the
        heaviest edge on the tree path from ``root`` to ``target``?"""
        id_bits = self.graph.id_bits

        def propagate(parent_state, parent: int, child: int):
            edge = self.graph.get_edge(parent, child)
            if parent_state is None:
                return edge
            if edge.augmented_weight(id_bits) > parent_state.augmented_weight(id_bits):
                return edge
            return parent_state

        # One read of the graph's max weight (O(1) while the columnar
        # snapshot is current) serves both widths.
        width = 2 * id_bits + self.graph.max_weight().bit_length() + 2
        answer = self._executor.broadcast_with_downward_state(
            root=root,
            target=target,
            initial_state=None,
            propagate=propagate,
            broadcast_bits=width,
            echo_bits=width,
            # target == root leaves the path empty (a self-loop update is
            # rejected when the update is built): same tree, no path edge.
            collect=lambda _node, heaviest: (True, heaviest),
            tree=self.forest.rooted_structure(root),
            kind="path_query",
        )
        return answer if answer is not None else (False, None)

    def _charge_edge_message(self, key: Tuple[int, int]) -> None:
        self._executor.point_to_point_along_edge(
            key[0], key[1], size_bits=2 * self.graph.id_bits, kind="mark_edge"
        )
