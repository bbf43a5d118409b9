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

The asynchronous model of Theorem 1.2 is honoured because every step is a
broadcast-and-echo (self-synchronizing) or a single point-to-point message;
tests exercise the underlying primitive under adversarial schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..network.accounting import CostDelta, MessageAccountant
from ..network.errors import AlgorithmError, GraphError
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph, edge_key
from .config import AlgorithmConfig
from .findany import FindAny
from .findmin import FindMin, FindResult

__all__ = ["RepairReport", "TreeRepairer", "BatchRepairReport", "BatchRepairer"]


@dataclass
class RepairReport:
    """What a single update did to the maintained tree."""

    action: str
    updated_edge: Tuple[int, int]
    was_tree_edge: bool
    replacement: Optional[Edge]
    removed: Optional[Edge]
    bridge: bool
    cost: CostDelta

    @property
    def changed_tree(self) -> bool:
        return self.replacement is not None or self.removed is not None or self.was_tree_edge


class TreeRepairer:
    """Impromptu repair driver for a maintained MST (``mode="mst"``) or ST."""

    def __init__(
        self,
        graph: Graph,
        forest: SpanningForest,
        config: Optional[AlgorithmConfig] = None,
        accountant: Optional[MessageAccountant] = None,
        mode: str = "mst",
    ) -> None:
        if mode not in ("mst", "st"):
            raise AlgorithmError("mode must be 'mst' or 'st'")
        self.graph = graph
        self.forest = forest
        self.config = (
            config if config is not None else AlgorithmConfig(n=max(graph.num_nodes, 1))
        )
        self.accountant = accountant if accountant is not None else MessageAccountant()
        self.mode = mode
        self._findmin = FindMin(graph, forest, self.config, self.accountant)
        self._findany = FindAny(graph, forest, self.config, self.accountant)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def delete_edge(self, u: int, v: int) -> RepairReport:
        """Process the deletion of the edge ``{u, v}`` (paper's Delete)."""
        start = self.accountant.snapshot()
        key = edge_key(u, v)
        if not self.graph.has_edge(*key):
            raise GraphError(f"cannot delete non-existent edge {key}")
        was_tree_edge = self.forest.is_marked(*key)
        self.graph.remove_edge(*key)
        self.forest.unmark(*key)

        if not was_tree_edge:
            return self._report("delete", key, False, None, None, False, start)

        initiator = key[0]  # the smaller-ID endpoint initiates (paper: u < v)
        replacement, bridge = self._find_replacement(initiator)
        return self._report("delete", key, True, replacement, None, bridge, start)

    def insert_edge(self, u: int, v: int, weight: int = 1) -> RepairReport:
        """Process the insertion of the edge ``{u, v}`` (paper's Insert)."""
        start = self.accountant.snapshot()
        key = edge_key(u, v)
        self.graph.add_edge(key[0], key[1], weight)
        _, replacement, removed = self._settle_candidate(key)
        return self._report("insert", key, False, replacement, removed, False, start)

    def increase_weight(self, u: int, v: int, new_weight: int) -> RepairReport:
        """Weight increase: like a delete for tree edges, a no-op otherwise."""
        start = self.accountant.snapshot()
        key = edge_key(u, v)
        edge = self.graph.get_edge(*key)
        if new_weight < edge.weight:
            raise AlgorithmError("increase_weight called with a smaller weight")
        was_tree_edge = self.forest.is_marked(*key)
        self.graph.set_weight(key[0], key[1], new_weight)

        if not was_tree_edge or self.mode == "st":
            # Non-tree edges only get heavier (still not needed); an ST does
            # not care about weights at all.
            return self._report("increase_weight", key, was_tree_edge, None, None, False, start)

        # Temporarily drop the edge from the tree and look for the lightest
        # edge across the cut it used to cover — possibly itself.
        self.forest.unmark(*key)
        initiator = key[0]
        replacement, bridge = self._find_replacement(initiator)
        if replacement is None and not bridge:
            # The Monte Carlo search exhausted its budget; fall back to
            # keeping the (now heavier) edge so the tree stays spanning.
            self.forest.mark(*key)
            replacement = self.graph.get_edge(*key)
        removed = None if replacement == self.graph.get_edge(*key) else self.graph.get_edge(*key)
        return self._report("increase_weight", key, True, replacement, removed, bridge, start)

    def decrease_weight(self, u: int, v: int, new_weight: int) -> RepairReport:
        """Weight decrease: like an insert for non-tree edges, a no-op otherwise."""
        start = self.accountant.snapshot()
        key = edge_key(u, v)
        edge = self.graph.get_edge(*key)
        if new_weight > edge.weight:
            raise AlgorithmError("decrease_weight called with a larger weight")
        was_tree_edge = self.forest.is_marked(*key)
        self.graph.set_weight(key[0], key[1], new_weight)
        if was_tree_edge or self.mode == "st":
            # A tree edge that gets lighter stays in the MST; an ST ignores weights.
            return self._report("decrease_weight", key, was_tree_edge, None, None, False, start)

        initiator, other = key
        in_same_tree, heaviest = self._path_query(initiator, other)
        if not in_same_tree:
            raise AlgorithmError(
                "a non-tree edge with endpoints in different maintained trees "
                "violates the spanning invariant"
            )
        assert heaviest is not None
        new_edge = self.graph.get_edge(*key)
        if heaviest.augmented_weight(self.graph.id_bits) > new_edge.augmented_weight(
            self.graph.id_bits
        ):
            self._findmin.tester.executor.broadcast_only(
                root=initiator, broadcast_bits=2 * self.graph.id_bits, kind="remove_edge"
            )
            self._charge_edge_message(key)
            self.forest.unmark(heaviest.u, heaviest.v)
            self.forest.mark(*key)
            return self._report("decrease_weight", key, False, new_edge, heaviest, False, start)
        return self._report("decrease_weight", key, False, None, None, False, start)

    # ------------------------------------------------------------------ #
    # building blocks
    # ------------------------------------------------------------------ #
    def _settle_candidate(self, key: Tuple[int, int]) -> Tuple[str, Optional[Edge], Optional[Edge]]:
        """Path-query an unmarked existing edge and apply the cut/cycle rule.

        Returns ``(action, replacement, removed)`` with ``action`` one of
        ``"joined"`` (endpoints were in different trees; the edge joins the
        forest), ``"swapped"`` (MST mode: the edge evicted the heaviest edge
        on the tree cycle it closed), or ``"kept"`` (the forest is unchanged).
        """
        initiator, other = key
        in_same_tree, heaviest = self._path_query(initiator, other)
        if not in_same_tree:
            # The edge joins two maintained trees; one message across it
            # tells the other endpoint to mark.
            self._charge_edge_message(key)
            self.forest.mark(*key)
            return "joined", self.graph.get_edge(*key), None

        if self.mode == "st":
            # A spanning tree ignores redundant edges.
            return "kept", None, None

        assert heaviest is not None
        new_edge = self.graph.get_edge(*key)
        if heaviest.augmented_weight(self.graph.id_bits) > new_edge.augmented_weight(
            self.graph.id_bits
        ):
            # Swap: broadcast the removal of the heaviest path edge, mark the
            # new one.
            self._findmin.tester.executor.broadcast_only(
                root=initiator, broadcast_bits=2 * self.graph.id_bits, kind="remove_edge"
            )
            self._charge_edge_message(key)
            self.forest.unmark(heaviest.u, heaviest.v)
            self.forest.mark(*key)
            return "swapped", new_edge, heaviest
        return "kept", None, None

    def _find_replacement(self, initiator: int) -> Tuple[Optional[Edge], bool]:
        """Search for the replacement edge across the cut (FindMin/FindAny).

        Returns ``(edge_or_None, bridge)`` where ``bridge`` means the search
        certified that no replacement exists.  On a budget-exhausted ∅ the
        search is retried (FindMin / FindAny already retry internally with
        w.h.p. guarantees; an extra outer retry keeps the maintained forest
        spanning even in the astronomically unlikely total-failure case,
        while charging the extra messages honestly).
        """
        for _ in range(3):
            result = self._search(initiator)
            if result.edge is not None:
                self._announce_replacement(initiator, result.edge)
                return result.edge, False
            if result.verified_empty:
                return None, True
        return None, False

    def _search(self, initiator: int) -> FindResult:
        if self.mode == "mst":
            return self._findmin.find_min(initiator)
        return self._findany.find_any(initiator)

    def _announce_replacement(self, initiator: int, edge: Edge) -> None:
        """Broadcast the replacement over ``T_initiator`` and mark it."""
        component_size = len(self.forest.component_of(initiator))
        if component_size > 1:
            self._findmin.tester.executor.broadcast_only(
                root=initiator, broadcast_bits=2 * self.graph.id_bits, kind="add_edge"
            )
        self._charge_edge_message((edge.u, edge.v))
        self.forest.mark(edge.u, edge.v)

    def _path_query(self, root: int, target: int) -> Tuple[bool, Optional[Edge]]:
        """One B&E over ``T_root``: is ``target`` there, and if so which is the
        heaviest edge on the tree path from ``root`` to ``target``?"""
        id_bits = self.graph.id_bits
        executor = self._findmin.tester.executor
        tree = self.forest.rooted_structure(root)

        def propagate(parent_state, parent: int, child: int):
            edge = self.graph.get_edge(parent, child)
            if parent_state is None:
                return edge
            if edge.augmented_weight(id_bits) > parent_state.augmented_weight(id_bits):
                return edge
            return parent_state

        answer = executor.broadcast_with_downward_state(
            root=root,
            target=target,
            initial_state=None,
            propagate=propagate,
            broadcast_bits=2 * id_bits + self.graph.max_weight().bit_length() + 2,
            echo_bits=2 * id_bits + self.graph.max_weight().bit_length() + 2,
            # target == root leaves the path empty (a self-loop insert is
            # rejected earlier): same tree, no path edge.
            collect=lambda _node, heaviest: (True, heaviest),
            tree=tree,
            kind="path_query",
        )
        return answer if answer is not None else (False, None)

    def _charge_edge_message(self, key: Tuple[int, int]) -> None:
        self._findmin.tester.executor.point_to_point_along_edge(
            key[0], key[1], size_bits=2 * self.graph.id_bits, kind="mark_edge"
        )

    def _report(
        self,
        action: str,
        key: Tuple[int, int],
        was_tree_edge: bool,
        replacement: Optional[Edge],
        removed: Optional[Edge],
        bridge: bool,
        start,
    ) -> RepairReport:
        return RepairReport(
            action=action,
            updated_edge=key,
            was_tree_edge=was_tree_edge,
            replacement=replacement,
            removed=removed,
            bridge=bridge,
            cost=self.accountant.since(start),
        )


@dataclass
class BatchRepairReport:
    """What one coalesced repair round did for a whole wave of updates.

    Per-update attribution intentionally does not exist in batched mode: the
    wave shares one repair round, so costs are accounted *per wave* and the
    per-update figure is the amortized ``cost.messages / size``.  The
    correctness contract is final-forest equality with sequential processing
    (exact in MST mode, where the distinct augmented weights make the
    maintained forest the unique minimum spanning forest of the current
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
    cost: CostDelta

    @property
    def saved_queries(self) -> int:
        """Repair queries the wave avoided versus sequential processing."""
        return self.skipped_candidates


class BatchRepairer:
    """One coalesced repair round for a wave of updates (Theorem 1.2, amortized).

    Sequential impromptu repair pays the full FindMin/FindAny + path-query
    machinery per event.  A wave of ``k`` events is instead processed in
    three phases sharing the tree-structure cache, incident arrays and
    columnar sketch columns at a single stable graph version:

    1. **Coalesce** — walk the wave in stream order (validating exactly like
       sequential mode), applying removals and weight increases to the graph
       and collecting their *holes* (tree edges lost — each remembers both
       endpoints, either may initiate repair), while insertions and
       weight decreases of non-tree edges are *deferred* as candidates;
       insert+delete pairs annihilate on the spot, costing nothing.
    2. **Reconnect** — repair the holes, smallest current fragment first;
       each runs one FindMin (MST) / FindAny (ST) from its initiator's
       fragment and marks the replacement.  With ``j`` holes in a component
       that stays connected, each pop still sees at least two fragments, so
       ``j`` pops provably restore spanning — no extra searches are needed.
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

    Each hole/candidate uses the per-update derived config of its original
    stream position, so a wave of size 1 follows the sequential code path
    with identical counters.  The ``make_repairer`` callback maps a 0-based
    wave index to that update's fresh :class:`TreeRepairer`.
    """

    def __init__(
        self,
        graph: Graph,
        forest: SpanningForest,
        make_repairer: Callable[[int], TreeRepairer],
        mode: str = "mst",
        accountant: Optional[MessageAccountant] = None,
    ) -> None:
        if mode not in ("mst", "st"):
            raise AlgorithmError("mode must be 'mst' or 'st'")
        self.graph = graph
        self.forest = forest
        self.mode = mode
        self.make_repairer = make_repairer
        self.accountant = accountant if accountant is not None else MessageAccountant()

    def run(self, wave: Sequence) -> BatchRepairReport:
        """Apply a wave of :class:`~repro.dynamic.updates.EdgeUpdate`-likes."""
        start = self.accountant.snapshot()
        holes, candidates, annihilated = self._coalesce(wave)
        replacements, bridges = self._reconnect(holes, sequential_initiators=len(wave) == 1)
        joins, swaps = self._settle(candidates)
        return BatchRepairReport(
            size=len(wave),
            holes=len(holes),
            candidates=len(candidates),
            skipped_candidates=annihilated,
            replacements=replacements,
            bridges=bridges,
            joins=joins,
            swaps=swaps,
            cost=self.accountant.since(start),
        )

    # ------------------------------------------------------------------ #
    # phase 1: apply mutations, classify repair work
    # ------------------------------------------------------------------ #
    def _coalesce(self, wave: Sequence):
        # holes: [wave_index, u, v, origin_key] — u < v are the endpoints of
        # the lost tree edge (either may initiate repair); origin_key is set
        # for weight-increase holes whose edge is still in the graph, so a
        # budget-exhausted search can fall back to re-marking it (mirroring
        # sequential increase_weight); cleared if the edge is later deleted.
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
                self.graph.remove_edge(*key)
                self.forest.unmark(*key)
                for hole in holes:
                    if hole[3] == key:
                        hole[3] = None
                if was_tree_edge:
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
                self.graph.set_weight(key[0], key[1], update.weight)
                if was_tree_edge and self.mode == "mst":
                    # Like a delete, except the (heavier) edge remains in the
                    # graph and may legitimately be re-picked by FindMin.
                    self.forest.unmark(*key)
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
                # Singleton wave: follow the sequential code path exactly
                # (the smaller-ID endpoint initiates), so k=1 batches charge
                # bit-identical counters to sequential processing.
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
            repairer = self.make_repairer(index)
            replacement, bridge = repairer._find_replacement(initiator)
            if replacement is not None:
                replacements += 1
            elif bridge:
                bridges += 1
            elif origin is not None and self.graph.has_edge(*origin) and not self.forest.is_marked(*origin):
                # Monte Carlo total failure on a weight-increase hole: keep
                # the heavier edge so the forest stays spanning (sequential
                # increase_weight's fallback).
                self.forest.mark(*origin)
        return replacements, bridges

    # ------------------------------------------------------------------ #
    # phase 3: settle surviving candidates, skipping already-marked ones
    # ------------------------------------------------------------------ #
    def _settle(self, candidates) -> Tuple[int, int]:
        joins = swaps = 0
        for index, key, kind, weight in candidates:
            if kind == "insert":
                self.graph.add_edge(key[0], key[1], weight)
            else:  # deferred decrease of an unmarked edge
                self.graph.set_weight(key[0], key[1], weight)
                if self.forest.is_marked(*key):
                    # Phase 2 re-picked the edge (at its old weight — a
                    # blue-rule choice that only improves as it gets
                    # lighter): a tree edge getting lighter stays put.
                    continue
            repairer = self.make_repairer(index)
            action, _, _ = repairer._settle_candidate(key)
            if action == "joined":
                joins += 1
            elif action == "swapped":
                swaps += 1
        return joins, swaps
