"""Build-MST: synchronous MST construction (Section 3.3, Lemma 3).

The construction is a distributed Borůvka: the nodes are partitioned into
fragments (initially singletons, each a subtree of the final MST) and in each
synchronous *phase*

1. every fragment elects a leader with the leaf-initiated saturation
   election (Section 3.3 / [18]);
2. the leader runs ``FindMin-C`` to find the minimum-weight edge leaving its
   fragment;
3. the result is broadcast inside the fragment, the fragment endpoint of the
   chosen edge sends an ``Add Edge`` message across it, and both endpoints
   mark it.

Because edge weights are distinct (augmented weights), every chosen edge is
an MST edge and no cycles can form; fragments merge along the chosen edges
and the number of non-maximal fragments drops geometrically, so ``O(log n)``
phases suffice w.h.p.  Each phase costs ``O(n log n / log log n)`` messages
across all fragments, giving the ``O(n log² n / log log n)`` total of
Theorem 1.1.

The construction stops as soon as every fragment's ``FindMin-C`` came back
*verified empty* (the ∅ certified by ``HP-TestOut``), and never runs more
than the paper's ``(40c/C)·lg n`` phases
(:meth:`~repro.core.config.AlgorithmConfig.build_phase_budget`).  A phase
without an added edge costs nothing but its own searches, so the paper's
fixed phase count would add only empty phases.  A fragment that has been
verified maximal is skipped in later phases.

Time accounting: fragments operate in parallel inside a phase, so the round
cost of a phase is the *maximum* over its fragments while messages add up.
The report therefore carries ``rounds_parallel`` (sum over phases of the
per-phase maximum), which is the quantity Theorem 1.1 bounds; the plain
accountant's round counter adds fragments sequentially and overcounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..network.accounting import MessageAccountant, PhaseRecord
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph
from ..network.leader_election import elect_leader
from .config import AlgorithmConfig
from .findmin import FindMin, FindResult

__all__ = ["BuildReport", "BuildMST"]


@dataclass
class BuildReport:
    """Outcome and cost of a Build-MST / Build-ST run."""

    forest: SpanningForest
    phases: int
    messages: int
    bits: int
    rounds_parallel: int
    broadcast_echoes: int
    phase_records: List[PhaseRecord] = field(default_factory=list)

    @property
    def marked_edges(self) -> Set[Tuple[int, int]]:
        return self.forest.marked_edges

    @property
    def is_spanning(self) -> bool:
        return self.forest.is_spanning()


class BuildMST:
    """Synchronous distributed MST construction (Theorem 1.1)."""

    def __init__(
        self,
        graph: Graph,
        config: Optional[AlgorithmConfig] = None,
        accountant: Optional[MessageAccountant] = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise AlgorithmError("cannot build an MST of an empty graph")
        self.graph = graph
        self.config = (
            config if config is not None else AlgorithmConfig(n=graph.num_nodes)
        )
        self.accountant = accountant if accountant is not None else MessageAccountant()
        self.forest = SpanningForest(graph)
        self.finder = FindMin(graph, self.forest, self.config, self.accountant)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> BuildReport:
        """Execute the phases and return the construction report."""
        start = self.accountant.snapshot()
        start_be = self.accountant.broadcast_echoes
        phase_budget = self.config.build_phase_budget()
        maximal: Set[FrozenSet[int]] = set()
        rounds_parallel = 0
        phases_run = 0

        for phase_index in range(phase_budget):
            phase_start = self.accountant.snapshot()
            all_done, phase_rounds, fragments = self._run_phase(maximal)
            phases_run += 1
            rounds_parallel += phase_rounds
            phase_cost = self.accountant.since(phase_start)
            self.accountant.record_phase(
                PhaseRecord(
                    label=f"phase-{phase_index}",
                    messages=phase_cost.messages,
                    bits=phase_cost.bits,
                    rounds=phase_rounds,
                    fragments=fragments,
                )
            )
            if all_done:
                break

        total = self.accountant.since(start)
        return BuildReport(
            forest=self.forest,
            phases=phases_run,
            messages=total.messages,
            bits=total.bits,
            rounds_parallel=rounds_parallel,
            broadcast_echoes=self.accountant.broadcast_echoes - start_be,
            phase_records=self.accountant.phases,
        )

    # ------------------------------------------------------------------ #
    # one Borůvka phase
    # ------------------------------------------------------------------ #
    def _run_phase(
        self, maximal: Set[FrozenSet[int]]
    ) -> Tuple[bool, int, int]:
        """Run one phase.  Returns (all fragments maximal?, rounds, #fragments)."""
        components = self.forest.components()
        chosen_edges: List[Edge] = []
        max_fragment_rounds = 0
        active_fragments = 0
        all_verified = True

        for component in components:
            frozen = frozenset(component)
            if frozen in maximal:
                continue
            active_fragments += 1
            before = self.accountant.snapshot()

            leader = self._elect(component)
            result = self._fragment_search(leader)
            if result.edge is not None:
                self._announce_and_mark(leader, component, result.edge)
                chosen_edges.append(result.edge)
                all_verified = False
            elif result.verified_empty:
                maximal.add(frozen)
            else:
                # Budget-exhausted ∅: the fragment simply tries again next phase.
                all_verified = False

            delta = self.accountant.since(before)
            max_fragment_rounds = max(max_fragment_rounds, delta.rounds)

        self._merge_phase_edges(chosen_edges, maximal)
        if active_fragments == 0:
            return True, 0, 0
        return all_verified and not chosen_edges, max_fragment_rounds, active_fragments

    def _elect(self, component: Set[int]) -> int:
        """Elect the fragment leader (free for singleton fragments)."""
        if len(component) == 1:
            return next(iter(component))
        return elect_leader(self.forest, component, self.accountant).leader  # type: ignore[return-value]

    def _fragment_search(self, leader: int) -> FindResult:
        """The per-fragment search: FindMin-C from the leader."""
        return self.finder.find_min_capped(leader)

    def _announce_and_mark(self, leader: int, component: Set[int], edge: Edge) -> None:
        """Broadcast the chosen edge inside the fragment and send Add Edge.

        The leader broadcasts the result so the fragment endpoint of the edge
        learns it must send ``Add Edge`` across the edge (one extra message);
        both endpoints then mark it.
        """
        id_bits = self.graph.id_bits
        if len(component) > 1:
            self.finder.tester.executor.broadcast_only(
                root=leader, broadcast_bits=2 * id_bits, kind="announce"
            )
        self.finder.tester.executor.point_to_point_along_edge(
            edge.u, edge.v, size_bits=2 * id_bits, kind="add_edge"
        )
        self.forest.mark(edge.u, edge.v)

    def _merge_phase_edges(
        self, chosen_edges: List[Edge], maximal: Set[FrozenSet[int]]
    ) -> None:
        """Invalidate cached 'maximal' certificates of fragments that merged.

        With distinct weights no cycle can appear, so nothing needs to be
        unmarked; but a maximal fragment can only stay cached if it was not
        merged into by someone else's chosen edge.
        """
        if not chosen_edges:
            return
        touched = {edge.u for edge in chosen_edges} | {edge.v for edge in chosen_edges}
        stale = [frozen for frozen in maximal if frozen & touched]
        for frozen in stale:
            maximal.discard(frozen)
