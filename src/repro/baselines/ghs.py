"""The GHS baseline: classic distributed MST with Θ(m + n log n) messages.

Registered in the runner API as ``ghs`` — ``repro.run("ghs", spec)`` wraps
:class:`GHSBuildMST` in a uniform :class:`~repro.api.result.RunResult`.

Gallager, Humblet and Spira's 1983 algorithm (and Awerbuch's 1987 refinement)
was the message-complexity state of the art that the paper improves on.  We
implement the *controlled* (synchronous, phase-aligned) variant at the same
fragment-level abstraction as Build-MST so that the comparison is apples to
apples:

per phase, per fragment —

1. a leader is elected and the fragment identity (the leader ID) is
   broadcast (``O(|T|)`` messages);
2. every node probes its cheapest incident *basic* edge (not a tree edge,
   not previously rejected) with a TEST message; the other endpoint answers
   ACCEPT or REJECT by comparing fragment identities.  A rejected edge is
   never tested again by that node — this is where the ``Θ(m)`` term comes
   from, and why GHS cannot beat ``Ω(m)``: every internal edge must be paid
   for once;
3. the per-node minimum accepted edge is convergecast to the leader, the
   winner is broadcast back, and a CONNECT message crosses it (``O(|T|)``
   messages).

Every TEST/ACCEPT/REJECT/REPORT/CONNECT message is charged individually, so
the measured counts follow ``m + n log n`` — the benchmark in
``benchmarks/bench_build_mst.py`` prints both implementations side by side
in one table.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.build_mst import BuildReport
from ..network.accounting import MessageAccountant, PhaseRecord
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph, edge_key
from ..network.leader_election import elect_leader

__all__ = ["GHSBuildMST", "ghs_build_mst"]


class GHSBuildMST:
    """Controlled-GHS MST construction (the pre-2015 baseline)."""

    def __init__(
        self,
        graph: Graph,
        accountant: Optional[MessageAccountant] = None,
        max_phases: Optional[int] = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise AlgorithmError("cannot build an MST of an empty graph")
        self.graph = graph
        self.accountant = accountant if accountant is not None else MessageAccountant()
        self.forest = SpanningForest(graph)
        # The graph is static during a construction, so the REPORT payload
        # width (an augmented weight plus slack) is fixed for the whole run.
        self._weight_bits = 2 * graph.id_bits + graph.max_weight().bit_length() + 2
        self.max_phases = max_phases if max_phases is not None else 4 * max(graph.num_nodes, 2).bit_length() + 8
        # Per-node set of permanently rejected incident edges (same fragment).
        self._rejected: Dict[int, Set[Tuple[int, int]]] = {
            node: set() for node in graph.nodes()
        }

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> BuildReport:
        start = self.accountant.snapshot()
        start_be = self.accountant.broadcast_echoes
        rounds_parallel = 0
        phases_run = 0

        for phase_index in range(self.max_phases):
            phase_start = self.accountant.snapshot()
            chosen, phase_rounds, fragments = self._run_phase()
            phases_run += 1
            rounds_parallel += phase_rounds
            phase_cost = self.accountant.since(phase_start)
            self.accountant.record_phase(
                PhaseRecord(
                    label=f"ghs-phase-{phase_index}",
                    messages=phase_cost.messages,
                    bits=phase_cost.bits,
                    rounds=phase_rounds,
                    fragments=fragments,
                )
            )
            if not chosen:
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
    # one phase
    # ------------------------------------------------------------------ #
    def _run_phase(self) -> Tuple[List[Edge], int, int]:
        components = self.forest.components()
        fragment_of: Dict[int, int] = {}
        leaders: Dict[int, int] = {}
        for index, component in enumerate(components):
            leader = self._elect(component)
            leaders[index] = leader
            for node in component:
                fragment_of[node] = index

        id_bits = self.graph.id_bits
        chosen_edges: List[Edge] = []
        max_fragment_rounds = 0

        for index, component in enumerate(components):
            before = self.accountant.snapshot()
            size = len(component)

            # Broadcast the fragment identity so nodes can answer TESTs.
            if size > 1:
                self.accountant.record_messages(size - 1, id_bits, kind="ghs:initiate")
                self.accountant.record_rounds(self._diameter_bound(size))

            best: Optional[Edge] = None
            for node in sorted(component):
                candidate = self._probe_cheapest_outgoing(node, fragment_of)
                if candidate is not None:
                    if best is None or self._aug(candidate) < self._aug(best):
                        best = candidate

            # Convergecast of per-node minima to the leader.
            if size > 1:
                self.accountant.record_messages(size - 1, self._weight_bits, kind="ghs:report")
                self.accountant.record_rounds(self._diameter_bound(size))

            if best is not None:
                # Broadcast the winner and send CONNECT across it.
                if size > 1:
                    self.accountant.record_messages(size - 1, 2 * id_bits, kind="ghs:chosen")
                self.accountant.record_messages(1, 2 * id_bits, kind="ghs:connect")
                self.accountant.record_rounds(self._diameter_bound(size) + 1)
                chosen_edges.append(best)

            delta = self.accountant.since(before)
            max_fragment_rounds = max(max_fragment_rounds, delta.rounds)

        for edge in chosen_edges:
            self.forest.mark(edge.u, edge.v)
        return chosen_edges, max_fragment_rounds, len(components)

    # ------------------------------------------------------------------ #
    # node-level probing
    # ------------------------------------------------------------------ #
    def _probe_cheapest_outgoing(
        self, node: int, fragment_of: Dict[int, int]
    ) -> Optional[Edge]:
        """TEST incident basic edges in weight order until one is ACCEPTed.

        Every TEST costs two messages (TEST + ACCEPT/REJECT).  Rejected edges
        are remembered by the node and never probed again — the classic GHS
        charging argument.
        """
        candidates = sorted(
            (
                edge
                for edge in self.graph.incident_edges(node)
                if not self.forest.is_marked(edge.u, edge.v)
                and edge_key(edge.u, edge.v) not in self._rejected[node]
            ),
            key=self._aug,
        )
        for edge in candidates:
            other = edge.other(node)
            self.accountant.record_messages(2, 2 * self.graph.id_bits, kind="ghs:test")
            self.accountant.record_rounds(2)
            if fragment_of[other] == fragment_of[node]:
                self._rejected[node].add(edge_key(edge.u, edge.v))
                continue
            return edge
        return None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _elect(self, component: Set[int]) -> int:
        if len(component) == 1:
            return next(iter(component))
        return elect_leader(self.forest, component, self.accountant).leader  # type: ignore[return-value]

    def _aug(self, edge: Edge) -> int:
        return edge.augmented_weight(self.graph.id_bits)

    @staticmethod
    def _diameter_bound(size: int) -> int:
        """Round cost of one sweep over a fragment of ``size`` nodes."""
        return max(size - 1, 1)


def ghs_build_mst(graph: Graph, accountant: Optional[MessageAccountant] = None) -> BuildReport:
    """Convenience wrapper: run controlled GHS and return its report."""
    return GHSBuildMST(graph, accountant=accountant).run()
