"""The non-impromptu dynamic baseline: recompute the tree after every update.

Without the paper's machinery, the obvious way to keep a spanning tree or MST
correct under edge updates is to rebuild it from scratch (flooding for an ST,
GHS for an MST) whenever an update might have changed it.  The per-update
message cost is then Θ(m) / Θ(m + n log n) — this is the baseline the
``repair-vs-recompute`` claim of :mod:`repro.claims` compares the impromptu
repairs against.

Registered in the runner API as ``recompute-repair`` —
``repro.run("recompute-repair", spec, updates=...)`` drives a
:class:`RecomputeMaintainer` through the standard churn workload, one wave
(:meth:`RecomputeMaintainer.apply_batch`) at a time.
"""

from __future__ import annotations

from typing import Optional

from ..network.accounting import CostDelta, MessageAccountant
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Graph, edge_key
from .flooding_st import flooding_spanning_tree
from .ghs import GHSBuildMST

__all__ = ["RecomputeMaintainer"]


class RecomputeMaintainer:
    """Maintain a spanning tree / MST by full recomputation after each update."""

    def __init__(self, graph: Graph, mode: str = "mst", accountant: Optional[MessageAccountant] = None):
        if mode not in ("mst", "st"):
            raise AlgorithmError("mode must be 'mst' or 'st'")
        self.graph = graph
        self.mode = mode
        self.accountant = accountant if accountant is not None else MessageAccountant()
        self.forest = SpanningForest(graph)
        self._rebuild()

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def apply_batch(self, updates) -> CostDelta:
        """Apply a wave of updates with a single rebuild at the end.

        A wave of one is per-update recomputation.  A larger wave lands all
        its mutations first, then one flooding/GHS pass restores the tree —
        a trivial (but honest) k× amortization for the baseline, and the
        final forest is identical to sequential processing because the
        rebuild only depends on the final graph.  Waves that would not have
        triggered any rebuild sequentially (ST-mode weight changes) still
        trigger none.
        """
        start = self.accountant.snapshot()
        rebuild = False
        for update in updates:
            kind = update.kind.value
            key = edge_key(update.u, update.v)
            if kind == "insert":
                self.graph.add_edge(key[0], key[1], update.effective_weight)
                rebuild = True
            elif kind == "delete":
                self.graph.remove_edge(*key)
                rebuild = True
            else:
                self.graph.set_weight(key[0], key[1], update.effective_weight)
                rebuild = rebuild or self.mode == "mst"
        if rebuild:
            self._rebuild()
        return self.accountant.since(start)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _rebuild(self) -> None:
        self.forest.clear()
        if self.graph.num_edges == 0:
            return
        if self.mode == "mst":
            builder = GHSBuildMST(self.graph, accountant=self.accountant)
            report = builder.run()
            self.forest = report.forest
        else:
            # Default flooding covers every component (one flood per
            # component from its smallest node), so the forest is spanning
            # even after deletions disconnected the graph.
            forest, _ = flooding_spanning_tree(
                self.graph, accountant=self.accountant
            )
            self.forest = forest
