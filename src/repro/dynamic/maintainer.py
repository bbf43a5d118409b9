"""Impromptu maintainers: apply update streams with the paper's repairs.

:class:`TreeMaintainer` owns a graph and its maintained forest and hands each
wave of updates (:class:`~repro.dynamic.updates.EdgeUpdate`) to the one
repair engine, :class:`~repro.core.repair.TreeRepairer`.  A sequential update
(:meth:`TreeMaintainer.apply`, the paper's Theorem 1.2 mode) is a wave of
one.  Crucially for the *impromptu* claim, every wave gets a **fresh**
repairer and every update its own derived config, so no Python object state
can leak information between updates.  The only state that survives is the
graph (each node's incident edges and weights) and the marked-edge set,
exactly the knowledge the paper allows a node to keep.

:meth:`TreeMaintainer.apply_batch` with ``k`` > 1 updates is the batched
mode: the wave shares one repair round in which holes are repaired smallest
fragment first, deferred candidates settle afterwards, and a churn wave's
insert+delete pairs annihilate without any repair work at all.  Costs are
accounted per wave; the correctness contract versus sequential processing is
final-forest equality (exact in MST mode, where distinct augmented weights
make the maintained forest the unique minimum spanning forest of the current
graph).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..core.config import AlgorithmConfig
from ..core.repair import RepairReport, TreeRepairer
from ..network.accounting import MessageAccountant
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Graph
from .updates import EdgeUpdate, UpdateStream

__all__ = ["UpdateOutcome", "TreeMaintainer"]


@dataclass
class UpdateOutcome:
    """One processed wave (a single update in sequential mode) and its report."""

    updates: List[EdgeUpdate]
    report: RepairReport

    @property
    def update(self) -> EdgeUpdate:
        """The update of a wave of one (sequential mode)."""
        (update,) = self.updates
        return update

    @property
    def messages(self) -> int:
        return self.report.cost.messages


class TreeMaintainer:
    """Maintain an MST (``mode="mst"``) or ST under an update stream."""

    def __init__(
        self,
        graph: Graph,
        forest: SpanningForest,
        mode: str = "mst",
        config: Optional[AlgorithmConfig] = None,
        accountant: Optional[MessageAccountant] = None,
        seed: Optional[int] = None,
    ) -> None:
        if mode not in ("mst", "st"):
            raise AlgorithmError("mode must be 'mst' or 'st'")
        if forest.graph is not graph:
            raise AlgorithmError("the forest must be defined over the same graph object")
        self.graph = graph
        self.forest = forest
        self.mode = mode
        self.accountant = accountant if accountant is not None else MessageAccountant()
        self._base_config = config
        self._seed = seed
        self._update_counter = 0
        self.history: List[UpdateOutcome] = []

    # ------------------------------------------------------------------ #
    # applying updates
    # ------------------------------------------------------------------ #
    def apply(self, update: EdgeUpdate) -> UpdateOutcome:
        """Process one update impromptu: a wave of one."""
        return self.apply_batch([update])

    def apply_batch(self, updates: Sequence[EdgeUpdate]) -> UpdateOutcome:
        """Repair a wave of updates in one round and return its outcome.

        Every update in the wave consumes its own slot of the per-update
        derived randomness, wherever the wave boundaries fall.
        """
        wave = list(updates)
        base = self._update_counter
        self._update_counter += len(wave)
        repairer = TreeRepairer(
            self.graph,
            self.forest,
            [self._derived_config(base + index + 1) for index in range(len(wave))],
            mode=self.mode,
            accountant=self.accountant,
        )
        outcome = UpdateOutcome(updates=wave, report=repairer.run(wave))
        self.history.append(outcome)
        return outcome

    def apply_stream(
        self, stream: UpdateStream, batch_size: int = 1
    ) -> List[UpdateOutcome]:
        """Process every update of ``stream`` in order, in waves of ``batch_size``.

        The default waves of one update are the sequential Theorem 1.2 mode.
        """
        if batch_size < 1:
            raise AlgorithmError("batch_size must be >= 1 (1 = one update per wave)")
        updates = list(stream)
        return [
            self.apply_batch(updates[start : start + batch_size])
            for start in range(0, len(updates), batch_size)
        ]

    # ------------------------------------------------------------------ #
    # accounting helpers
    # ------------------------------------------------------------------ #
    def total_messages(self) -> int:
        return sum(outcome.messages for outcome in self.history)

    def messages_per_wave(self) -> List[int]:
        """Messages of each wave so far (of each update, in sequential mode)."""
        return [outcome.messages for outcome in self.history]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _derived_config(self, counter: int) -> AlgorithmConfig:
        """The per-update config: independent randomness for update ``counter``.

        An explicit base config contributes its parameters (and its seed, if
        any) but is never handed to a repairer verbatim — its RNG object
        would leak state across updates, breaking both reproducibility and
        the impromptu no-retained-state claim.
        """
        if self._base_config is not None:
            base_seed = self._base_config.seed if self._base_config.seed is not None else self._seed
            derived_seed = None if base_seed is None else base_seed + 7919 * counter
            return replace(self._base_config, seed=derived_seed)
        derived_seed = None if self._seed is None else self._seed + 7919 * counter
        return AlgorithmConfig(n=max(self.graph.num_nodes, 1), seed=derived_seed)
