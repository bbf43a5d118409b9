"""Recording and replaying dynamic-network traces.

Long-running evaluations (and bug reports) want update workloads that can be
saved, inspected and replayed bit-for-bit.  An :class:`UpdateTrace` couples an
initial graph with an update stream and the per-update costs measured when it
was executed; it serialises to a plain JSON document so traces can be checked
into a repository or attached to an issue.

Typical use::

    trace = UpdateTrace.record(graph, forest, stream, maintainer.history)
    trace.save(path)
    ...
    replayed = UpdateTrace.load(path)
    graph, forest = replayed.rebuild_initial_state()
    maintainer = TreeMaintainer(graph, forest, mode=replayed.mode, seed=replayed.seed)
    outcomes = maintainer.apply_stream(replayed.stream())
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Graph
from .maintainer import UpdateOutcome
from .updates import EdgeUpdate, UpdateKind, UpdateStream

__all__ = ["UpdateTrace"]

_FORMAT_VERSION = 1


@dataclass
class UpdateTrace:
    """A serialisable (initial state, update stream, measured costs) triple."""

    id_bits: int
    nodes: List[int]
    edges: List[Tuple[int, int, int]]
    marked_edges: List[Tuple[int, int]]
    updates: List[Dict[str, Union[str, int, None]]]
    costs: List[int] = field(default_factory=list)
    mode: str = "mst"
    seed: Optional[int] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def record(
        cls,
        graph: Graph,
        forest: SpanningForest,
        stream: UpdateStream,
        history: Optional[Sequence[UpdateOutcome]] = None,
        mode: str = "mst",
        seed: Optional[int] = None,
    ) -> "UpdateTrace":
        """Capture the *initial* state plus the stream (and costs if known).

        Call this with the graph/forest as they were **before** the stream was
        applied; ``history`` (the maintainer's outcome list) is optional and
        only used to attach measured per-update costs.
        """
        if history is not None and len(history) != len(stream):
            raise AlgorithmError("history length does not match the stream")
        return cls(
            id_bits=graph.id_bits,
            nodes=graph.nodes(),
            edges=[(e.u, e.v, e.weight) for e in graph.edges()],
            marked_edges=sorted(forest.marked_edges),
            updates=[cls._encode_update(update) for update in stream],
            costs=[outcome.messages for outcome in history] if history else [],
            mode=mode,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def rebuild_initial_state(self) -> Tuple[Graph, SpanningForest]:
        """Reconstruct the initial graph and marked forest."""
        graph = Graph.from_edges(self.id_bits, self.nodes, self.edges)
        forest = SpanningForest(graph, marked=self.marked_edges)
        return graph, forest

    def stream(self) -> UpdateStream:
        """Reconstruct the update stream."""
        return UpdateStream(self._decode_update(entry) for entry in self.updates)

    def total_cost(self) -> int:
        return sum(self.costs)

    def __len__(self) -> int:
        return len(self.updates)

    # ------------------------------------------------------------------ #
    # (de)serialisation
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        payload = {
            "format_version": _FORMAT_VERSION,
            "mode": self.mode,
            "seed": self.seed,
            "id_bits": self.id_bits,
            "nodes": self.nodes,
            "edges": [list(edge) for edge in self.edges],
            "marked_edges": [list(key) for key in self.marked_edges],
            "updates": self.updates,
            "costs": self.costs,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "UpdateTrace":
        payload = json.loads(text)
        version = payload.get("format_version")
        if version != _FORMAT_VERSION:
            raise AlgorithmError(f"unsupported trace format version {version!r}")
        return cls(
            id_bits=payload["id_bits"],
            nodes=list(payload["nodes"]),
            edges=[tuple(edge) for edge in payload["edges"]],
            marked_edges=[tuple(key) for key in payload["marked_edges"]],
            updates=list(payload["updates"]),
            costs=list(payload.get("costs", [])),
            mode=payload.get("mode", "mst"),
            seed=payload.get("seed"),
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "UpdateTrace":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _encode_update(update: EdgeUpdate) -> Dict[str, Union[str, int, None]]:
        return {
            "kind": update.kind.value,
            "u": update.u,
            "v": update.v,
            "weight": update.weight,
        }

    @staticmethod
    def _decode_update(entry: Dict[str, Union[str, int, None]]) -> EdgeUpdate:
        try:
            kind = UpdateKind(str(entry["kind"]))
        except ValueError as exc:
            raise AlgorithmError(f"unknown update kind {entry.get('kind')!r}") from exc
        weight = entry.get("weight")
        return EdgeUpdate(kind, int(entry["u"]), int(entry["v"]), None if weight is None else int(weight))
