"""`GraphSpec`: the single, serialisable description of an experiment graph.

Every consumer of the library used to carry its own copy of the "density
profile -> edge count" table and the clamping logic (the CLI, the analysis
helpers and the benchmark harness each had a private ``_make_graph``).
:class:`GraphSpec` replaces all of them: it names the graph (nodes, density
profile, weight model, seed) in plain data, builds the actual
:class:`~repro.network.graph.Graph` on demand, and round-trips through JSON
so specs can be shipped to worker processes, written into result records and
compared across runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, Mapping, Optional

from ..generators import (
    assign_adversarial_weights,
    assign_uniform_weights,
    complete_graph,
    random_connected_graph,
)
from ..network.errors import AlgorithmError
from ..network.graph import Graph

__all__ = ["DENSITY_PROFILES", "WEIGHT_MODELS", "GraphSpec", "edge_budget"]


#: Named density profiles: n -> target number of edges (before clamping).
DENSITY_PROFILES: Dict[str, Callable[[int], int]] = {
    "sparse": lambda n: 3 * n,
    "medium": lambda n: int(n ** 1.5),
    "dense": lambda n: n * (n - 1) // 4,
    "complete": lambda n: n * (n - 1) // 2,
}

#: Supported weight models; ``default`` keeps the generator's built-in
#: distinct shuffled weights, the others re-assign raw weights afterwards.
WEIGHT_MODELS = ("default", "uniform", "adversarial")


def edge_budget(nodes: int, density: str) -> int:
    """Edge count for a density profile, clamped to [n-1, n(n-1)/2].

    This is the one definition of the clamping rule; :attr:`GraphSpec.edges`
    reads it.
    """
    try:
        profile = DENSITY_PROFILES[density]
    except KeyError:
        raise AlgorithmError(
            f"unknown density profile {density!r}; "
            f"choose from {', '.join(sorted(DENSITY_PROFILES))}"
        ) from None
    return min(max(profile(nodes), nodes - 1), nodes * (nodes - 1) // 2)


@dataclass(frozen=True)
class GraphSpec:
    """A reproducible graph description: build the same graph anywhere.

    Parameters
    ----------
    nodes:
        Number of nodes ``n >= 1``.
    density:
        One of :data:`DENSITY_PROFILES` (``sparse`` / ``medium`` / ``dense``
        / ``complete``).
    weight_model:
        ``default`` (the generator's distinct shuffled weights), ``uniform``
        (iid weights in ``[1, max_weight]``, stressing the distinctness
        augmentation) or ``adversarial`` (exponentially spread weights).
    seed:
        Seed for both the topology and the weight assignment.  ``None`` means
        fresh randomness — fine interactively, but the experiment engine
        derives a deterministic seed instead so parallel runs are replayable.
    max_weight:
        Raw weight cap used by the ``uniform`` model (defaults to ``2 m``).
    """

    nodes: int
    density: str = "dense"
    weight_model: str = "default"
    seed: Optional[int] = None
    max_weight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise AlgorithmError("a graph needs at least one node")
        if self.density not in DENSITY_PROFILES:
            raise AlgorithmError(
                f"unknown density profile {self.density!r}; "
                f"choose from {', '.join(sorted(DENSITY_PROFILES))}"
            )
        if self.weight_model not in WEIGHT_MODELS:
            raise AlgorithmError(
                f"unknown weight model {self.weight_model!r}; "
                f"choose from {', '.join(WEIGHT_MODELS)}"
            )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @property
    def edges(self) -> int:
        """The number of edges this spec builds."""
        return edge_budget(self.nodes, self.density)

    def build(self) -> Graph:
        """Materialise the graph this spec describes."""
        if self.density == "complete":
            graph = complete_graph(self.nodes, seed=self.seed)
        else:
            graph = random_connected_graph(self.nodes, self.edges, seed=self.seed)
        if self.weight_model == "uniform":
            cap = self.max_weight if self.max_weight is not None else 2 * max(self.edges, 1)
            assign_uniform_weights(graph, cap, seed=self.seed)
        elif self.weight_model == "adversarial":
            assign_adversarial_weights(graph, seed=self.seed)
        return graph

    def with_seed(self, seed: int) -> "GraphSpec":
        """A copy of this spec with ``seed`` filled in."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def content_hash(self) -> str:
        """The sha256 content address of this spec's canonical JSON.

        Equal specs hash equally regardless of how they were constructed;
        see :mod:`repro.api.canonical` for the pinned canonical form.
        """
        from .canonical import content_hash

        return content_hash(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GraphSpec":
        known = {"nodes", "density", "weight_model", "seed", "max_weight"}
        unknown = set(payload) - known
        if unknown:
            raise AlgorithmError(f"unknown GraphSpec fields: {sorted(unknown)}")
        if "nodes" not in payload:
            raise AlgorithmError("GraphSpec payload needs a 'nodes' field")
        return cls(**dict(payload))
