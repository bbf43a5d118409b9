"""`FaultSpec`: the fourth axis of an experiment, and the fault registry.

``ExperimentSpec = GraphSpec × WorkloadSpec × ScheduleSpec × FaultSpec``:
a scenario now also names *what goes wrong* while it runs.  A
:class:`FaultSpec` names a registered fault program (via
:func:`register_fault`, mirroring the workload registry) plus its seed and
parameters, and round-trips through JSON like the other three axes.

A fault program is **deterministic and seed-driven**: built against a
concrete graph and forest it yields a :class:`FaultProgram` with two views
of the same fault schedule:

* a *topology view* (:attr:`FaultProgram.stream`) — the edge deletions and
  re-insertions the faults imply, which is exactly what feeds the paper's
  repair algorithms their deletion events (Theorem 1.2) and what pre-damages
  the input graph of a construction run;
* a *kernel view* (:attr:`FaultProgram.injector`) — a
  :class:`~repro.network.faults.FaultInjector` installed at the event
  kernel's delivery boundary, so message-level protocols (flooding, any
  :class:`~repro.network.node.ProtocolNode` protocol) experience crashes,
  dead links and lossy delivery uniformly.

Registered programs
-------------------
``none``
    The fault-free program (the default; old specs without a ``faults``
    field mean exactly this).
``crash-leaves``
    Crash-stop a seed-chosen fraction of the maintained tree's leaves; all
    their incident links fail with them.
``lossy-uniform``
    Drop and/or duplicate every delivered message with fixed probabilities
    (kernel-level only: it implies no topology change).
``partition-heal``
    Cut every link between a seed-chosen node block and the rest at ``at``,
    then heal all of them at ``heal_at``.
``link-storm``
    Fail-stop a burst of random links — the deletion-heavy storm that
    drives ``kkt-repair`` against ``recompute-repair``.
``byz-corrupt`` / ``byz-equivocate`` / ``byz-replay`` / ``byz-silent``
    The Byzantine tier (registered by :mod:`repro.byzantine.programs`): a
    seed-chosen honest-majority subset of nodes lies, equivocates, replays
    stale traffic or falls silent at the kernel's delivery boundary.

Each program declares what it ``acts_on`` (:data:`FAULT_TARGETS`): its kernel
injector's ``deliveries``, the ``updates`` the repair runners consume, or a
lasting ``topology`` change (``partition-heal`` heals every cut, so none).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..dynamic.updates import EdgeUpdate, UpdateStream
from ..network.errors import AlgorithmError
from ..network.faults import FaultInjector
from ..network.fragments import SpanningForest
from ..network.graph import Graph, edge_key
from ..registry import Registry

__all__ = [
    "FaultProgram",
    "FaultSpec",
    "register_fault",
    "get_fault",
    "list_faults",
    "fault_summaries",
    "fault_required_params",
    "fault_acts_on",
    "FAULT_TARGETS",
]


# ---------------------------------------------------------------------- #
# the fault program object
# ---------------------------------------------------------------------- #
class FaultProgram:
    """A concrete, deterministic fault schedule for one run.

    ``stream`` is the topology view (an applicable
    :class:`~repro.dynamic.updates.UpdateStream` of the link failures and
    healings), ``injector`` the kernel view (``None`` when the program has
    no message-level component), and ``planned`` the schedule itself as
    JSON-friendly ``[time, kind, u, v]`` rows.  :meth:`event_log` combines
    the plan with whatever the injector actually did, which is the fault
    history recorded in a run's provenance.
    """

    def __init__(
        self,
        name: str,
        stream: Optional[UpdateStream] = None,
        injector: Optional[FaultInjector] = None,
        planned: Optional[List[List]] = None,
    ) -> None:
        self.name = name
        self.stream = stream if stream is not None else UpdateStream()
        self.injector = injector
        self.planned = [list(event) for event in (planned or [])]

    def event_log(self) -> List[List]:
        """Planned events plus the injector's observed drop/duplicate log."""
        events = [list(event) for event in self.planned]
        if self.injector is not None:
            events.extend(self.injector.event_log())
        return events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultProgram({self.name!r}, {len(self.stream)} topology updates, "
            f"injector={'yes' if self.injector is not None else 'no'})"
        )


# ---------------------------------------------------------------------- #
# the fault registry
# ---------------------------------------------------------------------- #
#: A fault program builder: ``(graph, forest, seed, **params) -> FaultProgram``.
FaultBuilder = Callable[..., FaultProgram]

#: The fault registry; program builders are its entries.
FAULT_REGISTRY = Registry("fault program", "fault programs", AlgorithmError)


#: What a fault program can act on.
FAULT_TARGETS = ("deliveries", "updates", "topology")


def register_fault(
    name: str,
    summary: str = "",
    requires: Tuple[str, ...] = (),
    acts_on: Tuple[str, ...] = (),
) -> Callable[[FaultBuilder], FaultBuilder]:
    """Function decorator: publish a fault program builder under ``name``.

    The decorated function must accept ``(graph, forest, seed)``
    positionally-or-by-keyword plus any program-specific keyword parameters,
    and return a :class:`FaultProgram` whose stream is applicable to
    ``graph`` in order.  ``requires`` names ``params`` keys the program
    cannot run without; spec generators consult
    :func:`fault_required_params` to know whether a program is runnable from
    a bare name.  ``acts_on`` names the :data:`FAULT_TARGETS` the program
    changes, which decides the runners it may run on.

    >>> @register_fault("quiet", summary="no faults at all")
    ... def quiet(graph, forest, seed=None):
    ...     return FaultProgram("quiet")
    """
    if not set(acts_on) <= set(FAULT_TARGETS):
        raise AlgorithmError(f"fault program {name!r} acts on unknown targets {acts_on}")
    return FAULT_REGISTRY.register(
        name, summary, requires=tuple(requires), acts_on=tuple(acts_on)
    )


get_fault = FAULT_REGISTRY.get
list_faults = FAULT_REGISTRY.names
fault_summaries = FAULT_REGISTRY.summaries


def fault_required_params(name: str) -> Tuple[str, ...]:
    """The ``params`` keys the fault program cannot run without.

    Mirrors :func:`repro.api.scenario.workload_required_params`: the fuzzing
    spec generator includes every program runnable from ``(name, seed)``
    alone, so new fault registrations are fuzzed automatically.
    """
    return FAULT_REGISTRY.meta(name, "requires", ())


def fault_acts_on(name: str) -> Tuple[str, ...]:
    """The :data:`FAULT_TARGETS` the fault program acts on (``()`` for none)."""
    return FAULT_REGISTRY.meta(name, "acts_on", ())


# ---------------------------------------------------------------------- #
# FaultSpec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultSpec:
    """A reproducible fault-model description — the fourth experiment axis.

    Parameters
    ----------
    name:
        A registered fault program name (see :func:`list_faults`).
    seed:
        Fault randomness (which leaves crash, which links fail, which
        deliveries drop).  ``None`` defers to the graph spec's seed at build
        time, exactly like workload and schedule seeds.
    params:
        Extra program-specific keyword parameters (e.g. ``drop`` for
        ``lossy-uniform``, ``count`` for ``link-storm``), JSON-friendly.
    """

    name: str = "none"
    seed: Optional[int] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        get_fault(self.name)  # fail fast on unknown names
        object.__setattr__(self, "params", dict(self.params))

    def __hash__(self) -> int:
        # See WorkloadSpec.__hash__: params is a dict, so hash the JSON form.
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    @property
    def is_none(self) -> bool:
        """Does this spec describe the fault-free program?"""
        return self.name == "none"

    def with_seed(self, seed: Optional[int]) -> "FaultSpec":
        """A copy of this spec with ``seed`` filled in."""
        return replace(self, seed=seed)

    def resolve_seed(self, default: Optional[int]) -> "FaultSpec":
        """Fill an unset seed from ``default`` (usually the graph seed)."""
        return self if self.seed is not None else self.with_seed(default)

    def build(self, graph: Graph, forest: SpanningForest) -> FaultProgram:
        """Materialise the deterministic fault program for this scenario."""
        builder = get_fault(self.name)
        return builder(graph, forest, seed=self.seed, **self.params)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        known = {"name", "seed", "params"}
        unknown = set(payload) - known
        if unknown:
            raise AlgorithmError(f"unknown FaultSpec fields: {sorted(unknown)}")
        return cls(
            name=payload.get("name", "none"),
            seed=payload.get("seed"),
            params=dict(payload.get("params", {})),
        )


# ---------------------------------------------------------------------- #
# the built-in fault programs
# ---------------------------------------------------------------------- #
@register_fault("none", summary="The fault-free program (the default)")
def none_fault(
    graph: Graph, forest: SpanningForest, seed: Optional[int] = None
) -> FaultProgram:
    """Nothing fails: empty topology stream, no injector."""
    return FaultProgram("none")


@register_fault(
    "crash-leaves",
    summary="Crash-stop a fraction of the tree's leaves; their links fail too",
    acts_on=FAULT_TARGETS,
)
def crash_leaves_fault(
    graph: Graph,
    forest: SpanningForest,
    seed: Optional[int] = None,
    fraction: float = 0.25,
    at: int = 0,
) -> FaultProgram:
    """Crash a seed-chosen sample of the maintained tree's leaf nodes.

    A crashed node takes all its incident links down with it, so the
    topology view deletes every edge touching a crashed leaf (the node ends
    up isolated — its own spanning-forest component), while the kernel view
    suppresses all its handlers from time ``at`` on.
    """
    if not 0.0 < fraction <= 1.0:
        raise AlgorithmError("crash-leaves fraction must be in (0, 1]")
    if at < 0:
        raise AlgorithmError("crash times must be non-negative")
    degree: Dict[int, int] = {}
    for u, v in forest.marked_edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    leaves = sorted(node for node, marked in degree.items() if marked == 1)
    rng = random.Random(seed)
    count = min(len(leaves), max(1, round(len(leaves) * fraction))) if leaves else 0
    crashed = sorted(rng.sample(leaves, count))

    planned: List[List] = [[at, "crash", node, None] for node in crashed]
    stream = UpdateStream()
    cut = set()
    for node in crashed:
        for neighbor in sorted(graph.neighbors(node)):
            key = edge_key(node, neighbor)
            if key in cut:
                continue
            cut.add(key)
            stream.append(EdgeUpdate.delete(*key))
            planned.append([at, "link-cut", key[0], key[1]])
    injector = FaultInjector(crashes={node: at for node in crashed}, seed=seed)
    return FaultProgram("crash-leaves", stream=stream, injector=injector, planned=planned)


@register_fault(
    "lossy-uniform",
    summary="Drop / duplicate every delivered message with fixed probabilities",
    acts_on=("deliveries",),
)
def lossy_uniform_fault(
    graph: Graph,
    forest: SpanningForest,
    seed: Optional[int] = None,
    drop: float = 0.05,
    duplicate: float = 0.0,
) -> FaultProgram:
    """Uniform lossy links: per-delivery drop/duplication, seed-driven.

    Purely kernel-level: the topology never changes, but every message
    popped for delivery is lost with probability ``drop`` and duplicated
    with probability ``duplicate``.  The program plans no events of its own
    — its event log is exactly the drops/duplicates the injector observes.
    """
    injector = FaultInjector(drop=drop, duplicate=duplicate, seed=seed)
    return FaultProgram("lossy-uniform", injector=injector)


@register_fault(
    "partition-heal",
    summary="Cut every link between a node block and the rest, then heal them",
    acts_on=("deliveries", "updates"),
)
def partition_heal_fault(
    graph: Graph,
    forest: SpanningForest,
    seed: Optional[int] = None,
    fraction: float = 0.5,
    at: int = 0,
    heal_at: Optional[int] = None,
) -> FaultProgram:
    """A timed network partition: cut the cross links at ``at``, heal later.

    The topology view deletes every cross edge and then re-inserts it with
    its original weight (so after the heal the graph — and hence its unique
    minimum forest — is exactly what it was before the partition); the
    kernel view keeps the cross links down during ``[at, heal_at)``.
    """
    if not 0.0 < fraction < 1.0:
        raise AlgorithmError("partition-heal fraction must be in (0, 1)")
    if graph.num_nodes < 2:
        raise AlgorithmError("partition-heal needs at least two nodes")
    nodes = graph.nodes()
    rng = random.Random(seed)
    size = min(len(nodes) - 1, max(1, round(len(nodes) * fraction)))
    block = set(rng.sample(nodes, size))
    cross = [
        (min(edge.u, edge.v), max(edge.u, edge.v), edge.weight)
        for edge in graph.edges()
        if (edge.u in block) != (edge.v in block)
    ]
    cross.sort()
    if heal_at is None:
        heal_at = at + 4 * graph.num_nodes
    if heal_at < at:
        raise AlgorithmError("partition-heal heal_at must be >= at")

    stream = UpdateStream()
    planned: List[List] = []
    for u, v, _weight in cross:
        stream.append(EdgeUpdate.delete(u, v))
        planned.append([at, "link-down", u, v])
    for u, v, weight in cross:
        stream.append(EdgeUpdate.insert(u, v, weight))
        planned.append([heal_at, "link-up", u, v])
    injector = FaultInjector(
        link_down=[(u, v, at, heal_at) for u, v, _ in cross], seed=seed
    )
    return FaultProgram("partition-heal", stream=stream, injector=injector, planned=planned)


@register_fault(
    "link-storm",
    summary="Fail-stop a burst of random links (deletion-heavy repair driver)",
    acts_on=FAULT_TARGETS,
)
def link_storm_fault(
    graph: Graph,
    forest: SpanningForest,
    seed: Optional[int] = None,
    count: Optional[int] = None,
) -> FaultProgram:
    """A burst of permanent link failures, bridges included.

    ``count`` defaults to a quarter of the nodes.  Each failed link is a
    deletion event for the repair algorithms and stays down forever at the
    kernel's delivery boundary.
    """
    if count is None:
        count = max(1, graph.num_nodes // 4)
    if count < 1:
        raise AlgorithmError("link-storm count must be at least 1")
    edges = sorted(
        (min(edge.u, edge.v), max(edge.u, edge.v)) for edge in graph.edges()
    )
    rng = random.Random(seed)
    failed = sorted(rng.sample(edges, min(count, len(edges))))

    stream = UpdateStream(EdgeUpdate.delete(u, v) for u, v in failed)
    planned = [[0, "link-down", u, v] for u, v in failed]
    injector = FaultInjector(
        link_down=[(u, v, 0, None) for u, v in failed], seed=seed
    )
    return FaultProgram("link-storm", stream=stream, injector=injector, planned=planned)
