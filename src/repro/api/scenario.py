"""Declarative scenarios: ``ExperimentSpec = GraphSpec × WorkloadSpec ×
ScheduleSpec × FaultSpec``.

The paper's second headline result (Theorem 1.2) is impromptu repair under an
*arbitrary* stream of edge updates in the *asynchronous* model — so "which
algorithm" is only part of an experiment's description.  This module adds
the workload and schedule axes (the fault axis lives in
:mod:`repro.api.faults`):

* :class:`WorkloadSpec` names a registered update-workload generator (via
  :func:`register_workload`, mirroring the algorithm registry) plus its
  length, seed and parameters;
* :class:`ScheduleSpec` names one of the delivery schedulers of
  :mod:`repro.network.scheduler` (``fifo`` / ``lifo`` / ``random`` /
  ``edge-delay``) plus its parameters, so runs execute under an adversarial
  delivery order (only a runner that reads deliveries accepts one, see
  :func:`~repro.api.registry.check_reach`);
* :class:`ExperimentSpec` bundles the axes — including an optional
  :class:`~repro.api.faults.FaultSpec` naming a registered fault program —
  into one serialisable description that round-trips through JSON, ships to
  worker processes and is recorded in every
  :class:`~repro.api.result.RunResult` as provenance.

Registered workloads
--------------------
``churn``
    Tree-edge delete/reinsert pairs topped up with random churn — exactly the
    stream the PR-1 repair runners hard-coded, so counters are unchanged.
``deletions-only``
    Uniformly random edge deletions, no insertions.
``bridge-heavy``
    Tree-edge delete/reinsert pairs that prefer bridges (the ∅-repair path).
``insert-heavy``
    Random churn at a 90% insertion rate.
``weight-ramp``
    Adversarial monotone weight increases on tree edges.
``trace-replay``
    Replays a saved :class:`~repro.dynamic.trace.UpdateTrace` file
    (``params={"path": ...}``); the trace also pins the initial graph.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from ..dynamic import (
    UpdateStream,
    UpdateTrace,
    bridge_heavy_deletions,
    random_churn,
    tree_edge_deletions,
    tree_weight_increases,
)
from ..network.errors import AlgorithmError, SimulationError
from ..network.fragments import SpanningForest
from ..network.graph import Graph
from ..network.scheduler import SCHEDULER_REGISTRY, Scheduler, make_scheduler
from ..registry import Registry
from .faults import FaultSpec
from .spec import GraphSpec

__all__ = [
    "WorkloadSpec",
    "ScheduleSpec",
    "ExperimentSpec",
    "register_workload",
    "get_workload",
    "list_workloads",
    "workload_summaries",
    "workload_required_params",
    "stream_fingerprint",
]


# ---------------------------------------------------------------------- #
# the workload registry
# ---------------------------------------------------------------------- #
#: A workload generator: ``(graph, forest, count, seed, **params) -> stream``.
WorkloadGenerator = Callable[..., UpdateStream]

#: The workload registry; generator functions are its entries.
WORKLOAD_REGISTRY = Registry("workload", "workloads", AlgorithmError)


def register_workload(
    name: str, summary: str = "", requires: Tuple[str, ...] = ()
) -> Callable[[WorkloadGenerator], WorkloadGenerator]:
    """Function decorator: publish a workload generator under ``name``.

    The decorated function must accept ``(graph, forest, count, seed)``
    positionally-or-by-keyword plus any workload-specific keyword parameters,
    and return an :class:`~repro.dynamic.updates.UpdateStream` that is
    applicable to ``graph`` in order.  ``requires`` names ``params`` keys the
    workload cannot run without (e.g. ``trace-replay`` needs a ``path``);
    spec generators consult :func:`workload_required_params` to know whether
    a workload is runnable from a bare name.

    >>> @register_workload("noop", summary="an empty stream")
    ... def noop(graph, forest, count, seed=None):
    ...     return UpdateStream()
    """
    return WORKLOAD_REGISTRY.register(name, summary, requires=tuple(requires))


get_workload = WORKLOAD_REGISTRY.get
list_workloads = WORKLOAD_REGISTRY.names
workload_summaries = WORKLOAD_REGISTRY.summaries


def workload_required_params(name: str) -> Tuple[str, ...]:
    """The ``params`` keys the workload cannot run without (usually empty).

    The fuzzing spec generator uses this to include every registered
    workload that is runnable from just ``(name, updates, seed)`` — a new
    workload registered without ``requires`` is fuzzed automatically.
    """
    return WORKLOAD_REGISTRY.meta(name, "requires", ())


def stream_fingerprint(stream: UpdateStream) -> str:
    """A stable digest of an update stream (for provenance and equality).

    Two streams with the same fingerprint contain the same updates in the
    same order, which is how tests prove that two runners consumed the
    *identical* workload.
    """
    payload = [
        (update.kind.value, update.u, update.v, update.weight) for update in stream
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# WorkloadSpec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible update-workload description.

    Parameters
    ----------
    name:
        A registered workload name (see :func:`list_workloads`).
    updates:
        Target stream length (pair-based workloads may emit one event less).
        ``None`` means "the workload's natural length": the runner's default
        for generated workloads, the *full* recorded stream for
        ``trace-replay`` (so replays are never silently truncated).
    seed:
        Workload randomness.  ``None`` defers to the graph spec's seed at
        build time, which is exactly what the PR-1 runners did.
    params:
        Extra generator-specific keyword parameters (e.g. ``max_delta`` for
        ``weight-ramp``, ``path`` for ``trace-replay``), JSON-friendly.
    """

    name: str = "churn"
    updates: Optional[int] = None
    seed: Optional[int] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        get_workload(self.name)  # fail fast on unknown names
        if self.updates is not None and self.updates < 1:
            raise AlgorithmError("a workload needs at least one update")
        object.__setattr__(self, "params", dict(self.params))

    def __hash__(self) -> int:
        # The frozen-dataclass default hash chokes on the params dict;
        # hash the canonical JSON instead so specs work as set/dict keys
        # (params are JSON-friendly by contract).
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    def with_seed(self, seed: Optional[int]) -> "WorkloadSpec":
        """A copy of this spec with ``seed`` filled in."""
        return replace(self, seed=seed)

    def resolve_seed(self, default: Optional[int]) -> "WorkloadSpec":
        """Fill an unset seed from ``default`` (usually the graph seed)."""
        return self if self.seed is not None else self.with_seed(default)

    def resolve_updates(self, default: int) -> "WorkloadSpec":
        """Fill an unset length from ``default``.

        ``trace-replay`` keeps ``None``: its natural length is the full
        recorded stream, not a generated-workload default.
        """
        if self.updates is not None or self.name == "trace-replay":
            return self
        return replace(self, updates=default)

    def build(self, graph: Graph, forest: SpanningForest) -> UpdateStream:
        """Generate the update stream against ``graph`` / ``forest``.

        For generated workloads ``updates`` must be resolved (an int); only
        ``trace-replay`` accepts ``None`` (= the full recorded stream).
        """
        if self.updates is None and self.name != "trace-replay":
            raise AlgorithmError(
                f"workload {self.name!r} needs an explicit update count "
                "(resolve_updates() fills the default)"
            )
        generator = get_workload(self.name)
        return generator(graph, forest, count=self.updates, seed=self.seed, **self.params)

    def trace_state(self) -> Optional[Tuple[Graph, SpanningForest, "UpdateTrace"]]:
        """For ``trace-replay``: the trace's pinned initial graph and forest.

        Returns ``None`` for every other workload.  Runners call this so a
        replayed stream is applied to the exact graph it was recorded on
        rather than to a freshly generated one.
        """
        if self.name != "trace-replay":
            return None
        trace = _load_trace(self.params)
        graph, forest = trace.rebuild_initial_state()
        return graph, forest, trace

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "updates": self.updates,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        known = {"name", "updates", "seed", "params"}
        unknown = set(payload) - known
        if unknown:
            raise AlgorithmError(f"unknown WorkloadSpec fields: {sorted(unknown)}")
        return cls(
            name=payload.get("name", "churn"),
            updates=payload.get("updates"),
            seed=payload.get("seed"),
            params=dict(payload.get("params", {})),
        )


# ---------------------------------------------------------------------- #
# ScheduleSpec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScheduleSpec:
    """A reproducible delivery-schedule description.

    Parameters
    ----------
    scheduler:
        One of the registered scheduler names (``fifo`` / ``lifo`` /
        ``random`` / ``edge-delay``).
    seed:
        Only meaningful for the ``random`` scheduler; ``None`` defers to the
        graph spec's seed at build time so runs stay replayable.
    params:
        Extra scheduler parameters, JSON-friendly (``edge-delay`` takes
        ``default_delay`` and ``delays`` as ``{"u-v": d}`` or ``[[u,v,d]]``).
    """

    scheduler: str = "fifo"
    seed: Optional[int] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            SCHEDULER_REGISTRY.get(self.scheduler)
        except SimulationError as exc:
            raise AlgorithmError(str(exc)) from None
        if self.seed is not None and self.scheduler != "random":
            raise AlgorithmError(
                f"the {self.scheduler!r} scheduler is deterministic and takes no seed"
            )
        object.__setattr__(self, "params", dict(self.params))

    def __hash__(self) -> int:
        # See WorkloadSpec.__hash__: params is a dict, so hash the JSON form.
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    def with_seed(self, seed: Optional[int]) -> "ScheduleSpec":
        return replace(self, seed=seed)

    def resolve_seed(self, default: Optional[int]) -> "ScheduleSpec":
        """Fill an unset ``random`` seed from ``default``; no-op otherwise."""
        if self.scheduler != "random" or self.seed is not None:
            return self
        return self.with_seed(default)

    def build(self) -> Scheduler:
        """Materialise the scheduler this spec describes."""
        params = dict(self.params)
        if self.seed is not None:
            params["seed"] = self.seed
        return make_scheduler(self.scheduler, **params)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScheduleSpec":
        known = {"scheduler", "seed", "params"}
        unknown = set(payload) - known
        if unknown:
            raise AlgorithmError(f"unknown ScheduleSpec fields: {sorted(unknown)}")
        return cls(
            scheduler=payload.get("scheduler", "fifo"),
            seed=payload.get("seed"),
            params=dict(payload.get("params", {})),
        )


# ---------------------------------------------------------------------- #
# ExperimentSpec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentSpec:
    """The complete, serialisable description of one experiment scenario.

    ``graph`` says what network to build, ``workload`` what update stream
    hits it (``None`` for static construction-only runs), ``schedule`` under
    what adversarial delivery order messages arrive (``None`` for the default
    FIFO / synchronous execution), and ``faults`` what goes wrong while it
    runs (``None`` — like the registered ``none`` program — for a fault-free
    execution; specs serialised before the fault axis existed parse
    unchanged).  An :class:`ExperimentSpec` plus an algorithm name reproduces
    a run anywhere — that pair is exactly what
    :meth:`ExperimentEngine.run` fans out over worker processes.
    """

    graph: GraphSpec
    workload: Optional[WorkloadSpec] = None
    schedule: Optional[ScheduleSpec] = None
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.graph, GraphSpec):
            raise AlgorithmError("ExperimentSpec.graph must be a GraphSpec")

    def __hash__(self) -> int:
        # Workload/schedule carry dict params; hash the canonical JSON.
        return hash(self.to_json())

    @classmethod
    def coerce(cls, spec: Union["ExperimentSpec", GraphSpec]) -> "ExperimentSpec":
        """Accept a bare :class:`GraphSpec` wherever a scenario is expected."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, GraphSpec):
            return cls(graph=spec)
        raise AlgorithmError(
            f"expected an ExperimentSpec or GraphSpec, got {type(spec).__name__}"
        )

    def with_seed(self, seed: int) -> "ExperimentSpec":
        """A copy with the *graph* seed filled in (workload/schedule seeds
        left unset resolve against it at run time)."""
        return replace(self, graph=self.graph.with_seed(seed))

    def resolved_workload(self, default_updates: int = 10) -> WorkloadSpec:
        """The effective workload: default ``churn``, seed from the graph,
        length from ``default_updates`` where the spec left it open."""
        workload = self.workload or WorkloadSpec(name="churn")
        return workload.resolve_updates(default_updates).resolve_seed(self.graph.seed)

    def resolved_schedule(self) -> Optional[ScheduleSpec]:
        """The effective schedule with a ``random`` seed filled in, if any."""
        if self.schedule is None:
            return None
        return self.schedule.resolve_seed(self.graph.seed)

    def resolved_faults(self) -> Optional[FaultSpec]:
        """The effective fault model with its seed filled in, if any.

        ``None`` and the registered ``none`` program both mean a fault-free
        run; callers can test :attr:`FaultSpec.is_none`.
        """
        if self.faults is None:
            return None
        return self.faults.resolve_seed(self.graph.seed)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "graph": self.graph.to_dict(),
            "workload": None if self.workload is None else self.workload.to_dict(),
            "schedule": None if self.schedule is None else self.schedule.to_dict(),
            "faults": None if self.faults is None else self.faults.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        known = {"graph", "workload", "schedule", "faults"}
        unknown = set(payload) - known
        if unknown:
            raise AlgorithmError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        if "graph" not in payload:
            raise AlgorithmError("ExperimentSpec payload needs a 'graph' field")
        workload = payload.get("workload")
        schedule = payload.get("schedule")
        faults = payload.get("faults")
        return cls(
            graph=GraphSpec.from_dict(payload["graph"]),
            workload=None if workload is None else WorkloadSpec.from_dict(workload),
            schedule=None if schedule is None else ScheduleSpec.from_dict(schedule),
            faults=None if faults is None else FaultSpec.from_dict(faults),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def content_hash(self) -> str:
        """The sha256 content address of this scenario's canonical JSON.

        Because the engine guarantees that a run is a pure function of its
        spec, this hash is a *result* key, not just a spec key: it is what
        the experiment service's content-addressed store and the fuzz
        corpus's reproducer ids are built on (both via
        :mod:`repro.api.canonical`).
        """
        from .canonical import content_hash

        return content_hash(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AlgorithmError(f"invalid ExperimentSpec JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise AlgorithmError("ExperimentSpec JSON must be an object")
        return cls.from_dict(payload)


# ---------------------------------------------------------------------- #
# the built-in workloads
# ---------------------------------------------------------------------- #
@register_workload(
    "churn",
    summary="Tree-edge delete/reinsert pairs topped up with random churn (the PR-1 default)",
)
def churn_workload(
    graph: Graph,
    forest: SpanningForest,
    count: int,
    seed: Optional[int] = None,
) -> UpdateStream:
    """The standard repair workload: tree-edge deletions plus random churn.

    This is the stream both repair runners used to build privately
    (``_churn_stream``); extracting it here keeps their update sequences
    provably identical and — for equal seeds — bit-identical to PR 1.
    """
    deletions = max(count // 2, 1)
    stream = tree_edge_deletions(graph, forest, count=deletions, seed=seed)
    churn_seed = None if seed is None else seed + 1
    remaining = max(count - len(stream), 0)
    if remaining:
        stream.extend(random_churn(graph, count=remaining, seed=churn_seed))
    return stream


@register_workload(
    "deletions-only", summary="Uniformly random edge deletions, no insertions"
)
def deletions_only_workload(
    graph: Graph,
    forest: SpanningForest,
    count: int,
    seed: Optional[int] = None,
) -> UpdateStream:
    """Pure deletions: the graph only ever loses edges (bridges included)."""
    return random_churn(graph, count=count, seed=seed, insert_fraction=0.0)


@register_workload(
    "bridge-heavy",
    summary="Tree-edge delete/reinsert pairs that prefer bridges (the no-replacement path)",
)
def bridge_heavy_workload(
    graph: Graph,
    forest: SpanningForest,
    count: int,
    seed: Optional[int] = None,
) -> UpdateStream:
    """Deletions that are mostly bridges, so repair must certify ∅."""
    return bridge_heavy_deletions(graph, forest, count=max(count // 2, 1), seed=seed)


@register_workload("insert-heavy", summary="Random churn at a 90% insertion rate")
def insert_heavy_workload(
    graph: Graph,
    forest: SpanningForest,
    count: int,
    seed: Optional[int] = None,
    insert_fraction: float = 0.9,
) -> UpdateStream:
    """A growing network: inserts dominate (cheap O(|T_u|) repair path)."""
    return random_churn(graph, count=count, seed=seed, insert_fraction=insert_fraction)


@register_workload(
    "weight-ramp", summary="Adversarial monotone weight increases on tree edges"
)
def weight_ramp_workload(
    graph: Graph,
    forest: SpanningForest,
    count: int,
    seed: Optional[int] = None,
    max_delta: int = 10,
) -> UpdateStream:
    """Every update ramps a tree edge's weight, threatening its MST slot."""
    return tree_weight_increases(graph, forest, count=count, seed=seed, max_delta=max_delta)


@register_workload(
    "trace-replay",
    summary="Replay a saved UpdateTrace file (params: path)",
    requires=("path",),
)
def trace_replay_workload(
    graph: Graph,
    forest: SpanningForest,
    count: Optional[int] = None,
    seed: Optional[int] = None,
    path: Optional[str] = None,
) -> UpdateStream:
    """Replay a recorded trace: all of it, or its first ``count`` updates.

    The stream applies to the trace's *own* initial graph (see
    :meth:`WorkloadSpec.trace_state`); ``graph`` / ``forest`` / ``seed`` are
    accepted for signature uniformity but do not influence the stream.
    """
    return _trace_stream(_load_trace({"path": path}), count)


def _trace_stream(trace: UpdateTrace, count: Optional[int]) -> UpdateStream:
    """The trace's stream, truncated only on an *explicit* count."""
    stream = trace.stream()
    if count is not None and count < len(stream):
        return UpdateStream(stream[index] for index in range(count))
    return stream


def _load_trace(params: Mapping[str, Any]) -> UpdateTrace:
    path = params.get("path")
    if not path:
        raise AlgorithmError(
            "the trace-replay workload needs a 'path' parameter naming a saved trace"
        )
    try:
        return UpdateTrace.load(path)
    except FileNotFoundError:
        raise AlgorithmError(f"trace file not found: {path}") from None
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise AlgorithmError(f"invalid trace file {path}: {exc}") from exc
