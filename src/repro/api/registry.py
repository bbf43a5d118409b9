"""The algorithm registry: one namespace for every runnable algorithm.

Algorithms register themselves under a short, stable name (``kkt-mst``,
``ghs``, ``flooding``, ...) via the :func:`register` class decorator; callers
look them up with :func:`get_runner` / :func:`list_algorithms` and execute
them with the :func:`run` facade.  Every runner satisfies the
:class:`AlgorithmRunner` protocol, so the CLI, the experiment engine and the
benchmarks dispatch uniformly instead of special-casing each entry point.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Protocol, Type, Union, runtime_checkable

from ..network.errors import AlgorithmError
from ..registry import Registry
from .faults import FAULT_TARGETS, fault_acts_on
from .result import RunResult
from .scenario import ExperimentSpec
from .spec import GraphSpec

__all__ = [
    "AlgorithmRunner",
    "register",
    "get_runner",
    "list_algorithms",
    "algorithm_summaries",
    "algorithm_traits",
    "check_reach",
    "run",
]


@runtime_checkable
class AlgorithmRunner(Protocol):
    """What the registry requires of a runnable algorithm.

    ``name`` and ``summary`` are class attributes filled in by
    :func:`register`; ``run`` builds the spec's scenario (graph, workload,
    schedule), executes the algorithm and returns a
    :class:`~repro.api.result.RunResult`.  A bare
    :class:`~repro.api.spec.GraphSpec` is accepted wherever an
    :class:`~repro.api.scenario.ExperimentSpec` is.
    """

    name: str
    summary: str

    def run(
        self, spec: Union[ExperimentSpec, GraphSpec], **options: object
    ) -> RunResult:
        ...


#: The algorithm registry; runner classes are its entries.
ALGORITHM_REGISTRY = Registry("algorithm", "algorithms", AlgorithmError)


def register(name: str, summary: str = "") -> Callable[[Type], Type]:
    """Class decorator: publish a runner class under ``name``.

    The class also gets ``name`` and ``summary`` class attributes.

    >>> @register("kkt-mst", summary="KKT Build-MST (Theorem 1.1)")
    ... class KKTMSTRunner: ...
    """
    publish = ALGORITHM_REGISTRY.register(name, summary)

    def decorate(cls: Type) -> Type:
        publish(cls)
        cls.name, cls.summary = name, ALGORITHM_REGISTRY.meta(name, "summary")
        return cls

    return decorate


def get_runner(name: str) -> AlgorithmRunner:
    """Instantiate the runner registered under ``name`` (fail with the list)."""
    return ALGORITHM_REGISTRY.get(name)()


list_algorithms = ALGORITHM_REGISTRY.names
algorithm_summaries = ALGORITHM_REGISTRY.summaries


def algorithm_traits(name: str) -> Dict[str, object]:
    """Introspectable semantics of a registered algorithm.

    Runner classes may declare optional class attributes that external
    verifiers (the fuzzing oracles, notably) consult instead of hard-coding
    algorithm names:

    * ``invariant`` — the strongest tree invariant a clean run guarantees:
      ``"minimum"`` (the tree is the minimum spanning forest) or
      ``"spanning"`` (a spanning forest only).  Defaults to ``"spanning"``,
      the weakest claim, so unknown algorithms are never over-checked.
    * ``may_fail_under_faults`` — ``True`` when a run under an active fault
      program may *legitimately* fail its own validity checks (e.g. flooding
      under lossy delivery: the incomplete tree is the experiment's finding,
      not a bug).  Defaults to ``False``.
    * ``monte_carlo`` — ``True`` when the algorithm is Monte Carlo: a single
      run may fail its checks with probability bounded by ``n^-c`` over the
      algorithm's own coin flips (the paper's guarantee for the KKT
      procedures).  Verifiers must only treat a failure as a bug when it
      *persists* across independent algorithm seeds — such runners accept an
      ``algorithm_seed`` run option that reseeds the coins without changing
      the input graph.  Defaults to ``False`` (a failed check is a bug).
    * ``reads`` — the :data:`~repro.api.faults.FAULT_TARGETS` a fault
      program or a schedule must act on to reach the run (see
      :func:`check_reach`).  Defaults to all of them, so an unknown runner
      is never rejected.
    """
    trait = partial(ALGORITHM_REGISTRY.meta, name)
    return {
        "invariant": trait("invariant", "spanning"),
        "may_fail_under_faults": bool(trait("may_fail_under_faults", False)),
        "monte_carlo": bool(trait("monte_carlo", False)),
        "reads": tuple(trait("reads", FAULT_TARGETS)),
    }


def check_reach(algorithm: str, spec: Union[ExperimentSpec, GraphSpec]) -> None:
    """Raise :class:`AlgorithmError` if an axis of ``spec`` acts on nothing
    ``algorithm`` reads: the run would record an axis that could not change it.

    Two axes act on a run: the fault program (on its declared
    :func:`~repro.api.faults.fault_acts_on` targets; ``none`` on nothing)
    and the delivery schedule (on ``deliveries``).
    """
    experiment = ExperimentSpec.coerce(spec)
    axes = []
    if experiment.faults is not None and not experiment.faults.is_none:
        name = experiment.faults.name
        axes.append(("fault program", name, fault_acts_on(name)))
    if experiment.schedule is not None:
        axes.append(("schedule", experiment.schedule.scheduler, ("deliveries",)))
    for axis, name, acts_on in axes:
        reads = algorithm_traits(algorithm)["reads"]
        if not set(acts_on) & set(reads):
            raise AlgorithmError(
                f"{algorithm} cannot run under {axis} {name!r}: it acts on "
                f"{' and '.join(acts_on)}, and {algorithm} reads only {' and '.join(reads)}"
            )


def run(
    algorithm: str, spec: Union[ExperimentSpec, GraphSpec], **options: object
) -> RunResult:
    """Run a registered algorithm on a graph or experiment spec.

    The uniform entry point behind the CLI and the experiment engine:

    >>> from repro import GraphSpec, run
    >>> result = run("kkt-mst", GraphSpec(nodes=96, density="complete", seed=7))
    >>> result.ok
    True

    Scenario runs pass a full :class:`~repro.api.scenario.ExperimentSpec`:

    >>> from repro import ExperimentSpec, WorkloadSpec
    >>> spec = ExperimentSpec(
    ...     graph=GraphSpec(nodes=32, density="sparse", seed=7),
    ...     workload=WorkloadSpec(name="deletions-only", updates=6),
    ... )
    >>> run("kkt-repair", spec).ok
    True
    """
    if (
        isinstance(spec, ExperimentSpec)
        and spec.workload is None
        and spec.schedule is None
        and spec.faults is None
    ):
        # A scenario that adds nothing over its graph spec is handed to the
        # runner as the bare GraphSpec, so PR-1-style runners registered by
        # users (run(spec) calling spec.build()) keep working under plain
        # scenario_grid sweeps.
        spec = spec.graph
    return get_runner(algorithm).run(spec, **options)
