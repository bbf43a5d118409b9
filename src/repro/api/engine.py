"""`ExperimentEngine`: fan algorithm runs across worker processes.

The engine takes a list of :class:`ExperimentJob` (algorithm name +
:class:`~repro.api.spec.GraphSpec` or full
:class:`~repro.api.scenario.ExperimentSpec` + options), executes them either
serially or on a :class:`concurrent.futures.ProcessPoolExecutor`, and returns
the :class:`~repro.api.result.RunResult` records in job order.

Determinism is the whole point: a job whose graph spec carries no seed gets
one derived from the engine's base seed and the job's position (workload and
schedule seeds left unset resolve against the graph seed inside the runner),
so a ``--jobs 8`` run produces *bit-identical counters* to a ``--jobs 1`` run
of the same job list.  Results cross the process boundary as plain dicts
(the ``RunResult.to_dict`` payload), so nothing non-picklable ever leaves a
worker.

:meth:`ExperimentEngine.run` is the engine's one entry point: a size sweep,
a head-to-head comparison and a full scenario suite are all job lists, the
grids built by :func:`scenario_grid` as the (graph × workload × schedule ×
fault × algorithm) product.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..network.errors import AlgorithmError
from .faults import FaultSpec
from .registry import get_runner, run
from .result import RunResult
from .scenario import ExperimentSpec, ScheduleSpec, WorkloadSpec
from .spec import GraphSpec

__all__ = [
    "ExperimentJob",
    "ExperimentEngine",
    "derive_seed",
    "error_result",
    "execute_payload",
    "scenario_grid",
    "spec_from_dict",
]


#: Large odd multipliers for the splitmix-style seed derivation below.
_SEED_MIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9)


def derive_seed(base: int, index: int) -> int:
    """A deterministic, well-spread per-job seed (stable across processes)."""
    x = (base * _SEED_MIX[0] + (index + 1) * _SEED_MIX[1]) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * _SEED_MIX[0]) & 0xFFFFFFFFFFFFFFFF
    return (x >> 16) & 0x7FFFFFFF


@dataclass
class ExperimentJob:
    """One unit of work: run ``algorithm`` on ``spec`` with ``options``.

    ``spec`` is either a bare :class:`GraphSpec` (a static construction run)
    or a full :class:`ExperimentSpec` scenario.
    """

    algorithm: str
    spec: Union[GraphSpec, ExperimentSpec]
    options: Dict[str, Any] = field(default_factory=dict)


def scenario_grid(
    algorithms: Sequence[str],
    graphs: Sequence[GraphSpec],
    workloads: Sequence[Optional[Union[str, WorkloadSpec]]] = (None,),
    schedules: Sequence[Optional[Union[str, ScheduleSpec]]] = (None,),
    faults: Sequence[Optional[Union[str, FaultSpec]]] = (None,),
    updates: Optional[int] = None,
) -> List[ExperimentJob]:
    """The full scenario product: graph × algorithm × workload × schedule
    × fault.

    Workloads, schedules and faults may be given as specs or as registered
    names (``None`` keeps the dimension at its default: no workload for
    construction algorithms / ``churn`` for repair, default delivery, and a
    fault-free execution).  ``updates`` caps name-given workloads; left
    ``None``, each workload uses its natural length (the runner default, or
    the full trace for ``trace-replay``).  Every job starts with empty
    options; callers set each job's runner options.
    """
    jobs: List[ExperimentJob] = []
    for graph in graphs:
        for workload in workloads:
            if isinstance(workload, str):
                workload = WorkloadSpec(name=workload, updates=updates)
            for schedule in schedules:
                if isinstance(schedule, str):
                    schedule = ScheduleSpec(scheduler=schedule)
                for fault in faults:
                    if isinstance(fault, str):
                        fault = FaultSpec(name=fault)
                    spec = ExperimentSpec(
                        graph=graph,
                        workload=workload,
                        schedule=schedule,
                        faults=fault,
                    )
                    for algorithm in algorithms:
                        jobs.append(ExperimentJob(algorithm, spec))
    return jobs


def error_result(
    algorithm: str, spec: Union[GraphSpec, ExperimentSpec], error: BaseException
) -> RunResult:
    """A deterministic per-job error record for a runner that raised.

    All cost counters are zero and ``wall_time_s`` is pinned to ``0.0`` so a
    suite containing failures still satisfies the parallel == serial
    byte-identity contract; the failure itself lands in ``checks`` (a
    ``completed: False`` entry makes ``result.ok`` False) and ``extra``
    (``error`` / ``error_type``).
    """
    graph = spec.graph if isinstance(spec, ExperimentSpec) else spec
    scenario = spec if isinstance(spec, ExperimentSpec) else None
    return RunResult(
        algorithm=algorithm,
        spec=graph,
        n=graph.nodes,
        m=0,
        messages=0,
        bits=0,
        rounds=0,
        phases=0,
        wall_time_s=0.0,
        checks={"completed": False},
        extra={"error": str(error), "error_type": type(error).__name__},
        workload=None if scenario is None else scenario.workload,
        schedule=None if scenario is None else scenario.schedule,
        faults=None if scenario is None else scenario.faults,
    )


def spec_from_dict(payload: Mapping[str, Any]) -> Union[GraphSpec, ExperimentSpec]:
    """Parse a spec payload: an :class:`ExperimentSpec` when it carries a
    ``graph``, else a bare :class:`GraphSpec`."""
    if "graph" in payload:
        return ExperimentSpec.from_dict(payload)
    return GraphSpec.from_dict(payload)


def execute_payload(
    payload: Tuple[str, Mapping[str, Any], Mapping[str, Any], str]
) -> Dict[str, Any]:
    """Run one ``(algorithm, spec_dict, options, on_error)`` payload; returns
    the ``RunResult.to_dict`` record.

    The worker entry point of :meth:`ExperimentEngine.run` and of the
    experiment service.  With ``on_error="record"`` a raising runner becomes
    an :func:`error_result` record instead of propagating out of the worker
    and killing the whole pool run; spec-construction errors are *not*
    absorbed — a malformed payload is a caller bug either way.
    """
    algorithm, spec_dict, options, on_error = payload
    spec = spec_from_dict(spec_dict)
    try:
        result = run(algorithm, spec, **options)
    except Exception as exc:
        if on_error != "record":
            raise
        result = error_result(algorithm, spec, exc)
    return result.to_dict()


class ExperimentEngine:
    """Execute experiment jobs, optionally in parallel worker processes.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``1`` (the default) runs serially in
        this process, which is also what tests and debugging want.
    base_seed:
        Seed used to derive per-job seeds for specs that carry none.
    on_error:
        ``"raise"`` (the default) propagates a runner exception out of
        :meth:`run` — the PR-1 behaviour.  ``"record"`` turns each failing
        job into a deterministic :func:`error_result` record (``ok`` False,
        ``extra["error"]`` set) while the rest of the suite completes; this
        is what long-lived consumers such as the experiment service use, so
        one poisoned spec cannot crash a whole batch.
    """

    def __init__(
        self, jobs: int = 1, base_seed: int = 2015, on_error: str = "raise"
    ) -> None:
        if jobs < 1:
            raise AlgorithmError("the engine needs at least one worker")
        if on_error not in ("raise", "record"):
            raise AlgorithmError(
                f"on_error must be 'raise' or 'record', got {on_error!r}"
            )
        self.jobs = jobs
        self.base_seed = base_seed
        self.on_error = on_error

    # ------------------------------------------------------------------ #
    # job construction helpers
    # ------------------------------------------------------------------ #
    def seeded(self, jobs: Sequence[ExperimentJob]) -> List[ExperimentJob]:
        """Fill in deterministic seeds for specs that carry none.

        Jobs sharing an (unseeded) graph spec get the *same* derived seed, so
        a head-to-head or per-size grid still runs every algorithm on the
        same graph; distinct graph specs get distinct seeds.  For full
        :class:`ExperimentSpec` jobs only the graph seed is assigned —
        workload/schedule seeds left unset resolve against it deterministically
        inside the runner.
        """
        assigned: Dict[GraphSpec, int] = {}
        seeded: List[ExperimentJob] = []
        for job in jobs:
            if self.on_error == "raise":
                get_runner(job.algorithm)  # fail fast on unknown names
            # (with on_error="record" an unknown name becomes a per-job
            # error record in the worker instead of aborting the suite)
            spec = job.spec
            graph = spec.graph if isinstance(spec, ExperimentSpec) else spec
            if graph.seed is None:
                if graph not in assigned:
                    assigned[graph] = derive_seed(self.base_seed, len(assigned))
                spec = spec.with_seed(assigned[graph])
            seeded.append(ExperimentJob(job.algorithm, spec, dict(job.options)))
        return seeded

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, jobs: Iterable[ExperimentJob]) -> List[RunResult]:
        """Run every job and return results in job order.

        Parallel counters are bit-identical to a serial run of the same job
        list.

        >>> from repro.api import ExperimentEngine, GraphSpec, scenario_grid
        >>> engine = ExperimentEngine(jobs=2)
        >>> results = engine.run(scenario_grid(
        ...     ["kkt-repair"], [GraphSpec(nodes=24, density="sparse", seed=5)],
        ...     workloads=["churn", "insert-heavy"], schedules=[None, "random"],
        ... ))
        >>> len(results)
        4
        """
        job_list = self.seeded(list(jobs))
        payloads = [
            (job.algorithm, job.spec.to_dict(), dict(job.options), self.on_error)
            for job in job_list
        ]
        if self.jobs == 1 or len(payloads) <= 1:
            raw = [execute_payload(payload) for payload in payloads]
        else:
            workers = min(self.jobs, len(payloads))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                raw = list(pool.map(execute_payload, payloads))
        return [RunResult.from_dict(record) for record in raw]
