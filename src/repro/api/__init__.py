"""The unified runner API: specs, registry, results and the experiment engine.

This package is the one public surface for *running* algorithms:

* :class:`~repro.api.spec.GraphSpec` — a serialisable graph description and
  the single source of graph construction (density profiles, weight models);
* the algorithm registry (:func:`register`, :func:`get_runner`,
  :func:`list_algorithms`) with the :class:`AlgorithmRunner` protocol and the
  :func:`run` facade;
* :class:`~repro.api.result.RunResult` — the uniform, JSON-round-trippable
  outcome every runner returns, with workload/schedule provenance;
* the scenario layer (:mod:`repro.api.scenario`) — a ``@register_workload``
  registry of named update workloads plus :class:`WorkloadSpec`,
  :class:`ScheduleSpec` and the combined :class:`ExperimentSpec`;
* the fault layer (:mod:`repro.api.faults`) — a ``@register_fault`` registry
  of named deterministic fault programs plus :class:`FaultSpec`, the fourth
  axis of an :class:`ExperimentSpec`;
* :class:`~repro.api.engine.ExperimentEngine` — deterministic serial or
  process-parallel execution of ``(algorithm, spec)`` job lists, including
  full scenario grids built by :func:`scenario_grid`.

>>> from repro.api import GraphSpec, run
>>> run("kkt-mst", GraphSpec(nodes=32, density="sparse", seed=7)).ok
True
"""

from .canonical import canonical_json, content_hash, short_hash
from .engine import (
    ExperimentEngine,
    ExperimentJob,
    derive_seed,
    error_result,
    scenario_grid,
)
from .faults import (
    FaultProgram,
    FaultSpec,
    fault_acts_on,
    fault_required_params,
    fault_summaries,
    get_fault,
    list_faults,
    register_fault,
)
from .registry import (
    AlgorithmRunner,
    algorithm_summaries,
    algorithm_traits,
    check_reach,
    get_runner,
    list_algorithms,
    register,
    run,
)
from .result import RunResult
from .scenario import (
    ExperimentSpec,
    ScheduleSpec,
    WorkloadSpec,
    get_workload,
    list_workloads,
    register_workload,
    stream_fingerprint,
    workload_required_params,
    workload_summaries,
)
from .spec import DENSITY_PROFILES, WEIGHT_MODELS, GraphSpec, edge_budget

# Scheduler construction is part of the scenario surface: re-export it so a
# ScheduleSpec and the scheduler it names live in one namespace.
from ..network.scheduler import (
    SCHEDULERS,
    EdgeDelayScheduler,
    FifoScheduler,
    LifoScheduler,
    RandomScheduler,
    Scheduler,
    list_schedulers,
    make_scheduler,
)

# Importing the adapters registers the built-in algorithms.
from . import runners  # noqa: E402  (must come after registry)

# Importing the Byzantine package registers the "bracha" delivery substrate
# alongside the built-in "plain" one.
from .. import byzantine as _byzantine  # noqa: E402, F401  (must come after .faults)

__all__ = [
    "AlgorithmRunner",
    "DENSITY_PROFILES",
    "EdgeDelayScheduler",
    "ExperimentEngine",
    "ExperimentJob",
    "ExperimentSpec",
    "FaultProgram",
    "FaultSpec",
    "FifoScheduler",
    "GraphSpec",
    "LifoScheduler",
    "RandomScheduler",
    "RunResult",
    "SCHEDULERS",
    "ScheduleSpec",
    "Scheduler",
    "WEIGHT_MODELS",
    "WorkloadSpec",
    "algorithm_summaries",
    "algorithm_traits",
    "canonical_json",
    "check_reach",
    "content_hash",
    "derive_seed",
    "edge_budget",
    "error_result",
    "fault_acts_on",
    "fault_required_params",
    "fault_summaries",
    "get_fault",
    "get_runner",
    "get_workload",
    "list_algorithms",
    "list_faults",
    "list_schedulers",
    "list_workloads",
    "make_scheduler",
    "register",
    "register_fault",
    "register_workload",
    "run",
    "runners",
    "scenario_grid",
    "short_hash",
    "stream_fingerprint",
    "workload_required_params",
    "workload_summaries",
]
