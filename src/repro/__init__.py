"""repro: King–Kutten–Thorup (PODC 2015) MST construction & impromptu repair.

A from-scratch reproduction of *"Construction and Impromptu Repair of an MST
in a Distributed Network with o(m) Communication"*: a CONGEST-model network
simulator with exact message/bit/round accounting, the paper's Monte Carlo
procedures (TestOut, HP-TestOut, FindMin, FindAny), synchronous Build-MST /
Build-ST, impromptu repair under edge updates, and the classic baselines
(GHS, flooding) the paper improves upon.

Quickstart
----------
The unified runner API names every algorithm in a registry and returns a
uniform, JSON-round-trippable :class:`RunResult`:

>>> from repro import GraphSpec, run, list_algorithms
>>> list_algorithms()
['flooding', 'ghs', 'kkt-mst', 'kkt-repair', 'kkt-st', 'recompute-repair']
>>> result = run("kkt-mst", GraphSpec(nodes=96, density="complete", seed=7))
>>> result.ok
True
>>> result.counters()  # uniform counters, JSON-round-trippable via to_json()
{'messages': ..., 'bits': ..., 'rounds': ..., 'phases': ...}

Size sweeps, head-to-head comparisons and scenario suites are all job
grids, which fan out across worker processes with deterministic per-job
seeding:

>>> from repro import ExperimentEngine, scenario_grid
>>> graphs = [GraphSpec(nodes=n, density="complete") for n in (32, 64, 96)]
>>> results = ExperimentEngine(jobs=4).run(scenario_grid(["kkt-st", "flooding"], graphs))

The original object-level entry points remain available (and
``build_mst`` / ``build_st`` now delegate to the registry):

>>> from repro import build_mst, generators
>>> graph = generators.random_connected_graph(64, 256, seed=7)
>>> report = build_mst(graph, seed=7)
>>> report.is_spanning
True
"""

from typing import Optional

from . import (
    analysis,
    baselines,
    byzantine,
    core,
    dynamic,
    fastpath,
    fuzz,
    generators,
    network,
    verify,
)
from .fastpath import fast_path, reference_path
from .core import (
    AlgorithmConfig,
    BuildMST,
    BuildReport,
    BuildST,
    CutTester,
    FindAny,
    FindMin,
    FindResult,
    RepairReport,
    SuperpolyFindMin,
    TreeRepairer,
)
from .network import (
    Edge,
    EdgeDelayScheduler,
    FifoScheduler,
    Graph,
    LifoScheduler,
    MessageAccountant,
    RandomScheduler,
    Scheduler,
    SpanningForest,
    make_scheduler,
)
from . import api
from .api import (
    AlgorithmRunner,
    ExperimentEngine,
    ExperimentJob,
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    RunResult,
    ScheduleSpec,
    WorkloadSpec,
    get_fault,
    get_runner,
    get_workload,
    list_algorithms,
    list_faults,
    list_workloads,
    register,
    register_fault,
    register_workload,
    run,
    scenario_grid,
)

__version__ = "1.5.0"

__all__ = [
    "AlgorithmConfig",
    "AlgorithmRunner",
    "BuildMST",
    "BuildReport",
    "BuildST",
    "CutTester",
    "Edge",
    "EdgeDelayScheduler",
    "ExperimentEngine",
    "ExperimentJob",
    "ExperimentSpec",
    "FaultSpec",
    "FifoScheduler",
    "FindAny",
    "FindMin",
    "FindResult",
    "Graph",
    "GraphSpec",
    "LifoScheduler",
    "MessageAccountant",
    "RandomScheduler",
    "RepairReport",
    "RunResult",
    "ScheduleSpec",
    "Scheduler",
    "SpanningForest",
    "SuperpolyFindMin",
    "TreeRepairer",
    "WorkloadSpec",
    "analysis",
    "api",
    "baselines",
    "build_mst",
    "byzantine",
    "build_st",
    "core",
    "dynamic",
    "fast_path",
    "fastpath",
    "fuzz",
    "generators",
    "get_fault",
    "get_runner",
    "get_workload",
    "list_algorithms",
    "list_faults",
    "list_workloads",
    "make_scheduler",
    "network",
    "reference_path",
    "register",
    "register_fault",
    "register_workload",
    "run",
    "scenario_grid",
    "verify",
    "__version__",
]


def build_mst(
    graph: Graph,
    seed: Optional[int] = None,
    c: float = 1.0,
) -> BuildReport:
    """Build a minimum spanning forest of ``graph`` (Theorem 1.1, MST).

    Compatibility shim: delegates to the ``kkt-mst`` runner in the algorithm
    registry (see :func:`repro.run` for the spec-based entry point).
    """
    return get_runner("kkt-mst").build_report(graph, seed=seed, c=c)


def build_st(
    graph: Graph,
    seed: Optional[int] = None,
    c: float = 1.0,
) -> BuildReport:
    """Build a spanning forest of ``graph`` (Theorem 1.1, ST).

    Compatibility shim: delegates to the ``kkt-st`` runner in the algorithm
    registry (see :func:`repro.run` for the spec-based entry point).
    """
    return get_runner("kkt-st").build_report(graph, seed=seed, c=c)
