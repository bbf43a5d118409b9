"""Registry adapters wrapping the existing algorithm implementations.

Every registered runner shares one run skeleton, :meth:`_Runner._run`:
scenario → execute → verify → record.

* **scenario** — the :class:`~repro.api.scenario.ExperimentSpec` (a bare
  :class:`~repro.api.spec.GraphSpec` is accepted and coerced) is resolved
  into a :class:`_ConstructionScenario` or the shared
  :class:`_RepairScenario`;
* **execute** — the runner's own step drives the underlying implementation
  (KKT Build-MST/ST, GHS, flooding, impromptu repair, recompute-from-scratch)
  and returns its counters, final tree and runner-specific extras.  Only
  this step is timed (``wall_time_s``), optionally under a hardened delivery
  substrate;
* **verify** — the runner's validity checks on the final tree;
* **record** — the shared extras (``substrate``, scenario and fault
  provenance, the ``record_state`` snapshot) and the uniform
  :class:`~repro.api.result.RunResult`.

The implementations themselves are untouched — the adapters only translate
shapes.

Scenario semantics
------------------
* For the repair runners the workload *is* the experiment: the update stream
  is generated by the registered workload (default ``churn``, reproducing the
  PR-1 counters exactly) and applied through the maintainer.
* For the construction runners a workload is a *pre-churn*: the update
  stream is applied to the graph topology first (against a reference forest),
  then the tree is built on what is left.
* A schedule acts on deliveries, so only ``flooding``, which executes its
  protocol on the scheduled asynchronous engine, accepts one.  The other
  runners charge every step as a self-synchronising broadcast-and-echo,
  whose cost does not depend on delivery order, so a schedule could not
  change their run and is rejected (:func:`~repro.api.registry.check_reach`).
* A fault model (:class:`~repro.api.faults.FaultSpec`) feeds the repair
  runners the fault program's link failures/healings as update events
  (applied through the maintainer after the workload), pre-damages the
  input graph of a construction run, and — for ``flooding``, which runs on
  the event kernel — installs the program's
  :class:`~repro.network.faults.FaultInjector` at the delivery boundary.
  A program acting on nothing a runner ``reads`` is rejected
  (:func:`~repro.api.registry.check_reach`).
  The observed fault history is recorded in ``extra["fault_events"]``.
* A delivery substrate (``substrate="bracha"`` on the KKT runners) hardens
  the broadcast-and-echo fabric against Byzantine senders: every logical
  tree-hop message is charged as a full Bracha reliable-broadcast instance
  (see :mod:`repro.byzantine.substrate`).  The final tree is unchanged —
  hardening buys integrity, not a different answer — and ``"plain"`` (the
  default) keeps every counter bit-identical to the historical accounting.

Registered names
----------------
``kkt-mst``, ``kkt-st``
    The paper's constructions (Theorem 1.1).
``ghs``, ``flooding``
    The classic baselines the paper improves on.
``kkt-repair``, ``recompute-repair``
    Impromptu repair under a registered workload vs. rebuilding from scratch.
"""

from __future__ import annotations

import inspect
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..baselines.flooding_st import flooding_spanning_tree
from ..baselines.ghs import GHSBuildMST
from ..baselines.recompute_repair import RecomputeMaintainer
from ..baselines.sequential import kruskal_mst
from ..core.build_mst import BuildMST, BuildReport
from ..core.build_st import BuildST
from ..core.config import AlgorithmConfig
from ..dynamic import TreeMaintainer, UpdateKind, UpdateStream
from ..network.broadcast import delivery_substrate, make_substrate
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Graph
from ..verify import (
    is_minimum_spanning_forest,
    is_minimum_weight_forest,
    is_spanning_forest,
)
from .faults import FaultProgram
from .registry import check_reach, register
from .result import RunResult
from .scenario import ExperimentSpec, _trace_stream, stream_fingerprint

__all__ = [
    "canonical_options",
    "final_state_extra",
    "KKTMSTRunner",
    "KKTSTRunner",
    "GHSRunner",
    "FloodingRunner",
    "KKTRepairRunner",
    "RecomputeRepairRunner",
]


# ---------------------------------------------------------------------- #
# scenario helpers
# ---------------------------------------------------------------------- #
def final_state_extra(graph: Graph, forest: SpanningForest) -> Dict[str, Any]:
    """A JSON-friendly snapshot of a run's final graph and tree.

    Runners attach this to ``extra`` when called with ``record_state=True``
    so external verifiers — the fuzzing oracles, notably — can rebuild the
    exact graph the algorithm finished on and re-check its tree against the
    sequential baseline without trusting the runner's own checks.  Everything
    is plain sorted lists, so the snapshot survives JSON and the process
    boundary bit-for-bit.
    """
    return {
        "graph_id_bits": graph.id_bits,
        "graph_nodes": sorted(graph.nodes()),
        "graph_edges": sorted(
            [min(e.u, e.v), max(e.u, e.v), e.weight] for e in graph.edges()
        ),
        "tree_edges": sorted([u, v] for u, v in forest.marked_edges),
    }


def _reference_forest(graph: Graph) -> SpanningForest:
    """A cheap sequential MSF, used only to *generate* workload streams."""
    return SpanningForest(graph, marked=[(e.u, e.v) for e in kruskal_mst(graph)])


def _apply_to_graph(graph: Graph, stream: UpdateStream) -> None:
    """Apply a stream directly to the topology (no repair, no accounting)."""
    for update in stream:
        if update.kind is UpdateKind.INSERT:
            graph.add_edge(update.u, update.v, update.effective_weight)
        elif update.kind is UpdateKind.DELETE:
            graph.remove_edge(update.u, update.v)
        else:
            graph.set_weight(update.u, update.v, update.effective_weight)


def _fault_extra(program: Optional[FaultProgram]) -> Dict[str, Any]:
    """Fault provenance rows for the result's ``extra`` payload.

    Read after execution: a program's injector records drops and duplicates
    live while a kernel-level run (``flooding``) is in flight.
    """
    if program is None:
        return {}
    return {
        "fault_updates_applied": len(program.stream),
        "fault_events": program.event_log(),
    }


class _ConstructionScenario:
    """The input graph for a *construction* run.

    Without a workload this is just ``experiment.graph.build()``.  With one,
    the workload stream is applied to the topology first (a "pre-churn"), so
    the construction runs on the network the update stream left behind; for
    ``trace-replay`` the trace's own initial graph is the starting point.
    A fault program then *pre-damages* the result: its link failures and
    healings are applied on top, so the construction runs on the network the
    faults left behind (the program also carries the kernel-level injector
    for runners that execute on the simulators).  The program is built
    against the post-churn graph, so its topology stream applies in order.

    ``seed`` drives the algorithm's coins: the graph seed unless
    ``algorithm_seed`` reseeds them without touching the graph.
    """

    def __init__(
        self, experiment: ExperimentSpec, algorithm_seed: Optional[int] = None
    ) -> None:
        self.schedule = experiment.resolved_schedule()
        self.seed = experiment.graph.seed if algorithm_seed is None else algorithm_seed
        self._workload_extra: Dict[str, Any] = {}
        if experiment.workload is None:
            self.graph, self.workload = experiment.graph.build(), None
        else:
            self.workload = experiment.resolved_workload()
            trace_state = self.workload.trace_state()
            if trace_state is not None:
                self.graph, _forest, trace = trace_state
                stream = _trace_stream(trace, self.workload.updates)
            else:
                self.graph = experiment.graph.build()
                stream = self.workload.build(self.graph, _reference_forest(self.graph))
            _apply_to_graph(self.graph, stream)
            self._workload_extra = {
                "workload_updates_applied": len(stream),
                "stream_fingerprint": stream_fingerprint(stream),
            }
        self.fault = experiment.resolved_faults()
        self.fault_program: Optional[FaultProgram] = None
        if self.fault is not None and not self.fault.is_none:
            self.fault_program = self.fault.build(
                self.graph, _reference_forest(self.graph)
            )
            _apply_to_graph(self.graph, self.fault_program.stream)

    def provenance(self) -> Dict[str, Any]:
        """Workload and fault provenance rows for ``extra``."""
        return {**self._workload_extra, **_fault_extra(self.fault_program)}


def _repair_mode(mode: Optional[str]) -> str:
    mode = mode or "mst"
    if mode not in ("mst", "st"):
        raise AlgorithmError("mode must be 'mst' or 'st'")
    return mode


class _RepairScenario:
    """The shared repair setup: one workload, consumed by both repair runners.

    Holds the graph, the maintained forest (freshly built, or rebuilt from a
    trace), the update stream generated by the *registered* workload — both
    runners build this, so their update sequences are identical by
    construction — plus the effective mode/seed (a replayed trace pins its
    own: replaying an ST trace recorded with seed 5 must not silently run an
    MST maintainer seeded from the graph spec) and the build report (``None``
    on the trace path).  ``c`` is the error exponent of the initial build.

    The fault program — whose link failures/healings are the *extra* update
    events both repair runners must process after the workload (Theorem 1.2:
    deletions arrive from the network, not from a benign generator) — is
    generated against a shadow copy of the post-workload graph with a
    reference forest, so both runners see the bit-identical fault stream no
    matter how their own maintained forests evolved.
    """

    def __init__(
        self,
        experiment: ExperimentSpec,
        updates: int,
        mode: Optional[str],
        algorithm_seed: Optional[int] = None,
        c: float = 1.0,
    ) -> None:
        self.mode = _repair_mode(mode)
        self.schedule = experiment.resolved_schedule()
        self.workload = experiment.resolved_workload(default_updates=updates)
        trace_state = self.workload.trace_state()
        if trace_state is not None:
            self.graph, self.forest, trace = trace_state
            self.stream = _trace_stream(trace, self.workload.updates)
            self.mode = _repair_mode(trace.mode)
            # A replayed trace pins its own seed; an algorithm_seed override
            # would break bit-for-bit replay, so it is ignored here.
            self.seed = trace.seed
            self.build_report: Optional[BuildReport] = None
        else:
            self.seed = (
                experiment.graph.seed if algorithm_seed is None else algorithm_seed
            )
            self.graph = experiment.graph.build()
            config = AlgorithmConfig(n=self.graph.num_nodes, seed=self.seed, c=c)
            builder = BuildMST if self.mode == "mst" else BuildST
            self.build_report = builder(self.graph, config=config).run()
            self.forest = self.build_report.forest
            self.stream = self.workload.build(self.graph, self.forest)
        self.fault = experiment.resolved_faults()
        self.fault_program: Optional[FaultProgram] = None
        if self.fault is not None and not self.fault.is_none:
            shadow = self.graph.copy()
            _apply_to_graph(shadow, self.stream)
            self.fault_program = self.fault.build(shadow, _reference_forest(shadow))

    @property
    def fault_stream(self) -> UpdateStream:
        """The fault program's update events (empty without a program)."""
        if self.fault_program is None:
            return UpdateStream()
        return self.fault_program.stream

    def provenance(self) -> Dict[str, Any]:
        """Mode, workload and fault provenance rows for ``extra``."""
        return {
            "mode": self.mode,
            "updates": len(self.stream),
            "stream_fingerprint": stream_fingerprint(self.stream),
            **_fault_extra(self.fault_program),
        }


# ---------------------------------------------------------------------- #
# the run skeleton
# ---------------------------------------------------------------------- #
@dataclass
class _Execution:
    """What a runner's execute step hands back: counters, tree, own extras."""

    forest: SpanningForest
    messages: int
    bits: int
    rounds: int
    phases: int
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def of_report(cls, report: Any, **extra: Any) -> "_Execution":
        """From a construction report (KKT :class:`BuildReport` or GHS)."""
        return cls(
            forest=report.forest,
            messages=report.messages,
            bits=report.bits,
            rounds=report.rounds_parallel,
            phases=report.phases,
            extra=extra,
        )


class _Runner:
    """The one run skeleton: scenario → execute → verify → record."""

    name: str
    _scenario_cls: type
    # What of a fault program or a schedule reaches the run.
    reads: Tuple[str, ...]

    def _checks(self, scenario: Any, forest: SpanningForest) -> Dict[str, bool]:
        raise NotImplementedError

    def _run(
        self,
        spec: ExperimentSpec,
        execute: Callable[[Any], _Execution],
        record_state: bool = False,
        substrate: Optional[str] = None,
        **scenario_options: Any,
    ) -> RunResult:
        experiment = ExperimentSpec.coerce(spec)
        check_reach(self.name, experiment)
        scenario = self._scenario_cls(experiment, **scenario_options)
        start = time.perf_counter()
        hardening = (
            nullcontext()
            if substrate is None
            else delivery_substrate(
                make_substrate(substrate, n=max(scenario.graph.num_nodes, 1))
            )
        )
        with hardening:
            execution = execute(scenario)
        elapsed = time.perf_counter() - start

        forest = execution.forest
        graph = forest.graph
        checks = self._checks(scenario, forest)
        extra = scenario.provenance()
        extra.update(execution.extra)
        if substrate not in (None, "plain"):
            extra["substrate"] = substrate
        if record_state:
            extra.update(final_state_extra(graph, forest))
        return RunResult(
            algorithm=self.name,
            spec=experiment.graph,
            n=graph.num_nodes,
            m=graph.num_edges,
            messages=execution.messages,
            bits=execution.bits,
            rounds=execution.rounds,
            phases=execution.phases,
            wall_time_s=elapsed,
            checks=checks,
            extra=extra,
            workload=scenario.workload,
            schedule=scenario.schedule,
            faults=scenario.fault,
        )


class _ConstructionRunner(_Runner):
    """Construction runners: a spanning tree, minimal when ``invariant`` says so.

    Generated graphs carry distinct weights, so the unique augmented MSF must
    match exactly.  A pre-churn workload may have inserted random-weight
    edges that break the distinctness assumption; there the minimum forest is
    no longer unique and correctness means matching Kruskal's total weight.
    """

    _scenario_cls = _ConstructionScenario
    invariant = "spanning"
    reads = ("topology",)

    def _checks(
        self, scenario: _ConstructionScenario, forest: SpanningForest
    ) -> Dict[str, bool]:
        if self.invariant != "minimum":
            return {"spanning": is_spanning_forest(forest)}
        minimum = (
            is_minimum_weight_forest
            if scenario.workload is not None
            else is_minimum_spanning_forest
        )(forest)
        # A minimum forest is spanning, so a correct construction is
        # verified once; only a failing one is checked for spanning again.
        spanning = minimum or is_spanning_forest(forest)
        return {"spanning": spanning, "minimum": minimum}


class _RepairRunner(_Runner):
    """Repair runners: the maintained tree keeps the mode's invariant."""

    _scenario_cls = _RepairScenario
    invariant = "minimum"
    reads = ("updates",)

    def _checks(self, scenario: _RepairScenario, forest: SpanningForest) -> Dict[str, bool]:
        checker = (
            is_minimum_spanning_forest if scenario.mode == "mst" else is_spanning_forest
        )
        return {"invariant": checker(forest)}


# ---------------------------------------------------------------------- #
# constructions
# ---------------------------------------------------------------------- #
class _KKTConstructionRunner(_ConstructionRunner):
    """Shared adapter for the two KKT constructions.

    The constructions are Monte Carlo (failure probability ``<= n^-c`` over
    the algorithm's coins); ``algorithm_seed`` reseeds those coins without
    touching the graph, which is how external verifiers distinguish an
    allowed random failure from a persistent bug.
    """

    _builder_cls: type
    invariant = "minimum"
    monte_carlo = True

    def build_report(
        self, graph: Graph, seed: Optional[int] = None, c: float = 1.0
    ) -> BuildReport:
        """Run on an existing graph, returning the raw :class:`BuildReport`.

        This is what the ``repro.build_mst`` / ``repro.build_st``
        compatibility shims and ``repro trace record`` delegate to.
        """
        config = AlgorithmConfig(n=max(graph.num_nodes, 1), c=c, seed=seed)
        return self._builder_cls(graph, config=config).run()

    def run(
        self,
        spec: ExperimentSpec,
        c: float = 1.0,
        record_state: bool = False,
        algorithm_seed: Optional[int] = None,
        substrate: str = "plain",
    ) -> RunResult:
        def execute(scenario: _ConstructionScenario) -> _Execution:
            report = self.build_report(scenario.graph, seed=scenario.seed, c=c)
            return _Execution.of_report(
                report, broadcast_echoes=report.broadcast_echoes, c=c
            )

        return self._run(
            spec,
            execute,
            record_state=record_state,
            substrate=substrate,
            algorithm_seed=algorithm_seed,
        )


@register("kkt-mst", summary="KKT Build-MST: o(m)-message MST construction (Theorem 1.1)")
class KKTMSTRunner(_KKTConstructionRunner):
    """KKT Build-MST: o(m)-message MST construction (Theorem 1.1)."""

    _builder_cls = BuildMST


@register("kkt-st", summary="KKT Build-ST: o(m)-message spanning-tree construction")
class KKTSTRunner(_KKTConstructionRunner):
    """KKT Build-ST: o(m)-message spanning-tree construction."""

    _builder_cls = BuildST
    invariant = "spanning"


@register("ghs", summary="GHS baseline: classic distributed MST, Theta(m + n log n) messages")
class GHSRunner(_ConstructionRunner):
    """GHS baseline: classic distributed MST with Θ(m + n log n) messages."""

    invariant = "minimum"

    def run(
        self,
        spec: ExperimentSpec,
        max_phases: Optional[int] = None,
        record_state: bool = False,
    ) -> RunResult:
        def execute(scenario: _ConstructionScenario) -> _Execution:
            return _Execution.of_report(
                GHSBuildMST(scenario.graph, max_phases=max_phases).run()
            )

        return self._run(spec, execute, record_state=record_state)


@register("flooding", summary="Flooding baseline: Theta(m)-message broadcast-tree construction")
class FloodingRunner(_ConstructionRunner):
    """Flooding baseline: Θ(m)-message broadcast-tree construction.

    With a :class:`~repro.api.scenario.ScheduleSpec` the protocol runs
    directly on the asynchronous engine under the named scheduler — the one
    runner whose *counters* genuinely depend on the delivery adversary.
    With a :class:`~repro.api.faults.FaultSpec` the fault program's injector
    is installed at the kernel's delivery boundary, so crashes, dead links
    and lossy delivery hit the protocol itself (a lossy or partitioned run
    may legitimately fail its ``spanning`` check — that is the experiment's
    finding, not an error; ``may_fail_under_faults`` declares exactly that to
    :func:`~repro.api.registry.algorithm_traits` consumers).
    """

    invariant = "spanning"
    may_fail_under_faults = True
    reads = ("deliveries", "topology")

    def run(
        self, spec: ExperimentSpec, engine: str = "sync", record_state: bool = False
    ) -> RunResult:
        def execute(scenario: _ConstructionScenario) -> _Execution:
            run_engine, scheduler, extra = engine, None, {}
            if scenario.schedule is not None:
                run_engine, scheduler = "async", scenario.schedule.build()
                extra["delivery_scheduler"] = scenario.schedule.scheduler
            program = scenario.fault_program
            forest, acct = flooding_spanning_tree(
                scenario.graph,
                engine=run_engine,
                scheduler=scheduler,
                faults=None if program is None else program.injector,
            )
            extra["engine"] = run_engine
            return _Execution(
                forest, acct.messages, acct.bits, acct.rounds, len(acct.phases), extra
            )

        return self._run(spec, execute, record_state=record_state)


# ---------------------------------------------------------------------- #
# repair
# ---------------------------------------------------------------------- #
def canonical_options(runner: Any, options: Dict[str, Any]) -> Dict[str, Any]:
    """``options`` without the entries that cannot change ``runner``'s run.

    Drops an option equal to the default of the runner's ``run`` (the
    flags the CLI never forwards), so every spelling of one run is one
    request.  Options the runner does not take are kept for it to reject.
    """
    accepted = inspect.signature(runner.run).parameters
    return {
        key: value
        for key, value in options.items()
        if key not in accepted or value != accepted[key].default
    }


def _wave_size(repair_batch: int) -> int:
    """The repair wave size: how many updates one repair handles together."""
    if repair_batch < 1:
        raise AlgorithmError("repair_batch must be >= 1 (1 = one update per wave)")
    return repair_batch


def _wave_cost_extra(batch: int, costs: List[int]) -> Dict[str, Any]:
    """The wave size, the wave count and the messages of a wave."""
    return {
        "repair_batch": batch,
        "repair_waves": len(costs),
        "messages_per_wave_max": max(costs, default=0),
        "messages_per_wave_mean": sum(costs) / len(costs) if costs else 0.0,
    }


@register("kkt-repair", summary="KKT impromptu repair of an MST/ST under a registered workload")
class KKTRepairRunner(_RepairRunner):
    """KKT impromptu repair: maintain an MST/ST through an update workload."""

    monte_carlo = True

    def run(
        self,
        spec: ExperimentSpec,
        updates: int = 10,
        mode: str = "mst",
        record_state: bool = False,
        algorithm_seed: Optional[int] = None,
        substrate: str = "plain",
        repair_batch: int = 1,
        c: float = 1.0,
    ) -> RunResult:
        batch = _wave_size(repair_batch)

        def execute(scenario: _RepairScenario) -> _Execution:
            maintainer = TreeMaintainer(
                scenario.graph, scenario.forest, mode=scenario.mode, seed=scenario.seed
            )
            outcomes = maintainer.apply_stream(scenario.stream, batch)
            fault_outcomes = maintainer.apply_stream(scenario.fault_stream, batch)
            report = scenario.build_report
            # Costs are accounted per wave: the updates of a wave share one
            # repair round, so there is no per-update attribution.
            extra = {
                "build_messages": 0 if report is None else report.messages,
                **_wave_cost_extra(batch, maintainer.messages_per_wave()),
                "batched_saved_queries": sum(
                    outcome.report.skipped_candidates for outcome in maintainer.history
                ),
            }
            acct = maintainer.accountant
            return _Execution(
                scenario.forest,
                acct.messages,
                acct.bits,
                acct.rounds,
                len(outcomes) + len(fault_outcomes),
                extra,
            )

        return self._run(
            spec,
            execute,
            record_state=record_state,
            substrate=substrate,
            updates=updates,
            mode=mode,
            algorithm_seed=algorithm_seed,
            c=c,
        )


@register("recompute-repair", summary="Recompute baseline: rebuild the tree from scratch per update")
class RecomputeRepairRunner(_RepairRunner):
    """Recompute baseline: rebuild the MST/ST from scratch after every update."""

    def run(
        self,
        spec: ExperimentSpec,
        updates: int = 10,
        mode: str = "mst",
        record_state: bool = False,
        repair_batch: int = 1,
    ) -> RunResult:
        batch = _wave_size(repair_batch)

        # The workload is generated against the same initial tree as for
        # ``kkt-repair`` (one shared scenario), so the two runners process
        # the identical stream; the baseline replays it on its own copy.
        def execute(scenario: _RepairScenario) -> _Execution:
            maintainer = RecomputeMaintainer(scenario.graph.copy(), mode=scenario.mode)
            events = list(scenario.stream) + list(scenario.fault_stream)
            # Each wave applies its mutations, then one rebuild.
            deltas = [
                maintainer.apply_batch(events[offset : offset + batch])
                for offset in range(0, len(events), batch)
            ]
            costs = [delta.messages for delta in deltas]
            return _Execution(
                maintainer.forest,
                sum(costs),
                sum(delta.bits for delta in deltas),
                sum(delta.rounds for delta in deltas),
                len(deltas),
                _wave_cost_extra(batch, costs),
            )

        return self._run(
            spec, execute, record_state=record_state, updates=updates, mode=mode
        )
