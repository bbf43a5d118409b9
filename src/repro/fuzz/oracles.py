"""The pluggable oracle stack: what "correct" means for a fuzzed spec.

Each oracle examines one :class:`~repro.api.scenario.ExperimentSpec` through
a shared :class:`CaseContext` (which caches algorithm runs so the stack does
not re-execute them per oracle) and returns a list of :class:`Violation`
records — empty when the case passes.

Shipped oracles
---------------
``differential``
    Every registered algorithm must agree with the sequential baseline: the
    run's own checks must pass, and the final tree — shipped back via the
    runners' ``record_state`` snapshot — is independently re-verified with
    :func:`~repro.verify.mst_check.mst_difference` (exact agreement with
    Kruskal) *and* :func:`~repro.verify.certificates.check_mst_certificates`
    (cut/cycle certificates, which do not trust Kruskal either) on graphs
    whose weights stayed distinct; on pre-churned or duplicate-weight graphs
    agreement is relaxed to minimum total weight, mirroring the runners'
    documented semantics.  :func:`~repro.api.registry.algorithm_traits`
    supplies each algorithm's claimed invariant, so newly registered
    algorithms are checked at exactly the strength they declare.
    Repair runners (those accepting ``repair_batch``) additionally run a
    forced-sequential and a batched-wave leg and must produce the same
    final forest — the batched-repair equality contract.
``fastpath``
    A deterministically chosen sample of algorithms is re-run under
    :func:`repro.fastpath.reference_path`; messages/bits/rounds/phases and
    all checks must be bit-identical to the fast-path run.
``determinism``
    Every algorithm is re-run in-process and must reproduce the identical
    result payload (wall time aside); on cases flagged by the campaign the
    whole case is additionally executed through a two-worker
    :class:`~repro.api.engine.ExperimentEngine` and compared against the
    serial engine, extending the parallel==serial guarantee to fuzzed specs.
``provenance``
    Structural consistency of the spec and its results: the spec survives a
    JSON round-trip, and every result records the workload/schedule/fault
    provenance the spec demanded (names match, fault seeds are resolved,
    active fault programs leave an event log, node counts line up).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api import (
    ExperimentEngine,
    ExperimentJob,
    ExperimentSpec,
    RunResult,
    algorithm_traits,
    check_reach,
    derive_seed,
    get_runner,
    list_algorithms,
)
from ..fastpath import reference_path
from ..network.errors import AlgorithmError, ForestError
from ..network.fragments import SpanningForest
from ..network.graph import Graph
from ..registry import Registry
from ..verify import (
    check_mst_certificates,
    check_spanning_forest,
    is_minimum_weight_forest,
    mst_difference,
)

__all__ = [
    "Violation",
    "CaseContext",
    "DifferentialOracle",
    "FastpathOracle",
    "DeterminismOracle",
    "ProvenanceOracle",
    "ORACLE_REGISTRY",
    "default_algorithms",
    "default_oracles",
    "make_oracles",
    "restore_final_state",
    "run_recorded",
]


#: name -> zero-argument oracle class, one entry per shipped oracle.
ORACLE_REGISTRY = Registry("oracle", "oracles", AlgorithmError)


@dataclass(frozen=True)
class Violation:
    """One oracle failure on one spec (the fuzzer's unit of bad news)."""

    oracle: str
    detail: str
    algorithm: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle,
            "algorithm": self.algorithm,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        where = f" [{self.algorithm}]" if self.algorithm else ""
        return f"{self.oracle}{where}: {self.detail}"


def _accepts(runner: Any, option: str) -> bool:
    import inspect

    try:
        return option in inspect.signature(runner.run).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic runners
        return False


def run_recorded(algorithm: str, spec: ExperimentSpec) -> RunResult:
    """Run ``algorithm`` on ``spec``, asking for the final-state snapshot.

    ``record_state`` is forwarded only to runners that accept it (mirroring
    the CLI's signature-based option routing), so third-party runners
    without the snapshot hook still execute — their trees simply cannot be
    independently re-verified.
    """
    runner = get_runner(algorithm)
    options = {"record_state": True} if _accepts(runner, "record_state") else {}
    return runner.run(spec, **options)


def restore_final_state(result: RunResult) -> Optional[Tuple[Graph, SpanningForest]]:
    """Rebuild the final graph and tree from a ``record_state`` snapshot.

    Returns ``None`` when the result carries no snapshot.  The rebuilt graph
    contains exactly the recorded nodes and edges; note that edge *numbers*
    (insertion order) may differ from the live run, so verification against
    the snapshot must only rely on raw weights — which is precisely what the
    differential oracle does.
    """
    extra = result.extra
    if "tree_edges" not in extra or "graph_edges" not in extra:
        return None
    graph = Graph.from_edges(
        int(extra.get("graph_id_bits", 32)),
        [int(node) for node in extra.get("graph_nodes", [])],
        [(int(u), int(v), int(weight)) for u, v, weight in extra["graph_edges"]],
    )
    marked = [(int(u), int(v)) for u, v in extra["tree_edges"]]
    return graph, SpanningForest(graph, marked=marked)


def _canonical(result: RunResult) -> str:
    """The result as canonical JSON with the nondeterministic wall time gone."""
    payload = result.to_dict()
    payload.pop("wall_time_s", None)
    return json.dumps(payload, sort_keys=True)


def _stable_digest(text: str) -> int:
    """A process-independent integer digest (``hash()`` is salted for str)."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _active_faults(spec: ExperimentSpec) -> bool:
    return spec.faults is not None and not spec.faults.is_none


def _reached(algorithm: str, spec: ExperimentSpec) -> bool:
    try:
        check_reach(algorithm, spec)
    except AlgorithmError:
        return False
    return True


class CaseContext:
    """Shared per-case state: one state-recorded run of each algorithm.

    Oracles pull results through :meth:`result` so the expensive first
    execution happens once no matter how many oracles inspect it; it keeps
    only the ``algorithms`` the case's fault program and schedule reach.
    ``check_parallel`` is set by the campaign on the (sampled) cases where
    the determinism oracle should also spin up worker processes.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        algorithms: Sequence[str],
        check_parallel: bool = False,
    ) -> None:
        self.spec = spec
        self.algorithms = [name for name in algorithms if _reached(name, spec)]
        self.check_parallel = check_parallel
        self._results: Dict[str, RunResult] = {}

    def result(self, algorithm: str) -> RunResult:
        if algorithm not in self._results:
            self._results[algorithm] = run_recorded(algorithm, self.spec)
        return self._results[algorithm]


# ---------------------------------------------------------------------- #
# the oracles
# ---------------------------------------------------------------------- #
@ORACLE_REGISTRY.register("differential")
class DifferentialOracle:
    """Cross-check every algorithm's tree against the sequential baseline.

    For Monte Carlo algorithms (``algorithm_traits(...)["monte_carlo"]``) a
    single failed run is *allowed* — the paper only bounds the failure
    probability by ``n^-c`` over the algorithm's coins.  A suspect case is
    therefore re-run ``retries`` times with independent ``algorithm_seed``
    values (and the error exponent boosted to ``retry_c``); only a failure
    that persists through every retry is a violation.  Random blips are
    counted in :attr:`stats` so campaigns stay honest about how often the
    allowed failure mode actually fired.

    Runners that accept ``repair_batch`` are additionally run twice more —
    once sequential (``repair_batch=1``) and once with a spec-derived wave
    size — and must land on the *same final forest*.
    That is the batched-repair contract: per-update counters are replaced
    by per-wave amortized accounting, but in MST mode the maintained tree
    is the unique minimum spanning forest of the final graph (augmented
    weights are always distinct), so the processing order cannot change
    the answer.  Monte Carlo repair runners get the same reseed-and-retry
    treatment on divergence.
    """

    name = "differential"

    def __init__(self, retries: int = 3, retry_c: float = 3.0) -> None:
        if retries < 1:
            raise AlgorithmError("the differential oracle needs at least 1 retry")
        self.retries = retries
        self.retry_c = retry_c
        self.stats: Dict[str, int] = {
            "monte_carlo_suspects": 0,
            "monte_carlo_blips": 0,
            "batched_compared": 0,
            "batched_blips": 0,
        }

    def examine(self, spec: ExperimentSpec, context: CaseContext) -> List[Violation]:
        violations: List[Violation] = []
        faults_active = _active_faults(spec)
        for algorithm in context.algorithms:
            traits = algorithm_traits(algorithm)
            if faults_active and traits["may_fail_under_faults"]:
                # An incomplete tree under injected faults is the
                # experiment's finding, not a bug — nothing to cross-check.
                continue
            result = context.result(algorithm)
            failed = sorted(name for name, ok in result.checks.items() if not ok)
            if failed:
                retried = False
                if traits["monte_carlo"]:
                    blip = self._is_random_blip(spec, algorithm)
                    if blip:
                        continue
                    retried = blip is False  # None: no reseed hook, no retries ran
                violations.append(
                    Violation(
                        self.name,
                        f"runner checks failed: {failed}"
                        + (
                            f" (persistent across {self.retries} independent seeds)"
                            if retried
                            else ""
                        ),
                        algorithm,
                    )
                )
                continue
            state = restore_final_state(result)
            if state is None:
                continue
            graph, forest = state
            detail = self._verify_tree(
                graph, forest, traits["invariant"], pre_churned=spec.workload is not None
            )
            if detail is not None:
                violations.append(Violation(self.name, detail, algorithm))
        violations.extend(self._check_batched(spec, context, faults_active))
        return violations

    def _check_batched(
        self,
        spec: ExperimentSpec,
        context: CaseContext,
        faults_active: bool,
    ) -> List[Violation]:
        """Batched waves must reach the same final forest as sequential.

        Applies to every algorithm whose runner accepts both ``repair_batch``
        and ``record_state``.  The wave size is derived from the spec digest
        (2–4) so the whole fuzz grid exercises different wave geometries
        deterministically.
        """
        violations: List[Violation] = []
        for algorithm in context.algorithms:
            runner = get_runner(algorithm)
            if not (_accepts(runner, "repair_batch") and _accepts(runner, "record_state")):
                continue
            traits = algorithm_traits(algorithm)
            if faults_active and traits["may_fail_under_faults"]:
                continue
            base = _stable_digest(spec.to_json() + algorithm) & 0x7FFFFFFF
            wave = 2 + base % 3
            self.stats["batched_compared"] += 1
            detail = self._batched_divergence(runner, spec, wave)
            if detail is None:
                continue
            retried = False
            if traits["monte_carlo"] and _accepts(runner, "algorithm_seed"):
                blip = False
                for attempt in range(self.retries):
                    seed = derive_seed(base, attempt)
                    if (
                        self._batched_divergence(
                            runner, spec, wave, seed=seed, c=self.retry_c
                        )
                        is None
                    ):
                        blip = True
                        break
                if blip:
                    self.stats["batched_blips"] += 1
                    continue
                retried = True
            violations.append(
                Violation(
                    self.name,
                    f"batched wave={wave} diverged from sequential: {detail}"
                    + (
                        f" (persistent across {self.retries} independent seeds)"
                        if retried
                        else ""
                    ),
                    algorithm,
                )
            )
        return violations

    @staticmethod
    def _batched_divergence(
        runner: Any,
        spec: ExperimentSpec,
        wave: int,
        seed: Optional[int] = None,
        c: Optional[float] = None,
    ) -> Optional[str]:
        """Run one sequential and one batched leg; describe any divergence."""
        options: Dict[str, Any] = {} if seed is None else {"algorithm_seed": seed}
        if c is not None and _accepts(runner, "c"):
            # Retry legs boost the error exponent like _is_random_blip does:
            # at tiny n the paper's n^-c bound is weak enough that unboosted
            # reseeds can all blip, misreporting chance as divergence.
            options["c"] = c
        sequential = runner.run(spec, record_state=True, repair_batch=1, **options)
        batched = runner.run(spec, record_state=True, repair_batch=wave, **options)
        if not all(sequential.checks.values()):
            # The algorithm itself failed on this spec — a Monte Carlo
            # casualty the main differential loop already polices (with
            # boosted-c reseeds).  Batching is only on trial for *diverging
            # from sequential*, and a failed sequential leg leaves no
            # trusted baseline to diverge from.
            return None
        failed = sorted(name for name, ok in batched.checks.items() if not ok)
        if failed:
            return f"batched run failed its own checks: {failed}"
        seq_graph = sorted(map(tuple, sequential.extra.get("graph_edges", [])))
        bat_graph = sorted(map(tuple, batched.extra.get("graph_edges", [])))
        if seq_graph != bat_graph:
            # Both legs replay the identical update stream, so even the raw
            # graphs must agree — a mismatch means coalescing lost an edge.
            return "final graphs differ"
        seq_tree = sorted(map(tuple, sequential.extra.get("tree_edges", [])))
        bat_tree = sorted(map(tuple, batched.extra.get("tree_edges", [])))
        if seq_tree != bat_tree:
            extra = [e for e in bat_tree if e not in seq_tree]
            missing = [e for e in seq_tree if e not in bat_tree]
            return f"final trees differ: extra={extra[:6]} missing={missing[:6]}"
        return None

    def _is_random_blip(self, spec: ExperimentSpec, algorithm: str) -> Optional[bool]:
        """Retry a suspect Monte Carlo failure with independent coins.

        Returns True — an allowed random failure, not a bug — as soon as any
        reseeded run passes all its checks; False when the failure survived
        every retry; None when the runner offers no reseed hook, so no
        retries ran at all.  The retry seeds derive from the spec digest, so
        campaigns stay deterministic.
        """
        self.stats["monte_carlo_suspects"] += 1
        runner = get_runner(algorithm)
        if not _accepts(runner, "algorithm_seed"):
            # Claims to be Monte Carlo but offers no way to reseed its
            # coins: nothing to retry, so the failure stands as reported.
            return None
        base = _stable_digest(spec.to_json()) & 0x7FFFFFFF
        options: Dict[str, Any] = {}
        if _accepts(runner, "c"):
            options["c"] = self.retry_c
        for attempt in range(self.retries):
            retry = runner.run(
                spec, algorithm_seed=derive_seed(base, attempt), **options
            )
            if retry.ok:
                self.stats["monte_carlo_blips"] += 1
                return True
        return False

    @staticmethod
    def _verify_tree(
        graph: Graph, forest: SpanningForest, invariant: str, pre_churned: bool
    ) -> Optional[str]:
        try:
            check_spanning_forest(forest)
        except ForestError as exc:
            return f"final tree is not a spanning forest: {exc}"
        if invariant != "minimum":
            return None
        weights = [edge.weight for edge in graph.edges()]
        distinct = len(weights) == len(set(weights))
        if distinct and not pre_churned:
            extra, missing = mst_difference(forest)
            if extra or missing:
                return (
                    "tree disagrees with the sequential MST: "
                    f"extra={sorted(extra)} missing={sorted(missing)}"
                )
            try:
                check_mst_certificates(forest)
            except ForestError as exc:
                return f"MST certificates rejected the tree: {exc}"
        elif not is_minimum_weight_forest(forest):
            return "tree weight exceeds the sequential minimum forest weight"
        return None


@ORACLE_REGISTRY.register("fastpath")
class FastpathOracle:
    """Fast-path counters must be bit-identical to the reference path."""

    name = "fastpath"

    def __init__(self, sample: int = 2) -> None:
        if sample < 1:
            raise AlgorithmError("the fastpath oracle needs a sample of at least 1")
        self.sample = sample

    def _sampled(self, spec: ExperimentSpec, algorithms: Sequence[str]) -> List[str]:
        if len(algorithms) <= self.sample:
            return list(algorithms)
        start = _stable_digest(spec.to_json()) % len(algorithms)
        return [
            algorithms[(start + offset) % len(algorithms)]
            for offset in range(self.sample)
        ]

    def examine(self, spec: ExperimentSpec, context: CaseContext) -> List[Violation]:
        violations: List[Violation] = []
        for algorithm in self._sampled(spec, context.algorithms):
            fast = context.result(algorithm)
            with reference_path():
                reference = run_recorded(algorithm, spec)
            if fast.counters() != reference.counters():
                violations.append(
                    Violation(
                        self.name,
                        f"counters diverged: fast={fast.counters()} "
                        f"reference={reference.counters()}",
                        algorithm,
                    )
                )
            elif fast.checks != reference.checks:
                violations.append(
                    Violation(
                        self.name,
                        f"checks diverged: fast={fast.checks} "
                        f"reference={reference.checks}",
                        algorithm,
                    )
                )
        return violations


@ORACLE_REGISTRY.register("determinism")
class DeterminismOracle:
    """Same spec, same result — in-process, and (sampled) across processes."""

    name = "determinism"

    def examine(self, spec: ExperimentSpec, context: CaseContext) -> List[Violation]:
        violations: List[Violation] = []
        for algorithm in context.algorithms:
            first = context.result(algorithm)
            second = run_recorded(algorithm, spec)
            if _canonical(first) != _canonical(second):
                violations.append(
                    Violation(
                        self.name, "two serial runs produced different results", algorithm
                    )
                )
        if context.check_parallel and context.algorithms:
            violations.extend(self._parallel_check(spec, context))
        return violations

    def _parallel_check(
        self, spec: ExperimentSpec, context: CaseContext
    ) -> List[Violation]:
        algorithms = list(context.algorithms)
        if len(algorithms) == 1:
            # The engine runs a lone job inline; a second copy of it sends
            # the case through the worker processes.
            algorithms *= 2
        jobs = [ExperimentJob(algorithm, spec) for algorithm in algorithms]
        serial = ExperimentEngine(jobs=1).run(jobs)
        parallel = ExperimentEngine(jobs=2).run(jobs)
        for algorithm, one, two in zip(algorithms, serial, parallel):
            if _canonical(one) != _canonical(two):
                return [
                    Violation(
                        self.name,
                        "parallel engine result diverged from the serial engine",
                        algorithm,
                    )
                ]
        return []


@ORACLE_REGISTRY.register("provenance")
class ProvenanceOracle:
    """Specs round-trip and results record the scenario that produced them."""

    name = "provenance"

    def examine(self, spec: ExperimentSpec, context: CaseContext) -> List[Violation]:
        violations: List[Violation] = []
        restored = ExperimentSpec.from_json(spec.to_json())
        if restored != spec or hash(restored) != hash(spec):
            return [Violation(self.name, "spec does not survive a JSON round-trip")]
        for algorithm in context.algorithms:
            result = context.result(algorithm)
            detail = self._check_result(spec, result)
            if detail is not None:
                violations.append(Violation(self.name, detail, algorithm))
        return violations

    @staticmethod
    def _check_result(spec: ExperimentSpec, result: RunResult) -> Optional[str]:
        if result.spec != spec.graph:
            return "result lost the graph spec it ran on"
        if result.n != spec.graph.nodes:
            return f"result reports n={result.n} for a {spec.graph.nodes}-node spec"
        if spec.workload is not None:
            if result.workload is None or result.workload.name != spec.workload.name:
                return f"workload provenance lost (expected {spec.workload.name!r})"
        if spec.schedule is not None:
            if (
                result.schedule is None
                or result.schedule.scheduler != spec.schedule.scheduler
            ):
                return f"schedule provenance lost (expected {spec.schedule.scheduler!r})"
        if _active_faults(spec):
            if result.faults is None or result.faults.name != spec.faults.name:
                return f"fault provenance lost (expected {spec.faults.name!r})"
            if result.faults.seed is None:
                return "fault seed was not resolved (run is not replayable)"
            if "fault_events" not in result.extra:
                return "active fault program left no fault_events record"
        return None


def default_oracles() -> List[Any]:
    """The full shipped stack, in deterministic order."""
    return make_oracles(ORACLE_REGISTRY.names())


def make_oracles(names: Optional[Sequence[str]]) -> List[Any]:
    """Instantiate a named subset of the stack (``None`` = all of it)."""
    if names is None:
        return default_oracles()
    return [ORACLE_REGISTRY.get(name)() for name in names]


def default_algorithms() -> List[str]:
    """Every registered algorithm, sorted (the differential fleet)."""
    return list_algorithms()
