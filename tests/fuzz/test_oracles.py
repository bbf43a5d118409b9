"""Tests for the oracle stack: clean specs pass, planted bugs are caught."""

import pytest

from repro.api import ExperimentSpec, GraphSpec, ScheduleSpec, WorkloadSpec, run
from repro.api import registry as registry_module
from repro.api.registry import register
from repro.fuzz import (
    CaseContext,
    DeterminismOracle,
    DifferentialOracle,
    FastpathOracle,
    ProvenanceOracle,
    default_algorithms,
    make_oracles,
    restore_final_state,
    run_recorded,
)
from repro.network.errors import AlgorithmError
from repro.verify import is_minimum_spanning_forest


def _context(spec, algorithms=None, check_parallel=False):
    return CaseContext(spec, algorithms or default_algorithms(), check_parallel)


CLEAN_SPECS = [
    ExperimentSpec(graph=GraphSpec(nodes=12, density="sparse", seed=3)),
    ExperimentSpec(
        graph=GraphSpec(nodes=14, density="medium", seed=5),
        workload=WorkloadSpec(name="churn", updates=4),
    ),
    # A schedule keeps flooding only: it is the one runner that reads deliveries.
    ExperimentSpec(
        graph=GraphSpec(nodes=14, density="medium", seed=5),
        workload=WorkloadSpec(name="churn", updates=4),
        schedule=ScheduleSpec(scheduler="random"),
    ),
]


class TestCleanSpecsPass:
    @pytest.mark.parametrize("spec", CLEAN_SPECS, ids=["static", "scenario", "scheduled"])
    def test_full_stack_accepts(self, spec):
        context = _context(spec)
        for oracle in make_oracles(None):
            assert oracle.examine(spec, context) == []


class TestRunRecorded:
    def test_snapshot_restores_graph_and_tree(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=10, density="sparse", seed=2))
        result = run_recorded("kkt-mst", spec)
        state = restore_final_state(result)
        assert state is not None
        graph, forest = state
        assert graph.num_nodes == 10
        assert is_minimum_spanning_forest(forest)

    def test_result_without_snapshot_restores_none(self):
        result = run("kkt-mst", GraphSpec(nodes=10, density="sparse", seed=2))
        assert restore_final_state(result) is None


@pytest.fixture
def broken_algorithm():
    """Register a deliberately wrong MST 'algorithm' for the oracle to catch.

    It claims the ``minimum`` invariant and a passing check, but ships a
    maximum-weight spanning tree in its snapshot — the differential oracle
    must reject it even though the runner's own checks lie.
    """
    from repro.api.runners import final_state_extra
    from repro.api.result import RunResult
    from repro.network.fragments import SpanningForest

    @register("broken-mst", summary="maximum spanning tree posing as minimum")
    class BrokenMSTRunner:
        invariant = "minimum"

        def run(self, spec, record_state=False, **options):
            experiment = ExperimentSpec.coerce(spec)
            graph = experiment.graph.build()
            forest = SpanningForest(graph)
            # Kruskal on negated weights: a maximum spanning tree.
            for edge in sorted(
                graph.edges(), key=lambda e: -e.augmented_weight(graph.id_bits)
            ):
                if edge.v not in forest.component_of(edge.u):
                    forest.mark(edge.u, edge.v)
            extra = final_state_extra(graph, forest) if record_state else {}
            return RunResult(
                algorithm=self.name,
                spec=experiment.graph,
                n=graph.num_nodes,
                m=graph.num_edges,
                messages=0,
                bits=0,
                rounds=0,
                phases=0,
                wall_time_s=0.0,
                checks={"spanning": True},  # the lie the oracle must expose
                extra=extra,
            )

    yield "broken-mst"
    registry_module.ALGORITHM_REGISTRY.entries.pop("broken-mst", None)


class TestDifferentialOracle:
    def test_catches_wrong_tree_behind_passing_checks(self, broken_algorithm):
        spec = ExperimentSpec(graph=GraphSpec(nodes=10, density="dense", seed=4))
        oracle = DifferentialOracle()
        violations = oracle.examine(spec, _context(spec, [broken_algorithm]))
        assert len(violations) == 1
        assert violations[0].algorithm == broken_algorithm
        assert "disagrees with the sequential MST" in violations[0].detail

    def test_monte_carlo_blip_is_not_a_violation(self):
        """A seed-specific random failure of a Monte Carlo runner is allowed.

        GraphSpec(nodes=4, sparse, adversarial, seed=493882) makes kkt-mst
        fail its checks for that algorithm seed, but independent reseeds
        succeed — the oracle must absorb it and count the blip.
        """
        spec = ExperimentSpec(
            graph=GraphSpec(
                nodes=4, density="sparse", weight_model="adversarial", seed=493882
            )
        )
        result = run("kkt-mst", spec.graph)
        assert not result.ok  # the blip is real for this seed
        oracle = DifferentialOracle()
        assert oracle.examine(spec, _context(spec, ["kkt-mst"])) == []
        assert oracle.stats["monte_carlo_blips"] == 1

    def test_flooding_skipped_under_active_faults(self):
        from repro.api import FaultSpec

        spec = ExperimentSpec(
            graph=GraphSpec(nodes=10, density="sparse", seed=1),
            faults=FaultSpec(name="lossy-uniform", params={"drop": 0.9}),
        )
        oracle = DifferentialOracle()
        assert oracle.examine(spec, _context(spec, ["flooding"])) == []

    def test_batched_legs_compared_for_repair_runners(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=12, density="sparse", seed=6))
        oracle = DifferentialOracle()
        assert oracle.examine(spec, _context(spec, ["kkt-repair"])) == []
        assert oracle.stats["batched_compared"] == 1

    def test_batched_check_skips_runners_without_the_hook(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=12, density="sparse", seed=6))
        oracle = DifferentialOracle()
        oracle.examine(spec, _context(spec, ["kkt-mst"]))
        assert oracle.stats["batched_compared"] == 0

    def test_batched_check_absorbs_shared_monte_carlo_casualty(self):
        """A spec where *both* legs fail the runner's own checks is a blip.

        Fuzz-found (campaign seed 0, case 140, minimized): kkt-repair blips
        on this 4-node adversarial spec for its default coins, identically
        in sequential and batched mode.  That is the algorithm's allowed
        n^-c failure, policed by the main loop's boosted-c reseeds — the
        batched leg must not re-report it as a batching divergence.
        """
        spec = ExperimentSpec(
            graph=GraphSpec(
                nodes=4, density="sparse", seed=12596, weight_model="adversarial"
            ),
            workload=WorkloadSpec(name="insert-heavy", updates=1, seed=531034),
        )
        oracle = DifferentialOracle()
        assert oracle.examine(spec, _context(spec, ["kkt-repair"])) == []
        assert oracle.stats["batched_compared"] == 1
        assert oracle.stats["monte_carlo_blips"] == 1  # main loop absorbed it


class TestFastpathOracle:
    def test_samples_deterministically(self):
        spec = CLEAN_SPECS[0]
        oracle = FastpathOracle(sample=2)
        algorithms = default_algorithms()
        assert oracle._sampled(spec, algorithms) == oracle._sampled(spec, algorithms)

    def test_clean_case_has_equal_counters(self):
        spec = CLEAN_SPECS[0]
        oracle = FastpathOracle(sample=len(default_algorithms()))
        assert oracle.examine(spec, _context(spec)) == []

    def test_rejects_zero_sample(self):
        with pytest.raises(AlgorithmError, match="sample"):
            FastpathOracle(sample=0)


class TestDeterminismOracle:
    def test_serial_reruns_match(self):
        spec = CLEAN_SPECS[1]
        oracle = DeterminismOracle()
        assert oracle.examine(spec, _context(spec, ["kkt-repair", "ghs"])) == []

    def test_parallel_engine_matches_serial(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=10, density="sparse", seed=9))
        oracle = DeterminismOracle()
        context = _context(spec, ["kkt-st", "flooding"], check_parallel=True)
        assert oracle.examine(spec, context) == []

    def test_a_one_algorithm_case_reaches_the_worker_processes(self, monkeypatch):
        import repro.api.engine as engine_module
        from repro.api import FaultSpec

        pools = []
        pool_class = engine_module.ProcessPoolExecutor

        def spy(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return pool_class(*args, **kwargs)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", spy)
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=10, density="sparse", seed=1),
            faults=FaultSpec(name="lossy-uniform"),
        )
        context = _context(spec, check_parallel=True)
        assert context.algorithms == ["flooding"]
        assert DeterminismOracle().examine(spec, context) == []
        assert pools == [2]


class TestProvenanceOracle:
    def test_clean_case_passes(self):
        from repro.api import FaultSpec

        spec = ExperimentSpec(
            graph=GraphSpec(nodes=12, density="sparse", seed=6),
            workload=WorkloadSpec(name="deletions-only", updates=3),
            faults=FaultSpec(name="link-storm"),
        )
        oracle = ProvenanceOracle()
        assert oracle.examine(spec, _context(spec, ["kkt-repair"])) == []

    def test_flags_doctored_result(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=10, density="sparse", seed=2))
        context = _context(spec, ["kkt-st"])
        result = context.result("kkt-st")
        result.n = 999  # corrupt the record in the shared cache
        oracle = ProvenanceOracle()
        violations = oracle.examine(spec, context)
        assert len(violations) == 1
        assert "n=999" in violations[0].detail


@pytest.fixture
def fragile_algorithm():
    """Register a runner whose checks fail under any active fault program.

    It declares no ``reads``, so every fault program reaches it, and no
    ``may_fail_under_faults``, so its failure is a plain bug.
    """
    from repro.api.result import RunResult

    @register("fragile", summary="falls over whenever anyone lies")
    class FragileRunner:
        invariant = "spanning"

        def run(self, spec, **options):
            experiment = ExperimentSpec.coerce(spec)
            graph = experiment.graph.build()
            faulted = experiment.faults is not None and not experiment.faults.is_none
            return RunResult(
                algorithm=self.name,
                spec=experiment.graph,
                n=graph.num_nodes,
                m=graph.num_edges,
                messages=0,
                bits=0,
                rounds=0,
                phases=0,
                wall_time_s=0.0,
                checks={"reached": not faulted},
            )

    yield "fragile"
    registry_module.ALGORITHM_REGISTRY.entries.pop("fragile", None)


class TestFaultedFailures:
    @pytest.mark.parametrize("program", ["lossy-uniform", "link-storm"])
    def test_failure_under_a_reaching_program_is_a_violation(
        self, fragile_algorithm, program
    ):
        from repro.api import FaultSpec

        spec = ExperimentSpec(
            graph=GraphSpec(nodes=12, density="sparse", seed=1),
            faults=FaultSpec(name=program),
        )
        oracle = DifferentialOracle()
        violations = oracle.examine(spec, _context(spec, [fragile_algorithm]))
        assert len(violations) == 1
        assert "runner checks failed" in violations[0].detail

    def test_case_drops_the_algorithms_a_program_cannot_reach(self):
        from repro.api import FaultSpec

        spec = ExperimentSpec(
            graph=GraphSpec(nodes=12, density="sparse", seed=3),
            faults=FaultSpec(name="lossy-uniform"),
        )
        context = _context(spec, ["kkt-mst", "flooding", "kkt-repair"])
        assert context.algorithms == ["flooding"]


class TestMakeOracles:
    def test_unknown_name_rejected(self):
        with pytest.raises(AlgorithmError, match="registered oracles"):
            make_oracles(["haruspex"])

    def test_default_stack_is_complete(self):
        names = sorted(oracle.name for oracle in make_oracles(None))
        assert names == ["determinism", "differential", "fastpath", "provenance"]
