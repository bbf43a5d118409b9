"""Tests for the parallel experiment engine and its determinism guarantees."""

import pytest

from repro.api import (
    ExperimentEngine,
    ExperimentJob,
    ExperimentSpec,
    GraphSpec,
    ScheduleSpec,
    WorkloadSpec,
    derive_seed,
    scenario_grid,
)
from repro.api.engine import spec_from_dict
from repro.network.errors import AlgorithmError


def counters(results):
    return [(r.algorithm, r.spec, r.counters(), r.checks) for r in results]


def graphs(sizes, seed=None):
    return [GraphSpec(nodes=size, density="sparse", seed=seed) for size in sizes]


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(2015, 0) == derive_seed(2015, 0)

    def test_spreads_over_index_and_base(self):
        seeds = {derive_seed(2015, i) for i in range(64)}
        assert len(seeds) == 64
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestJobConstruction:
    def test_seeded_fills_missing_seeds_deterministically(self):
        engine = ExperimentEngine(base_seed=7)
        jobs = [
            ExperimentJob("flooding", GraphSpec(nodes=8, density="sparse")),
            ExperimentJob("flooding", GraphSpec(nodes=8, density="sparse", seed=99)),
            ExperimentJob("flooding", GraphSpec(nodes=12, density="sparse")),
        ]
        seeded = engine.seeded(jobs)
        assert seeded[0].spec.seed == derive_seed(7, 0)
        assert seeded[1].spec.seed == 99
        assert seeded[2].spec.seed == derive_seed(7, 1)
        again = engine.seeded(jobs)
        assert [job.spec for job in again] == [job.spec for job in seeded]

    def test_seeded_fails_fast_on_unknown_algorithm(self):
        engine = ExperimentEngine()
        with pytest.raises(AlgorithmError):
            engine.seeded([ExperimentJob("bogus", GraphSpec(nodes=8))])

    def test_size_grid_order(self):
        jobs = scenario_grid(["kkt-st", "flooding"], graphs([16, 24], seed=1))
        assert [(job.algorithm, job.spec.graph.nodes) for job in jobs] == [
            ("kkt-st", 16), ("flooding", 16), ("kkt-st", 24), ("flooding", 24),
        ]
        assert all(job.options == {} for job in jobs)

    def test_spec_from_dict_parses_both_spec_kinds(self):
        graph = GraphSpec(nodes=8, density="sparse", seed=1)
        scenario = ExperimentSpec(graph=graph, workload=WorkloadSpec(name="churn", updates=2))
        assert spec_from_dict(graph.to_dict()) == graph
        assert spec_from_dict(scenario.to_dict()) == scenario

    def test_engine_validates_worker_count(self):
        with pytest.raises(AlgorithmError):
            ExperimentEngine(jobs=0)


class TestExecution:
    def test_serial_results_in_job_order(self):
        engine = ExperimentEngine(jobs=1, base_seed=3)
        results = engine.run(scenario_grid(["flooding", "kkt-st"], graphs([12, 16], seed=3)))
        assert [(r.algorithm, r.n) for r in results] == [
            ("flooding", 12), ("kkt-st", 12), ("flooding", 16), ("kkt-st", 16),
        ]
        assert all(r.ok for r in results)

    def test_parallel_matches_serial(self):
        jobs = scenario_grid(["kkt-st", "flooding"], graphs([12, 16], seed=2))
        serial = ExperimentEngine(jobs=1, base_seed=5).run(jobs)
        parallel = ExperimentEngine(jobs=4, base_seed=5).run(jobs)
        assert counters(parallel) == counters(serial)

    def test_parallel_derived_seeds_match_serial(self):
        # No explicit seed: the engine must derive identical per-job seeds,
        # and jobs sharing a spec must share a graph.
        jobs = [
            ExperimentJob("flooding", GraphSpec(nodes=10 + 2 * (i // 2), density="sparse"))
            for i in range(4)
        ]
        serial = ExperimentEngine(jobs=1, base_seed=11).run(jobs)
        parallel = ExperimentEngine(jobs=2, base_seed=11).run(jobs)
        assert counters(parallel) == counters(serial)
        expected = [derive_seed(11, 0), derive_seed(11, 0), derive_seed(11, 1), derive_seed(11, 1)]
        assert [r.spec.seed for r in serial] == expected

    def test_unseeded_head_to_head_shares_one_graph(self):
        # A head-to-head without an explicit seed must still compare on the
        # SAME graph: all jobs share the unseeded spec, hence the seed.
        results = ExperimentEngine(base_seed=9).run(
            scenario_grid(["kkt-mst", "ghs"], graphs([16]))
        )
        assert results[0].spec == results[1].spec
        assert results[0].spec.seed == derive_seed(9, 0)
        assert results[0].m == results[1].m

    def test_head_to_head_runs_same_spec(self):
        spec = GraphSpec(nodes=16, density="sparse", seed=4)
        results = ExperimentEngine().run(scenario_grid(["kkt-mst", "ghs"], [spec]))
        assert [r.algorithm for r in results] == ["kkt-mst", "ghs"]
        assert all(r.spec == spec for r in results)
        assert all(r.ok for r in results)

    def test_options_forwarded(self):
        results = ExperimentEngine().run(
            [ExperimentJob("kkt-repair", GraphSpec(nodes=16, density="sparse", seed=6),
                           {"updates": 4})]
        )
        assert results[0].extra["updates"] == 4


def suite_counters(results):
    return [
        (r.algorithm, r.spec, r.workload, r.schedule, r.counters(), r.checks)
        for r in results
    ]


class TestScenarioGrid:
    def test_full_product_in_order(self):
        jobs = scenario_grid(
            ["kkt-repair", "flooding"],
            [GraphSpec(nodes=12, density="sparse", seed=1)],
            workloads=["churn", "insert-heavy"],
            schedules=[None, "random"],
            updates=4,
        )
        # kkt-repair does not read deliveries, so its scheduled cells are skipped.
        assert [job.algorithm for job in jobs] == ["kkt-repair", "flooding", "flooding"] * 2
        assert jobs[0].spec.workload.name == "churn"
        assert jobs[0].spec.schedule is None
        assert jobs[1].spec.schedule is None
        assert jobs[2].spec.schedule.scheduler == "random"
        assert jobs[3].spec.workload.name == "insert-heavy"
        assert all(job.spec.workload.updates == 4 for job in jobs)

    def test_accepts_spec_objects(self):
        jobs = scenario_grid(
            ["flooding"],
            [GraphSpec(nodes=12, density="sparse")],
            workloads=[WorkloadSpec(name="weight-ramp", updates=3, params={"max_delta": 2})],
            schedules=[ScheduleSpec(scheduler="lifo")],
        )
        assert jobs[0].spec.workload.params == {"max_delta": 2}
        assert jobs[0].spec.schedule.scheduler == "lifo"


class TestScenarioSuite:
    GRID = dict(
        workloads=["churn", "deletions-only"],
        schedules=[None, "random"],
        updates=4,
    )

    def _jobs(self):
        return scenario_grid(
            ["kkt-repair", "flooding"],
            [GraphSpec(nodes=12, density="sparse")],
            **self.GRID,
        )

    def test_suite_results_carry_provenance(self):
        results = ExperimentEngine(base_seed=3).run(self._jobs())
        assert len(results) == 6
        assert all(r.ok for r in results)
        assert all(r.workload is not None for r in results)
        scheduled = [r for r in results if r.schedule is not None]
        assert {r.schedule.scheduler for r in scheduled} == {"random"}
        assert {r.algorithm for r in scheduled} == {"flooding"}

    def test_parallel_suite_matches_serial(self):
        serial = ExperimentEngine(jobs=1, base_seed=3).run(self._jobs())
        parallel = ExperimentEngine(jobs=4, base_seed=3).run(self._jobs())
        assert suite_counters(parallel) == suite_counters(serial)

    def test_runs_a_scenario_job(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=12, density="sparse", seed=2),
            workload=WorkloadSpec(name="churn", updates=4),
        )
        results = ExperimentEngine().run([ExperimentJob("kkt-repair", spec)])
        assert results[0].algorithm == "kkt-repair"
        assert results[0].workload.name == "churn"

    def test_seeded_shares_graph_seed_across_scenarios(self):
        # The same unseeded graph spec under different workloads must get the
        # SAME derived seed, so scenarios stay comparable on one graph.
        jobs = self._jobs()
        seeded = ExperimentEngine(base_seed=3).seeded(jobs)
        seeds = {job.spec.graph.seed for job in seeded}
        assert seeds == {derive_seed(3, 0)}
