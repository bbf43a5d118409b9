"""Tests for the declarative scenario layer (workloads, schedules, experiments)."""

import json

import pytest

from repro.api import (
    ExperimentSpec,
    GraphSpec,
    ScheduleSpec,
    WorkloadSpec,
    get_workload,
    list_workloads,
    register_workload,
    run,
    stream_fingerprint,
    workload_summaries,
)
from repro.core.build_mst import BuildMST
from repro.core.config import AlgorithmConfig
from repro.dynamic import UpdateStream, UpdateTrace
from repro.network.errors import AlgorithmError

EXPECTED_WORKLOADS = [
    "bridge-heavy",
    "churn",
    "deletions-only",
    "insert-heavy",
    "trace-replay",
    "weight-ramp",
]


class TestWorkloadRegistry:
    def test_six_builtin_workloads(self):
        assert list_workloads() == EXPECTED_WORKLOADS

    def test_summaries_cover_all(self):
        summaries = workload_summaries()
        assert sorted(summaries) == EXPECTED_WORKLOADS
        assert all(summaries.values())

    def test_unknown_workload_lists_known_names(self):
        with pytest.raises(AlgorithmError, match="churn"):
            get_workload("tsunami")

    def test_register_rejects_bad_names(self):
        with pytest.raises(AlgorithmError):
            register_workload("Not Lower")(lambda graph, forest, count, seed=None: None)

    def test_register_rejects_duplicates(self):
        with pytest.raises(AlgorithmError):
            register_workload("churn")(lambda graph, forest, count, seed=None: None)

    @pytest.mark.parametrize(
        "name", [w for w in EXPECTED_WORKLOADS if w != "trace-replay"]
    )
    def test_generated_streams_are_applicable_and_seeded(self, name, graph_with_mst):
        graph, forest = graph_with_mst(seed=11)
        spec = WorkloadSpec(name=name, updates=6, seed=11)
        stream = spec.build(graph, forest)
        assert len(stream) >= 1
        stream.validate_against(graph)
        again = spec.build(graph, forest)
        assert stream_fingerprint(again) == stream_fingerprint(stream)


class TestWorkloadSpec:
    def test_validates_name_and_updates(self):
        with pytest.raises(AlgorithmError):
            WorkloadSpec(name="bogus")
        with pytest.raises(AlgorithmError):
            WorkloadSpec(name="churn", updates=0)

    def test_round_trip(self):
        spec = WorkloadSpec(name="weight-ramp", updates=7, seed=3, params={"max_delta": 4})
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(AlgorithmError):
            WorkloadSpec.from_dict({"name": "churn", "surprise": 1})

    def test_resolve_seed_prefers_own_seed(self):
        assert WorkloadSpec(name="churn", seed=5).resolve_seed(9).seed == 5
        assert WorkloadSpec(name="churn").resolve_seed(9).seed == 9

    def test_trace_state_only_for_trace_replay(self):
        assert WorkloadSpec(name="churn").trace_state() is None


class TestScheduleSpec:
    @pytest.mark.parametrize("name", ["fifo", "lifo", "random", "edge-delay"])
    def test_builds_every_scheduler(self, name):
        scheduler = ScheduleSpec(scheduler=name).build()
        assert scheduler.empty()

    def test_validates_name(self):
        with pytest.raises(AlgorithmError, match="fifo"):
            ScheduleSpec(scheduler="carrier-pigeon")

    def test_seed_only_for_random(self):
        with pytest.raises(AlgorithmError):
            ScheduleSpec(scheduler="fifo", seed=1)
        assert ScheduleSpec(scheduler="random", seed=1).build() is not None

    def test_resolve_seed_random_only(self):
        assert ScheduleSpec(scheduler="random").resolve_seed(4).seed == 4
        assert ScheduleSpec(scheduler="lifo").resolve_seed(4).seed is None

    def test_round_trip_with_edge_delays(self):
        spec = ScheduleSpec(
            scheduler="edge-delay", params={"default_delay": 2, "delays": {"1-2": 5}}
        )
        again = ScheduleSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.build() is not None

    def test_the_wave_size_is_not_a_schedule_field(self):
        # The repair wave size is the repair runners' ``repair_batch`` option.
        with pytest.raises(AlgorithmError, match=r"unknown ScheduleSpec fields: \['batch_size'\]"):
            ScheduleSpec.from_dict({"scheduler": "fifo", "batch_size": 3})


class TestExperimentSpec:
    def test_coerce_accepts_graph_spec(self):
        graph = GraphSpec(nodes=8, density="sparse", seed=1)
        experiment = ExperimentSpec.coerce(graph)
        assert experiment.graph == graph
        assert experiment.workload is None
        assert ExperimentSpec.coerce(experiment) is experiment
        with pytest.raises(AlgorithmError):
            ExperimentSpec.coerce("kkt-mst")

    def test_json_round_trip(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, density="sparse", seed=2),
            workload=WorkloadSpec(name="insert-heavy", updates=5),
            schedule=ScheduleSpec(scheduler="random", seed=9),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_with_seed_fills_graph_seed(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=8, density="sparse"))
        assert spec.with_seed(42).graph.seed == 42

    def test_resolved_workload_defaults_to_churn_with_graph_seed(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=8, density="sparse", seed=17))
        workload = spec.resolved_workload(default_updates=4)
        assert workload.name == "churn"
        assert workload.updates == 4
        assert workload.seed == 17


class TestChurnReproducesPR1:
    """The registered ``churn`` workload is the runners' implicit stream.

    Its counters are pinned in the claims ledger (``churn-baseline`` in
    ``repro.claims``).
    """

    def test_explicit_churn_workload_matches_implicit_default(self):
        graph = GraphSpec(nodes=24, density="sparse", seed=5)
        implicit = run("kkt-repair", graph, updates=6)
        explicit = run(
            "kkt-repair",
            ExperimentSpec(graph=graph, workload=WorkloadSpec(name="churn", updates=6)),
        )
        assert explicit.counters() == implicit.counters()
        assert explicit.extra["stream_fingerprint"] == implicit.extra["stream_fingerprint"]


class TestRepairRunnersShareOneStream:
    def test_stream_fingerprints_identical_for_equal_seeds(self):
        spec = GraphSpec(nodes=24, density="sparse", seed=8)
        kkt = run("kkt-repair", spec, updates=8)
        recompute = run("recompute-repair", spec, updates=8)
        assert kkt.extra["stream_fingerprint"] == recompute.extra["stream_fingerprint"]
        assert kkt.workload == recompute.workload

    def test_stream_equality_at_the_workload_level(self, graph_with_mst):
        graph, forest = graph_with_mst(seed=21)
        first = get_workload("churn")(graph, forest, count=10, seed=21)
        second = get_workload("churn")(graph, forest, count=10, seed=21)
        assert list(first) == list(second)
        assert stream_fingerprint(first) == stream_fingerprint(second)

    @pytest.mark.parametrize(
        "name", [w for w in EXPECTED_WORKLOADS if w != "trace-replay"]
    )
    def test_both_runners_consume_every_workload_identically(self, name):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, density="sparse", seed=13),
            workload=WorkloadSpec(name=name, updates=4),
        )
        kkt = run("kkt-repair", spec)
        recompute = run("recompute-repair", spec)
        assert kkt.extra["stream_fingerprint"] == recompute.extra["stream_fingerprint"]
        assert kkt.ok and recompute.ok


class TestSchedules:
    def test_flooding_runs_on_the_scheduled_async_engine(self):
        graph = GraphSpec(nodes=16, density="sparse", seed=6)
        scheduled = run(
            "flooding",
            ExperimentSpec(graph=graph, schedule=ScheduleSpec(scheduler="lifo")),
        )
        assert scheduled.extra["engine"] == "async"
        assert scheduled.ok


class TestTraceReplayWorkload:
    def _record(self, tmp_path, graph_with_mst, n=16, seed=5, updates=4):
        graph, forest = graph_with_mst(n=n, m=3 * n, seed=seed)
        stream = get_workload("churn")(graph, forest, count=updates, seed=seed)
        trace = UpdateTrace.record(graph, forest, stream, mode="mst", seed=seed)
        path = tmp_path / "workload.trace.json"
        trace.save(path)
        return path, stream

    def test_needs_a_path(self, graph_with_mst):
        graph, forest = graph_with_mst(seed=5)
        with pytest.raises(AlgorithmError, match="path"):
            WorkloadSpec(name="trace-replay", updates=4).build(graph, forest)

    def test_missing_file_is_an_algorithm_error(self, tmp_path, graph_with_mst):
        graph, forest = graph_with_mst(seed=5)
        spec = WorkloadSpec(
            name="trace-replay", updates=4, params={"path": str(tmp_path / "nope.json")}
        )
        with pytest.raises(AlgorithmError, match="not found"):
            spec.build(graph, forest)

    @pytest.mark.parametrize("content", ["not json", '{"mode": "mst"}', "[1, 2]"])
    def test_malformed_file_is_an_algorithm_error(self, tmp_path, content, graph_with_mst):
        path = tmp_path / "bad.trace.json"
        path.write_text(content)
        graph, forest = graph_with_mst(seed=5)
        spec = WorkloadSpec(name="trace-replay", params={"path": str(path)})
        with pytest.raises(AlgorithmError, match="trace"):
            spec.build(graph, forest)

    def test_replays_recorded_stream(self, tmp_path, graph_with_mst):
        path, stream = self._record(tmp_path, graph_with_mst)
        spec = WorkloadSpec(name="trace-replay", updates=99, params={"path": str(path)})
        graph, forest, trace = spec.trace_state()
        replayed = spec.build(graph, forest)
        assert stream_fingerprint(replayed) == stream_fingerprint(stream)
        assert len(trace) == len(stream)

    def test_count_limits_the_replay(self, tmp_path, graph_with_mst):
        path, stream = self._record(tmp_path, graph_with_mst, updates=6)
        spec = WorkloadSpec(name="trace-replay", updates=2, params={"path": str(path)})
        graph, forest, _ = spec.trace_state()
        assert len(spec.build(graph, forest)) == 2

    def test_repair_runner_uses_the_trace_graph(self, tmp_path, graph_with_mst):
        path, _ = self._record(tmp_path, graph_with_mst, n=16)
        spec = ExperimentSpec(
            # Deliberately name a different graph: the trace must win.
            graph=GraphSpec(nodes=64, density="dense", seed=1),
            workload=WorkloadSpec(name="trace-replay", updates=99, params={"path": str(path)}),
        )
        result = run("kkt-repair", spec)
        assert result.n == 16
        assert result.ok

    def test_unset_updates_replays_the_full_trace(self, tmp_path, graph_with_mst):
        # A trace longer than the runner's default length must not be
        # silently truncated when no explicit count was requested.
        path, stream = self._record(tmp_path, graph_with_mst, updates=14)
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, density="sparse", seed=5),
            workload=WorkloadSpec(name="trace-replay", params={"path": str(path)}),
        )
        result = run("kkt-repair", spec)
        assert result.extra["updates"] == len(stream) == 14

    def test_replay_honours_trace_mode_and_seed(self, tmp_path):
        from repro.core.build_st import BuildST
        from repro.dynamic import TreeMaintainer
        from repro.generators import random_connected_graph

        graph = random_connected_graph(16, 48, seed=5)
        report = BuildST(graph, config=AlgorithmConfig(n=16, seed=5)).run()
        stream = get_workload("churn")(graph, report.forest, count=6, seed=5)
        trace = UpdateTrace.record(graph, report.forest, stream, mode="st", seed=5)
        maintainer = TreeMaintainer(graph, report.forest, mode="st", seed=5)
        trace.costs = [o.messages for o in maintainer.apply_stream(stream)]
        path = tmp_path / "st.trace.json"
        trace.save(path)

        spec = ExperimentSpec(
            # The graph spec deliberately disagrees with the trace on
            # everything: mode, seed and graph must all come from the trace.
            graph=GraphSpec(nodes=64, density="dense", seed=1),
            workload=WorkloadSpec(name="trace-replay", params={"path": str(path)}),
        )
        result = run("kkt-repair", spec)
        assert result.ok
        assert result.extra["mode"] == "st"
        assert result.messages == sum(trace.costs)  # bit-for-bit replay


class TestSpecsAreHashable:
    def test_specs_work_as_set_and_dict_keys(self):
        specs = {
            WorkloadSpec(name="churn", updates=4),
            WorkloadSpec(name="churn", updates=4),
            WorkloadSpec(name="weight-ramp", updates=4, params={"max_delta": 2}),
        }
        assert len(specs) == 2
        schedule = ScheduleSpec(scheduler="edge-delay", params={"delays": {"1-2": 3}})
        assert hash(schedule) == hash(ScheduleSpec.from_dict(schedule.to_dict()))
        experiment = ExperimentSpec(
            graph=GraphSpec(nodes=8, density="sparse", seed=1),
            workload=WorkloadSpec(name="churn"),
            schedule=schedule,
        )
        assert {experiment: "x"}[ExperimentSpec.from_json(experiment.to_json())] == "x"


class TestPR1StyleRunnersSurviveScenarioGrids:
    def test_bare_scenario_is_unwrapped_for_graph_only_runners(self):
        from repro.api import ExperimentEngine, register, scenario_grid
        from repro.api.registry import ALGORITHM_REGISTRY

        @register("pr1-style-test", summary="graph-only runner from the PR-1 docs")
        class PR1StyleRunner:
            """A user runner that only knows GraphSpec (calls spec.build())."""

            def run(self, spec, **options):
                graph = spec.build()  # would crash on an ExperimentSpec
                return run("flooding", spec)

        try:
            jobs = scenario_grid(
                ["pr1-style-test"], [GraphSpec(nodes=8, density="sparse", seed=2)]
            )
            results = ExperimentEngine().run(jobs)
            assert results[0].ok
        finally:
            ALGORITHM_REGISTRY.entries.pop("pr1-style-test", None)


class TestConstructionPreChurn:
    def test_workload_mutates_the_input_graph(self):
        graph = GraphSpec(nodes=16, density="sparse", seed=9)
        plain = run("kkt-mst", graph)
        churned = run(
            "kkt-mst",
            ExperimentSpec(
                graph=graph, workload=WorkloadSpec(name="deletions-only", updates=5)
            ),
        )
        assert churned.m == plain.m - 5
        assert churned.ok
        assert churned.workload is not None
        assert churned.extra["workload_updates_applied"] == 5
