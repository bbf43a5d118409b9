"""Tests for the fault axis: registry, ``FaultSpec``, programs, determinism.

The headline guarantees pinned here:

* ``ExperimentSpec`` round-trips through JSON with a non-trivial
  ``FaultSpec`` and old payloads without a ``faults`` field still parse;
* fault programs are deterministic: the same spec yields the same topology
  stream and the same planned event schedule;
* scheduler × fault determinism — the same ``ExperimentSpec`` (including
  its ``FaultSpec``) produces identical counters *and* an identical fault
  event log across repeated runs, both serially and through
  ``ExperimentEngine`` worker processes, for all four schedulers.
"""

import json

import pytest

from repro.api import (
    ExperimentEngine,
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    ScheduleSpec,
    WorkloadSpec,
    fault_summaries,
    get_fault,
    list_faults,
    register_fault,
    run,
    scenario_grid,
)
from repro.api.runners import _reference_forest
from repro.api.scenario import stream_fingerprint
from repro.dynamic import UpdateKind
from repro.network.errors import AlgorithmError
from repro.network.faults import FaultEvent
from repro.network.scheduler import list_schedulers

BUILTIN_FAULTS = [
    "crash-leaves",
    "link-storm",
    "lossy-uniform",
    "none",
    "partition-heal",
]


def _graph_and_forest(nodes=24, density="sparse", seed=3):
    graph = GraphSpec(nodes=nodes, density=density, seed=seed).build()
    return graph, _reference_forest(graph)


class TestRegistry:
    def test_builtins_registered(self):
        assert list_faults() == BUILTIN_FAULTS

    def test_summaries_cover_every_program(self):
        summaries = fault_summaries()
        assert sorted(summaries) == BUILTIN_FAULTS
        assert all(summaries.values())

    def test_unknown_name_lists_known_programs(self):
        with pytest.raises(AlgorithmError, match="registered fault programs"):
            get_fault("meteor-strike")

    def test_cli_flattens_comma_separated_names(self):
        from repro.cli import _fault_names

        assert _fault_names(["lossy-uniform,link-storm", "none"]) == [
            "lossy-uniform",
            "link-storm",
            "none",
        ]
        with pytest.raises(
            AlgorithmError,
            match="unknown fault program 'meteor-strike'; registered fault programs: ",
        ):
            _fault_names(["none,meteor-strike"])

    @pytest.mark.parametrize("name", BUILTIN_FAULTS)
    def test_duplicate_registration_is_rejected(self, name):
        with pytest.raises(
            AlgorithmError, match=f"fault program '{name}' is already registered"
        ):

            @register_fault(name)
            def impostor(graph, forest, seed=None):  # pragma: no cover
                return None

        assert sorted(list_faults()) == BUILTIN_FAULTS

    def test_fault_event_rows_round_trip_through_json(self):
        event = FaultEvent(time=3, kind="duplicate", u=1, v=2)
        row = event.to_list()
        assert row == [3, "duplicate", 1, 2]
        assert json.loads(json.dumps(row)) == row
        assert FaultEvent(*json.loads(json.dumps(row))) == event



class TestFaultSpec:
    def test_defaults_to_none_program(self):
        spec = FaultSpec()
        assert spec.name == "none"
        assert spec.is_none

    def test_unknown_name_fails_fast(self):
        with pytest.raises(AlgorithmError):
            FaultSpec(name="meteor-strike")

    def test_json_round_trip(self):
        spec = FaultSpec(name="lossy-uniform", seed=9, params={"drop": 0.2})
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(AlgorithmError):
            FaultSpec.from_dict({"name": "none", "severity": 11})

    def test_hashable_with_dict_params(self):
        a = FaultSpec(name="lossy-uniform", params={"drop": 0.1})
        b = FaultSpec(name="lossy-uniform", params={"drop": 0.1})
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    def test_seed_resolution(self):
        spec = FaultSpec(name="link-storm")
        assert spec.resolve_seed(17).seed == 17
        assert FaultSpec(name="link-storm", seed=2).resolve_seed(17).seed == 2


class TestExperimentSpecFourthAxis:
    def test_round_trip_with_nontrivial_faults(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=32, density="sparse", seed=7),
            workload=WorkloadSpec(name="churn", updates=6),
            schedule=ScheduleSpec(scheduler="random", seed=1),
            faults=FaultSpec(name="partition-heal", seed=4, params={"fraction": 0.3}),
        )
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert hash(again) == hash(spec)
        assert json.loads(spec.to_json())["faults"]["name"] == "partition-heal"

    def test_old_payload_without_faults_field_parses(self):
        payload = {"graph": {"nodes": 16}, "workload": None, "schedule": None}
        spec = ExperimentSpec.from_dict(payload)
        assert spec.faults is None
        assert spec.resolved_faults() is None

    def test_resolved_faults_inherits_graph_seed(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, seed=11), faults=FaultSpec(name="link-storm")
        )
        assert spec.resolved_faults().seed == 11


class TestPrograms:
    def test_none_program_is_empty(self):
        graph, forest = _graph_and_forest()
        program = FaultSpec(name="none").build(graph, forest)
        assert len(program.stream) == 0
        assert program.injector is None
        assert program.event_log() == []

    def test_crash_leaves_isolates_crashed_nodes(self):
        graph, forest = _graph_and_forest()
        program = FaultSpec(name="crash-leaves", seed=5).build(graph, forest)
        crashed = [event[2] for event in program.planned if event[1] == "crash"]
        assert crashed
        assert program.injector is not None
        assert program.injector.crashed_nodes == sorted(crashed)
        # The topology view deletes every incident edge of a crashed leaf.
        touched = {
            node
            for update in program.stream
            for node in (update.u, update.v)
        }
        assert set(crashed) <= touched
        assert all(update.kind is UpdateKind.DELETE for update in program.stream)

    def test_partition_heal_stream_restores_topology(self):
        graph, forest = _graph_and_forest()
        before = sorted((e.u, e.v, e.weight) for e in graph.edges())
        program = FaultSpec(name="partition-heal", seed=2).build(graph, forest)
        assert len(program.stream) > 0
        program.stream.validate_against(graph)  # applicable in order
        shadow = graph.copy()
        for update in program.stream:
            if update.kind is UpdateKind.DELETE:
                shadow.remove_edge(update.u, update.v)
            else:
                shadow.add_edge(update.u, update.v, update.weight)
        assert sorted((e.u, e.v, e.weight) for e in shadow.edges()) == before

    def test_link_storm_count_param(self):
        graph, forest = _graph_and_forest()
        program = FaultSpec(name="link-storm", seed=1, params={"count": 5}).build(
            graph, forest
        )
        assert len(program.stream) == 5
        assert all(update.kind is UpdateKind.DELETE for update in program.stream)
        u, v = program.stream[0].u, program.stream[0].v
        assert program.injector.link_is_down(u, v, 10 ** 6)  # fail-stop

    def test_param_validation(self):
        graph, forest = _graph_and_forest(nodes=8)
        with pytest.raises(AlgorithmError):
            FaultSpec(name="crash-leaves", params={"fraction": 0.0}).build(graph, forest)
        with pytest.raises(AlgorithmError):
            FaultSpec(name="partition-heal", params={"fraction": 1.0}).build(
                graph, forest
            )
        with pytest.raises(AlgorithmError):
            FaultSpec(name="link-storm", params={"count": 0}).build(graph, forest)

    @pytest.mark.parametrize("name", ["crash-leaves", "partition-heal", "link-storm"])
    def test_programs_are_seed_deterministic(self, name):
        graph, forest = _graph_and_forest()
        first = FaultSpec(name=name, seed=6).build(graph, forest)
        graph2, forest2 = _graph_and_forest()
        second = FaultSpec(name=name, seed=6).build(graph2, forest2)
        assert stream_fingerprint(first.stream) == stream_fingerprint(second.stream)
        assert first.planned == second.planned
        different = FaultSpec(name=name, seed=7).build(graph, forest)
        # Different seeds should (generically) pick different victims.
        assert (
            stream_fingerprint(different.stream) != stream_fingerprint(first.stream)
            or different.planned != first.planned
            or name == "partition-heal"  # a coarse block split may collide
        )


def _strip_wall(result):
    payload = result.to_dict()
    payload.pop("wall_time_s")
    return payload


class TestSchedulerFaultDeterminism:
    """Same spec (incl. FaultSpec) => identical counters and fault log.

    A schedule reaches only flooding, the runner that reads deliveries.
    """

    @pytest.mark.parametrize("scheduler", sorted(list_schedulers()))
    def test_repeated_serial_runs_identical(self, scheduler):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=20, density="sparse", seed=4),
            workload=WorkloadSpec(name="churn", updates=4),
            schedule=ScheduleSpec(scheduler=scheduler),
            faults=FaultSpec(name="link-storm", params={"count": 3}),
        )
        first = run("flooding", spec)
        second = run("flooding", spec)
        assert _strip_wall(first) == _strip_wall(second)
        assert first.extra["fault_events"] == second.extra["fault_events"]
        assert first.extra["fault_events"]  # the log is non-trivial

    @pytest.mark.parametrize("scheduler", sorted(list_schedulers()))
    def test_parallel_engine_matches_serial(self, scheduler):
        jobs = scenario_grid(
            ["kkt-repair", "recompute-repair", "flooding"],
            [GraphSpec(nodes=16, density="sparse", seed=2), GraphSpec(nodes=20, seed=3)],
            workloads=[WorkloadSpec(name="churn", updates=3)],
            schedules=[ScheduleSpec(scheduler=scheduler)],
            faults=[FaultSpec(name="crash-leaves")],
        )
        assert [job.algorithm for job in jobs] == ["flooding", "flooding"]
        serial = ExperimentEngine(jobs=1).run(jobs)
        parallel = ExperimentEngine(jobs=2).run(jobs)
        assert [_strip_wall(r) for r in serial] == [_strip_wall(r) for r in parallel]
        assert all(r.faults is not None and r.faults.name == "crash-leaves" for r in serial)
        assert all("fault_events" in r.extra for r in serial)


class TestGridAndSuite:
    def test_scenario_grid_gains_the_fault_dimension(self):
        jobs = scenario_grid(
            ["kkt-repair"],
            [GraphSpec(nodes=16, seed=1)],
            workloads=["churn"],
            schedules=[None],
            faults=[None, "link-storm"],
            updates=3,
        )
        assert len(jobs) == 2
        assert jobs[0].spec.faults is None
        assert jobs[1].spec.faults == FaultSpec(name="link-storm")

    def test_run_result_records_fault_provenance(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, density="sparse", seed=2),
            faults=FaultSpec(name="link-storm", params={"count": 2}),
        )
        result = run("kkt-repair", spec, updates=3)
        assert result.faults is not None and result.faults.name == "link-storm"
        assert result.faults.seed == 2  # resolved against the graph seed
        payload = json.loads(result.to_json())
        assert payload["faults"]["name"] == "link-storm"
        assert payload["extra"]["fault_updates_applied"] == 2
        again = type(result).from_json(result.to_json())
        assert again.to_dict() == result.to_dict()

    def test_both_repair_runners_consume_the_same_fault_stream(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=20, density="sparse", seed=6),
            faults=FaultSpec(name="link-storm"),
        )
        kkt = run("kkt-repair", spec, updates=4)
        baseline = run("recompute-repair", spec, updates=4)
        assert kkt.extra["fault_events"] == baseline.extra["fault_events"]
        assert kkt.extra["stream_fingerprint"] == baseline.extra["stream_fingerprint"]

    def test_named_none_is_provenance_only(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, density="sparse", seed=2),
            faults=FaultSpec(name="none"),
        )
        result = run("kkt-repair", spec, updates=3)
        assert result.faults is not None and result.faults.is_none
        assert "fault_events" not in result.extra

    def test_flooding_under_lossy_links_records_dynamic_events(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=24, density="dense", seed=3),
            faults=FaultSpec(name="lossy-uniform", params={"drop": 0.3}),
        )
        result = run("flooding", spec)
        dropped = [event for event in result.extra["fault_events"] if event[1] == "drop"]
        assert dropped  # at 30% loss on a dense graph, something was dropped
        repeat = run("flooding", spec)
        assert repeat.extra["fault_events"] == result.extra["fault_events"]
