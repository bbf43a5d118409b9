"""Property: results and experiment specs survive JSON round-trips exactly.

The acceptance bar for the scenario API is that *every* registered
algorithm × workload combination yields a :class:`RunResult` whose
``to_json``/``from_json`` is the identity (same for the
:class:`ExperimentSpec` that produced it) — that is what makes ``repro
suite --json`` output a faithful, replayable record of a sweep.
"""

import pytest

from repro.api import (
    ExperimentSpec,
    GraphSpec,
    RunResult,
    ScheduleSpec,
    WorkloadSpec,
    algorithm_traits,
    get_workload,
    list_algorithms,
    list_workloads,
    run,
)
from repro.core.build_mst import BuildMST
from repro.core.config import AlgorithmConfig
from repro.dynamic import UpdateTrace
from repro.generators import random_connected_graph

ALGORITHMS = list_algorithms()
WORKLOADS = list_workloads()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A small recorded trace so trace-replay participates in the grid."""
    graph = random_connected_graph(12, 30, seed=3)
    report = BuildMST(graph, config=AlgorithmConfig(n=12, seed=3)).run()
    stream = get_workload("churn")(graph, report.forest, count=4, seed=3)
    trace = UpdateTrace.record(graph, report.forest, stream, mode="mst", seed=3)
    path = tmp_path_factory.mktemp("traces") / "grid.trace.json"
    trace.save(path)
    return str(path)


def _workload_spec(name, trace_path):
    params = {"path": trace_path} if name == "trace-replay" else {}
    return WorkloadSpec(name=name, updates=4, params=params)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_algorithm_workload_combination_round_trips(
    algorithm, workload, trace_path
):
    # A schedule acts on deliveries, so only a runner that reads them takes one.
    reads_deliveries = "deliveries" in algorithm_traits(algorithm)["reads"]
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=12, density="sparse", seed=7),
        workload=_workload_spec(workload, trace_path),
        schedule=ScheduleSpec(scheduler="random") if reads_deliveries else None,
    )
    assert ExperimentSpec.from_json(spec.to_json()) == spec

    result = run(algorithm, spec)
    assert result.ok, result.checks
    restored = RunResult.from_json(result.to_json())
    assert restored.to_dict() == result.to_dict()
    assert restored.workload == result.workload
    assert restored.schedule == result.schedule
    assert restored.spec == spec.graph


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_bare_graph_spec_results_still_round_trip(algorithm):
    result = run(algorithm, GraphSpec(nodes=12, density="sparse", seed=7))
    restored = RunResult.from_json(result.to_json())
    assert restored.to_dict() == result.to_dict()
    assert restored.schedule is None
    if algorithm in ("kkt-repair", "recompute-repair"):
        # Repair always runs a workload; the implicit default is recorded.
        assert restored.workload == result.workload
        assert restored.workload.name == "churn"
    else:
        assert restored.workload is None


def test_pr1_result_payloads_still_load():
    """Payloads without workload/schedule fields (PR-1 records) stay loadable."""
    result = run("kkt-st", GraphSpec(nodes=12, density="sparse", seed=7))
    payload = result.to_dict()
    payload.pop("workload")
    payload.pop("schedule")
    restored = RunResult.from_dict(payload)
    assert restored.counters() == result.counters()
    assert restored.workload is None and restored.schedule is None


class TestArbitrarySpecsRoundTrip:
    """Property: *any* valid ExperimentSpec survives serialisation exactly.

    The fuzzing spec generator samples the whole graph x workload x schedule
    x fault space, so these are the adversarial inputs for the round-trip,
    hash and equality contracts — not just the hand-picked grid above.
    """

    def _specs(self, count=60, seed=20150721):
        from repro.fuzz import SpecGenerator

        return list(SpecGenerator(seed=seed).stream(count))

    def test_dict_and_json_round_trips_are_the_identity(self):
        for spec in self._specs():
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec
            assert ExperimentSpec.from_json(spec.to_json()) == spec
            # to_dict must itself be JSON-stable (no exotic value types).
            import json

            assert json.loads(spec.to_json()) == spec.to_dict()

    def test_specs_stay_hashable_and_equal(self):
        specs = self._specs()
        for spec in specs:
            restored = ExperimentSpec.from_dict(spec.to_dict())
            assert hash(restored) == hash(spec)
        # Usable as set/dict keys: a round-tripped copy never duplicates.
        pool = set(specs)
        pool.update(ExperimentSpec.from_json(spec.to_json()) for spec in specs)
        assert len(pool) == len(set(specs))

    def test_legacy_payloads_without_faults_parse(self):
        """Specs serialised before the fault axis existed stay loadable."""
        for spec in self._specs(count=30):
            payload = spec.to_dict()
            payload.pop("faults")
            restored = ExperimentSpec.from_dict(payload)
            assert restored.faults is None
            assert restored.graph == spec.graph
            assert restored.workload == spec.workload
            assert restored.schedule == spec.schedule

    def test_legacy_payload_with_only_a_graph(self):
        payload = {"graph": {"nodes": 12, "density": "sparse", "seed": 3}}
        restored = ExperimentSpec.from_dict(payload)
        assert restored.workload is None
        assert restored.schedule is None
        assert restored.faults is None
        assert hash(restored) == hash(ExperimentSpec.from_dict(payload))
