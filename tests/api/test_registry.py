"""Tests for the algorithm registry and the `run` facade."""

import pytest

from repro.api import (
    AlgorithmRunner,
    GraphSpec,
    RunResult,
    algorithm_summaries,
    get_runner,
    list_algorithms,
    register,
    run,
)
from repro.network.errors import AlgorithmError

BUILTIN = ["flooding", "ghs", "kkt-mst", "kkt-repair", "kkt-st", "recompute-repair"]


class TestRegistryLookup:
    def test_builtin_algorithms_registered(self):
        names = list_algorithms()
        for name in BUILTIN:
            assert name in names
        assert names == sorted(names)

    def test_get_runner_returns_protocol_instance(self):
        for name in BUILTIN:
            runner = get_runner(name)
            assert isinstance(runner, AlgorithmRunner)
            assert runner.name == name
            assert runner.summary

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(AlgorithmError) as excinfo:
            get_runner("kruskal-turbo")
        message = str(excinfo.value)
        assert "kruskal-turbo" in message
        assert "kkt-mst" in message

    def test_summaries_cover_all_names(self):
        summaries = algorithm_summaries()
        assert set(summaries) == set(list_algorithms())
        assert all(summaries.values())


class TestRegisterDecorator:
    # Name checks, duplicates and lookups are the shared registry contract,
    # checked for every registry in tests/test_name_registry.py.

    def test_docstring_less_class_falls_back_to_name(self):
        from repro.api.registry import ALGORITHM_REGISTRY

        try:
            @register("zz-test-noop")
            class NoDoc:
                def run(self, spec, **options):  # pragma: no cover - never run
                    raise NotImplementedError

            assert NoDoc.summary == "zz-test-noop"
            assert "zz-test-noop" in algorithm_summaries()
        finally:
            # Leaking the dummy would make every later registry consumer
            # (the fuzz campaign, notably) trip over it.
            ALGORITHM_REGISTRY.entries.pop("zz-test-noop", None)


class TestRunFacade:
    def test_run_kkt_mst_returns_valid_result(self):
        result = run("kkt-mst", GraphSpec(nodes=24, density="sparse", seed=7))
        assert isinstance(result, RunResult)
        assert result.algorithm == "kkt-mst"
        assert result.n == 24
        assert result.messages > 0
        assert result.checks == {"spanning": True, "minimum": True}
        assert result.ok

    def test_run_ghs_returns_valid_result(self):
        result = run("ghs", GraphSpec(nodes=20, density="dense", seed=3))
        assert result.ok
        assert result.checks["minimum"]

    def test_run_flooding_costs_theta_m(self):
        result = run("flooding", GraphSpec(nodes=24, density="sparse", seed=2))
        assert result.m <= result.messages <= 2 * result.m
        assert result.ok

    def test_run_repair_algorithms(self):
        spec = GraphSpec(nodes=20, density="sparse", seed=5)
        impromptu = run("kkt-repair", spec, updates=4)
        recompute = run("recompute-repair", spec, updates=4)
        assert impromptu.ok and recompute.ok
        assert impromptu.phases == recompute.phases == impromptu.extra["updates"]

    def test_run_unknown_algorithm(self):
        with pytest.raises(AlgorithmError):
            run("bogus", GraphSpec(nodes=8))

    def test_run_forwards_options(self):
        spec = GraphSpec(nodes=16, density="sparse", seed=6)
        result = run("kkt-mst", spec, c=2.0)
        assert result.extra["c"] == 2.0
        with pytest.raises(AlgorithmError):
            run("kkt-mst", spec, c=0.5)

    def test_acceptance_criterion_round_trip(self):
        # The ISSUE's acceptance example, verbatim.
        for name in ("kkt-mst", "ghs"):
            result = run(name, GraphSpec(nodes=96, density="complete", seed=7))
            assert isinstance(result, RunResult)
            assert RunResult.from_json(result.to_json()) == result
