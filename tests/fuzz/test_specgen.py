"""Tests for the seeded ExperimentSpec generator."""

import random

import pytest

from repro.api import (
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    WorkloadSpec,
    fault_required_params,
    workload_required_params,
)
from repro.api.runners import _reference_forest
from repro.fuzz import SpecGenerator, SpecSpace
from repro.fuzz.specgen import _PARAM_FUZZERS
from repro.network.errors import AlgorithmError


class TestDeterminism:
    def test_same_seed_same_stream(self):
        first = [spec.to_json() for spec in SpecGenerator(seed=7).stream(30)]
        second = [spec.to_json() for spec in SpecGenerator(seed=7).stream(30)]
        assert first == second

    def test_different_seeds_differ(self):
        first = [spec.to_json() for spec in SpecGenerator(seed=1).stream(10)]
        second = [spec.to_json() for spec in SpecGenerator(seed=2).stream(10)]
        assert first != second


class TestValidity:
    def test_specs_are_valid_and_round_trip(self):
        for spec in SpecGenerator(seed=3).stream(40):
            assert isinstance(spec, ExperimentSpec)
            assert ExperimentSpec.from_json(spec.to_json()) == spec
            assert spec.graph.seed is not None  # always replayable

    def test_specs_build_real_graphs(self):
        for spec in SpecGenerator(seed=5).stream(10):
            graph = spec.graph.build()
            assert graph.num_nodes == spec.graph.nodes

    def test_node_bounds_respected(self):
        space = SpecSpace(min_nodes=5, max_nodes=9)
        for spec in SpecGenerator(seed=0, space=space).stream(40):
            assert 5 <= spec.graph.nodes <= 9


class TestRegistryIntrospection:
    def test_workloads_needing_params_are_skipped(self):
        generator = SpecGenerator(seed=0)
        assert "trace-replay" not in generator.workloads
        assert all(not workload_required_params(w) for w in generator.workloads)

    def test_fault_axis_from_registry(self):
        generator = SpecGenerator(seed=0)
        assert "none" not in generator.faults
        assert all(not fault_required_params(f) for f in generator.faults)

    def test_all_runnable_axes_eventually_sampled(self):
        """A modest campaign crosses every workload, fault and scheduler."""
        generator = SpecGenerator(seed=11)
        seen_workloads, seen_faults, seen_schedulers = set(), set(), set()
        for spec in generator.stream(300):
            if spec.workload is not None:
                seen_workloads.add(spec.workload.name)
            if spec.faults is not None:
                seen_faults.add(spec.faults.name)
            if spec.schedule is not None:
                seen_schedulers.add(spec.schedule.scheduler)
        assert seen_workloads == set(generator.workloads)
        assert seen_faults == set(generator.faults)
        assert seen_schedulers == set(generator.schedulers)


class TestParamFuzzers:
    @pytest.mark.parametrize("kind, name", sorted(_PARAM_FUZZERS))
    def test_every_fuzzed_parameter_set_builds(self, kind, name):
        rng = random.Random(0)
        for _ in range(6):
            params = _PARAM_FUZZERS[(kind, name)](rng)
            graph = GraphSpec(nodes=12, density="sparse", seed=1).build()
            forest = _reference_forest(graph)
            if kind == "fault":
                FaultSpec(name=name, seed=0, params=params).build(graph, forest)
            else:
                WorkloadSpec(name=name, updates=4, seed=0, params=params).build(graph, forest)


class TestSpecSpaceValidation:
    def test_min_nodes_floor(self):
        with pytest.raises(AlgorithmError, match="min_nodes"):
            SpecSpace(min_nodes=1)

    def test_max_below_min_rejected(self):
        with pytest.raises(AlgorithmError, match="max_nodes"):
            SpecSpace(min_nodes=8, max_nodes=4)

    def test_bad_update_bounds_rejected(self):
        with pytest.raises(AlgorithmError, match="update bounds"):
            SpecSpace(min_updates=0)
