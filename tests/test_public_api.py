"""Tests for the top-level public API surface.

A downstream user should be able to do everything through ``repro``'s
top-level names (plus the documented subpackages); these tests pin that
surface so accidental removals are caught.
"""

import pytest

import repro
from repro import build_mst, build_st
from repro.generators import random_connected_graph
from repro.verify import is_minimum_spanning_forest, is_spanning_forest


class TestExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "name",
        [
            "AlgorithmConfig",
            "BuildMST",
            "BuildST",
            "CutTester",
            "Edge",
            "FindAny",
            "FindMin",
            "FindResult",
            "Graph",
            "MessageAccountant",
            "RepairReport",
            "SpanningForest",
            "SuperpolyFindMin",
            "TreeRepairer",
            "build_mst",
            "build_st",
            # unified runner API
            "AlgorithmRunner",
            "ExperimentEngine",
            "ExperimentJob",
            "GraphSpec",
            "RunResult",
            "get_runner",
            "list_algorithms",
            "register",
            "run",
            # scenario API
            "ExperimentSpec",
            "ScheduleSpec",
            "WorkloadSpec",
            "get_workload",
            "list_workloads",
            "register_workload",
            "scenario_grid",
            # delivery schedulers
            "Scheduler",
            "FifoScheduler",
            "LifoScheduler",
            "RandomScheduler",
            "EdgeDelayScheduler",
            "make_scheduler",
        ],
    )
    def test_top_level_names_exist(self, name):
        assert name in repro.__all__
        assert hasattr(repro, name)

    @pytest.mark.parametrize(
        "name",
        ["FifoScheduler", "LifoScheduler", "RandomScheduler", "EdgeDelayScheduler"],
    )
    def test_schedulers_exported_from_api_and_network(self, name):
        from repro import api, network

        assert name in api.__all__ and hasattr(api, name)
        assert name in network.__all__ and hasattr(network, name)
        assert getattr(repro, name) is getattr(network, name)

    def test_scheduler_instances_satisfy_the_interface(self):
        for name in ("fifo", "lifo", "random", "edge-delay"):
            scheduler = repro.make_scheduler(name)
            assert isinstance(scheduler, repro.Scheduler)
            assert scheduler.empty()

    @pytest.mark.parametrize(
        "subpackage",
        ["analysis", "api", "baselines", "core", "dynamic", "generators", "network", "verify"],
    )
    def test_subpackages_importable(self, subpackage):
        module = getattr(repro, subpackage)
        assert module.__name__ == f"repro.{subpackage}"
        assert module.__all__


class TestConvenienceWrappers:
    def test_build_mst_wrapper(self):
        graph = random_connected_graph(20, 60, seed=21)
        report = build_mst(graph, seed=21)
        assert is_minimum_spanning_forest(report.forest)
        assert report.messages > 0

    def test_build_st_wrapper(self):
        graph = random_connected_graph(20, 60, seed=22)
        report = build_st(graph, seed=22)
        assert is_spanning_forest(report.forest)

    def test_wrappers_reject_bad_c(self):
        from repro.network.errors import AlgorithmError

        graph = random_connected_graph(8, 12, seed=24)
        with pytest.raises(AlgorithmError):
            build_mst(graph, c=0.5)


class TestDocstrings:
    @pytest.mark.parametrize(
        "obj_name",
        [
            "AlgorithmConfig",
            "BuildMST",
            "BuildST",
            "FindAny",
            "FindMin",
            "Graph",
            "SpanningForest",
            "TreeRepairer",
            "build_mst",
            "build_st",
            "GraphSpec",
            "RunResult",
            "ExperimentEngine",
            "run",
            "ExperimentSpec",
            "ScheduleSpec",
            "WorkloadSpec",
            "Scheduler",
            "make_scheduler",
            "register_workload",
        ],
    )
    def test_public_objects_are_documented(self, obj_name):
        obj = getattr(repro, obj_name)
        assert obj.__doc__ and len(obj.__doc__.strip()) > 20
