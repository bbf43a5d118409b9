"""The ``byz-*`` fault programs: registry wiring, caps, provenance, errors."""

import json

import pytest

from repro.api import (
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    fault_adversarial,
    get_fault,
    list_faults,
    register_fault,
    run,
)
from repro.api.runners import _reference_forest
from repro.byzantine import ByzantineInjector, choose_byzantine_nodes, max_tolerated
from repro.cli import _fault_names
from repro.network.errors import AlgorithmError
from repro.network.faults import FaultEvent

BYZ_PROGRAMS = ["byz-corrupt", "byz-equivocate", "byz-replay", "byz-silent"]


def _graph_and_forest(nodes=16, seed=3):
    graph = GraphSpec(nodes=nodes, density="sparse", seed=seed).build()
    return graph, _reference_forest(graph)


class TestRegistryWiring:
    def test_all_four_programs_are_registered(self):
        assert set(BYZ_PROGRAMS) <= set(list_faults())

    @pytest.mark.parametrize("name", BYZ_PROGRAMS)
    def test_byzantine_programs_are_adversarial(self, name):
        assert fault_adversarial(name) is True

    @pytest.mark.parametrize("name", ["none", "crash-leaves", "lossy-uniform"])
    def test_benign_programs_are_not(self, name):
        assert fault_adversarial(name) is False

    @pytest.mark.parametrize("name", BYZ_PROGRAMS)
    def test_duplicate_registration_is_rejected(self, name):
        with pytest.raises(
            AlgorithmError, match=f"fault program '{name}' is already registered"
        ):

            @register_fault(name)
            def impostor(graph, forest, seed=None):  # pragma: no cover
                return None

    def test_unknown_byzantine_name_from_the_api(self):
        with pytest.raises(AlgorithmError, match="registered fault programs"):
            get_fault("byz-bribe")

    def test_unknown_byzantine_name_from_the_cli(self):
        with pytest.raises(
            AlgorithmError,
            match="unknown fault program 'byz-bribe'; registered fault programs: ",
        ):
            _fault_names(["none,byz-bribe"])

    def test_cli_flattening_accepts_the_byzantine_tier(self):
        assert _fault_names(["byz-silent,byz-replay", "none"]) == [
            "byz-silent",
            "byz-replay",
            "none",
        ]


class TestHonestMajorityCap:
    def test_max_tolerated_is_the_bracha_bound(self):
        assert [max_tolerated(n) for n in range(1, 9)] == [0, 0, 0, 1, 1, 1, 2, 2]

    def test_default_count_takes_the_whole_budget(self):
        graph, _ = _graph_and_forest(nodes=16)
        assert len(choose_byzantine_nodes(graph, seed=0, count=None)) == 5

    def test_explicit_counts_are_clamped_not_rejected(self):
        graph, _ = _graph_and_forest(nodes=5)
        assert len(choose_byzantine_nodes(graph, seed=0, count=4)) == 1

    def test_negative_counts_are_rejected(self):
        graph, _ = _graph_and_forest()
        with pytest.raises(AlgorithmError, match="cannot be negative"):
            choose_byzantine_nodes(graph, seed=0, count=-1)

    def test_tiny_graphs_get_an_inert_adversary(self):
        graph = GraphSpec(nodes=3, density="dense", seed=0).build()
        assert choose_byzantine_nodes(graph, seed=0, count=None) == []
        program = FaultSpec(name="byz-silent", seed=0).build(
            graph, _reference_forest(graph)
        )
        assert program.planned == []
        assert program.injector.byzantine_nodes == []

    def test_choice_is_seed_deterministic(self):
        graph, _ = _graph_and_forest()
        first = choose_byzantine_nodes(graph, seed=7, count=3)
        assert first == choose_byzantine_nodes(graph, seed=7, count=3)
        assert first == sorted(first)
        assert set(first) <= set(graph.nodes())
        assert first != choose_byzantine_nodes(graph, seed=8, count=3)


class TestProgramBuilds:
    @pytest.mark.parametrize("name", BYZ_PROGRAMS)
    def test_build_plans_one_row_per_compromised_node(self, name):
        graph, forest = _graph_and_forest()
        program = FaultSpec(name=name, seed=4).build(graph, forest)
        assert isinstance(program.injector, ByzantineInjector)
        nodes = program.injector.byzantine_nodes
        assert nodes  # 16 nodes tolerate 5 compromised ones
        assert program.planned == [[0, name, node, None] for node in nodes]
        assert len(program.stream) == 0  # no topology changes, only lies

    def test_at_parameter_shifts_the_plan_and_rejects_negatives(self):
        graph, forest = _graph_and_forest()
        program = FaultSpec(name="byz-silent", seed=4, params={"at": 7}).build(
            graph, forest
        )
        assert all(row[0] == 7 for row in program.planned)
        with pytest.raises(AlgorithmError, match="non-negative"):
            FaultSpec(name="byz-silent", params={"at": -1}).build(graph, forest)


class TestProvenance:
    def test_fault_event_rows_round_trip_through_json(self):
        event = FaultEvent(time=3, kind="byz-equivocate", u=1, v=2)
        row = event.to_list()
        assert row == [3, "byz-equivocate", 1, 2]
        assert json.loads(json.dumps(row)) == row
        assert FaultEvent(*json.loads(json.dumps(row))) == event

    def test_flooding_run_records_the_full_adversarial_history(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, density="dense", seed=2),
            faults=FaultSpec(name="byz-silent"),
        )
        result = run("flooding", spec)
        assert result.faults is not None and result.faults.name == "byz-silent"
        assert result.faults.seed == 2  # resolved against the graph seed
        events = result.extra["fault_events"]
        planned = [event for event in events if event[1] == "byz-silent" and event[3] is None]
        fired = [event for event in events if event[3] is not None]
        assert planned and fired  # compromised set + the attacks that landed
        payload = json.loads(result.to_json())
        assert payload["extra"]["fault_events"] == events
        again = type(result).from_json(result.to_json())
        assert again.to_dict() == result.to_dict()

    def test_byzantine_runs_are_deterministic(self):
        spec = ExperimentSpec(
            graph=GraphSpec(nodes=16, density="dense", seed=5),
            faults=FaultSpec(name="byz-replay", params={"rate": 0.5}),
        )
        first = run("flooding", spec)
        second = run("flooding", spec)
        assert first.extra["fault_events"] == second.extra["fault_events"]
        assert first.counters() == second.counters()
