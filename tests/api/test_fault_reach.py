"""Every fault program and schedule acts on the run it is recorded in, or
the run is rejected.

The rule is derived from the registries: a fault program declares what it
acts on (``deliveries``, ``updates``, ``topology``), a schedule acts on
``deliveries``, a runner declares what it reads, and a pair with no shared
tag is rejected by ``repro.run``, by ``repro run`` (exit 2), by
``scenario_grid`` and by the fuzzer's ``CaseContext``.  Every accepted
fault pair must change the run: a runner off the event kernel in its
counters, the kernel runner (flooding) in a non-empty fault history.
"""

import pytest

from repro.api import (
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    ScheduleSpec,
    algorithm_traits,
    check_reach,
    fault_acts_on,
    list_algorithms,
    list_faults,
    register,
    run,
    scenario_grid,
)
from repro.api import registry as registry_module
from repro.api.faults import FAULT_TARGETS
from repro.cli import main
from repro.fuzz import CaseContext
from repro.network.errors import AlgorithmError
from repro.network.scheduler import list_schedulers

GOLDEN_GRAPH = GraphSpec(nodes=16, density="sparse", seed=3)
PROGRAMS = [name for name in list_faults() if name != "none"]
PAIRS = [(algorithm, program) for algorithm in list_algorithms() for program in PROGRAMS]


def _reaches(algorithm, program):
    return bool(set(fault_acts_on(program)) & set(algorithm_traits(algorithm)["reads"]))


REJECTED = [pair for pair in PAIRS if not _reaches(*pair)]
ACCEPTED = [pair for pair in PAIRS if _reaches(*pair)]


def _message(algorithm, program):
    acts_on = " and ".join(fault_acts_on(program))
    reads = " and ".join(algorithm_traits(algorithm)["reads"])
    return (
        f"{algorithm} cannot run under fault program {program!r}: "
        f"it acts on {acts_on}, and {algorithm} reads only {reads}"
    )


def _spec(program):
    return ExperimentSpec(graph=GOLDEN_GRAPH, faults=FaultSpec(name=program))


def _reads_deliveries(algorithm):
    return "deliveries" in algorithm_traits(algorithm)["reads"]


SCHEDULE_PAIRS = [
    (algorithm, scheduler) for algorithm in list_algorithms() for scheduler in list_schedulers()
]
SCHEDULE_REJECTED = [pair for pair in SCHEDULE_PAIRS if not _reads_deliveries(pair[0])]
SCHEDULE_ACCEPTED = [pair for pair in SCHEDULE_PAIRS if _reads_deliveries(pair[0])]


def _schedule_message(algorithm, scheduler):
    reads = " and ".join(algorithm_traits(algorithm)["reads"])
    return (
        f"{algorithm} cannot run under schedule {scheduler!r}: "
        f"it acts on deliveries, and {algorithm} reads only {reads}"
    )


def _scheduled(scheduler):
    return ExperimentSpec(graph=GOLDEN_GRAPH, schedule=ScheduleSpec(scheduler=scheduler))


class TestDeclarations:
    def test_the_runners_read_what_they_execute_on(self):
        reads = {name: algorithm_traits(name)["reads"] for name in list_algorithms()}
        assert reads == {
            "kkt-mst": ("topology",),
            "kkt-st": ("topology",),
            "ghs": ("topology",),
            "flooding": ("deliveries", "topology"),
            "kkt-repair": ("updates",),
            "recompute-repair": ("updates",),
        }

    def test_every_program_acts_on_known_targets(self):
        for name in list_faults():
            assert set(fault_acts_on(name)) <= set(FAULT_TARGETS)
        assert fault_acts_on("none") == ()
        assert fault_acts_on("partition-heal") == ("deliveries", "updates")

    def test_unknown_targets_are_rejected_at_registration(self):
        from repro.api import register_fault

        with pytest.raises(AlgorithmError, match="unknown targets"):
            register_fault("meteor", acts_on=("weather",))

    def test_the_grid_has_both_kinds_of_pair(self):
        assert len(REJECTED) == 28 and len(ACCEPTED) == 20


class TestRejected:
    def test_the_pinned_message(self):
        with pytest.raises(AlgorithmError) as excinfo:
            run("kkt-mst", _spec("byz-silent"))
        assert str(excinfo.value) == (
            "kkt-mst cannot run under fault program 'byz-silent': it acts on "
            "deliveries, and kkt-mst reads only topology"
        )

    @pytest.mark.parametrize("algorithm, program", REJECTED)
    def test_run_raises(self, algorithm, program):
        with pytest.raises(AlgorithmError) as excinfo:
            run(algorithm, _spec(program))
        assert str(excinfo.value) == _message(algorithm, program)

    @pytest.mark.parametrize("algorithm, program", REJECTED)
    def test_cli_run_exits_2(self, algorithm, program, capsys):
        code = main(["run", algorithm, "--nodes", "16", "--density", "sparse",
                     "--seed", "3", "--fault", program])
        assert code == 2
        assert capsys.readouterr().err == f"repro: error: {_message(algorithm, program)}\n"

    @pytest.mark.parametrize("algorithm, program", REJECTED)
    def test_grid_and_fuzz_case_skip_the_pair(self, algorithm, program):
        jobs = scenario_grid([algorithm, "flooding"], [GOLDEN_GRAPH], faults=[program])
        assert [job.algorithm for job in jobs] == ["flooding"]
        assert CaseContext(_spec(program), [algorithm, "flooding"]).algorithms == ["flooding"]

    def test_a_grid_of_only_rejected_cells_raises(self):
        with pytest.raises(AlgorithmError, match="ghs cannot run under fault program 'byz-silent'"):
            scenario_grid(["ghs", "kkt-mst"], [GOLDEN_GRAPH], faults=["byz-silent"])

    def test_cli_suite_skips_and_then_rejects(self, capsys):
        code = main(["suite", "--algorithms", "kkt-mst", "flooding", "--faults",
                     "byz-silent", "--sizes", "8", "--json"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert out.count('"algorithm": "flooding"') == 1 and "kkt-mst" not in out
        code = main(["suite", "--algorithms", "kkt-mst", "--faults", "lossy-uniform",
                     "--sizes", "8"])
        assert code == 2
        assert "kkt-mst cannot run under fault program 'lossy-uniform'" in capsys.readouterr().err


class TestAccepted:
    @pytest.mark.parametrize("algorithm", list_algorithms())
    def test_the_fault_free_program_is_always_accepted(self, algorithm):
        check_reach(algorithm, GOLDEN_GRAPH)
        check_reach(algorithm, _spec("none"))

    @pytest.mark.parametrize("algorithm, program", ACCEPTED)
    def test_the_program_changes_the_run(self, algorithm, program):
        faulted = run(algorithm, _spec(program))
        clean = run(algorithm, GOLDEN_GRAPH)
        if "deliveries" in algorithm_traits(algorithm)["reads"]:
            assert faulted.extra["fault_events"]
        else:
            assert faulted.counters() != clean.counters()


class TestSchedules:
    def test_the_grid_has_both_kinds_of_pair(self):
        assert len(SCHEDULE_REJECTED) == 5 * len(list_schedulers())
        assert SCHEDULE_ACCEPTED == [("flooding", name) for name in list_schedulers()]

    def test_the_pinned_message(self):
        with pytest.raises(AlgorithmError) as excinfo:
            run("kkt-mst", _scheduled("random"))
        assert str(excinfo.value) == (
            "kkt-mst cannot run under schedule 'random': it acts on "
            "deliveries, and kkt-mst reads only topology"
        )

    @pytest.mark.parametrize("algorithm, scheduler", SCHEDULE_REJECTED)
    def test_run_raises(self, algorithm, scheduler):
        with pytest.raises(AlgorithmError) as excinfo:
            run(algorithm, _scheduled(scheduler))
        assert str(excinfo.value) == _schedule_message(algorithm, scheduler)

    @pytest.mark.parametrize("algorithm, scheduler", SCHEDULE_REJECTED)
    def test_cli_run_exits_2(self, algorithm, scheduler, capsys):
        code = main(["run", algorithm, "--nodes", "16", "--density", "sparse",
                     "--seed", "3", "--schedule", scheduler])
        assert code == 2
        assert capsys.readouterr().err == (
            f"repro: error: {_schedule_message(algorithm, scheduler)}\n"
        )

    @pytest.mark.parametrize("algorithm, scheduler", SCHEDULE_REJECTED)
    def test_grid_and_fuzz_case_skip_the_pair(self, algorithm, scheduler):
        jobs = scenario_grid([algorithm, "flooding"], [GOLDEN_GRAPH], schedules=[scheduler])
        assert [job.algorithm for job in jobs] == ["flooding"]
        case = CaseContext(_scheduled(scheduler), [algorithm, "flooding"])
        assert case.algorithms == ["flooding"]

    def test_a_grid_of_only_rejected_cells_raises(self):
        with pytest.raises(AlgorithmError, match="kkt-repair cannot run under schedule 'lifo'"):
            scenario_grid(["kkt-repair", "ghs"], [GOLDEN_GRAPH], schedules=["lifo"])

    def test_a_reached_fault_does_not_excuse_the_schedule(self):
        spec = ExperimentSpec(
            graph=GOLDEN_GRAPH,
            schedule=ScheduleSpec(scheduler="random"),
            faults=FaultSpec(name="link-storm"),
        )
        with pytest.raises(AlgorithmError) as excinfo:
            run("kkt-repair", spec)
        assert str(excinfo.value) == _schedule_message("kkt-repair", "random")

    @pytest.mark.parametrize("algorithm, scheduler", SCHEDULE_ACCEPTED)
    def test_flooding_runs_under_every_scheduler(self, algorithm, scheduler):
        result = run(algorithm, _scheduled(scheduler))
        assert result.ok
        assert result.extra["engine"] == "async"
        assert result.extra["delivery_scheduler"] == scheduler
        assert result.schedule.scheduler == scheduler


@pytest.fixture
def reads_unknown():
    """A third-party runner that declares no ``reads``."""

    @register("reads-unknown", summary="declares nothing")
    class ReadsUnknownRunner:
        def run(self, spec, **options):  # pragma: no cover - never executed
            raise NotImplementedError

    yield "reads-unknown"
    registry_module.ALGORITHM_REGISTRY.entries.pop("reads-unknown", None)


def test_an_unknown_runner_reads_everything(reads_unknown):
    assert algorithm_traits(reads_unknown)["reads"] == FAULT_TARGETS
    for program in PROGRAMS:
        check_reach(reads_unknown, _spec(program))
    for scheduler in list_schedulers():
        check_reach(reads_unknown, _scheduled(scheduler))
