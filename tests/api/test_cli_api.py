"""Tests for the registry-backed CLI commands (`run`, `compare`, `submit`, `suite`)."""

import json

import pytest

import repro
from repro.api import ExperimentSpec, FaultSpec, GraphSpec, RunResult, WorkloadSpec, run
from repro.cli import build_parser, main


def parse_json_lines(out):
    return [RunResult.from_json(line) for line in out.strip().splitlines()]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestRunCommand:
    def test_run_table(self, capsys):
        code = main(["run", "kkt-mst", "--nodes", "20", "--density", "sparse", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kkt-mst" in out

    def test_run_json(self, capsys):
        code = main(
            ["run", "kkt-st", "--nodes", "20", "--density", "sparse", "--seed", "3", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        (result,) = parse_json_lines(out)
        assert result.algorithm == "kkt-st"
        assert result.n == 20
        assert result.spec.seed == 3
        assert result.ok

    def test_run_repair_algorithm(self, capsys):
        code = main(
            ["run", "kkt-repair", "--nodes", "16", "--density", "sparse",
             "--seed", "5", "--updates", "4", "--json"]
        )
        assert code == 0
        (result,) = parse_json_lines(capsys.readouterr().out)
        assert result.extra["updates"] == 4

    def test_run_unknown_algorithm(self, capsys):
        code = main(["run", "dijkstra", "--nodes", "16"])
        captured = capsys.readouterr()
        assert code == 2
        assert "dijkstra" in captured.err
        assert "kkt-mst" in captured.err


class TestCliErrorPaths:
    """Unknown names and broken inputs exit non-zero with actionable text."""

    def test_unknown_workload_name(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "kkt-repair", "--nodes", "16", "--workload", "tsunami"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'tsunami'" in err
        assert "churn" in err  # the valid choices are listed

    def test_unknown_schedule_name(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "kkt-st", "--nodes", "16", "--schedule", "chaotic"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'chaotic'" in err
        assert "fifo" in err

    def test_unknown_fault_name_on_run(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "kkt-repair", "--nodes", "16", "--fault", "meteor"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'meteor'" in err
        assert "link-storm" in err

    def test_unknown_workload_on_suite(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "--algorithms", "kkt-repair", "--workloads", "tsunami"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'tsunami'" in capsys.readouterr().err

    def test_unknown_algorithm_on_suite(self, capsys):
        code = main(["suite", "--algorithms", "dijkstra", "--sizes", "12"])
        captured = capsys.readouterr()
        assert code == 2
        assert "dijkstra" in captured.err
        assert "registered algorithms" in captured.err

    def test_unknown_algorithm_on_compare(self, capsys):
        code = main(["compare", "kkt-mst", "bellman-ford", "--nodes", "12"])
        captured = capsys.readouterr()
        assert code == 2
        assert "bellman-ford" in captured.err


class TestCompareCommand:
    def test_compare_json(self, capsys):
        code = main(
            ["compare", "kkt-st", "flooding", "--nodes", "20", "--density", "sparse",
             "--seed", "2", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        results = parse_json_lines(out)
        assert [r.algorithm for r in results] == ["kkt-st", "flooding"]
        assert results[0].spec == results[1].spec


class TestAlgorithmsCommand:
    def test_lists_registry(self, capsys):
        code = main(["algorithms"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("kkt-mst", "kkt-st", "ghs", "flooding", "kkt-repair", "recompute-repair"):
            assert name in out


class TestWorkloadsCommand:
    def test_lists_workloads_and_schedulers(self, capsys):
        code = main(["workloads"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("churn", "deletions-only", "bridge-heavy", "insert-heavy",
                     "weight-ramp", "trace-replay"):
            assert name in out
        for name in ("fifo", "lifo", "random", "edge-delay"):
            assert name in out


class TestSuiteCommand:
    ARGS = ["suite", "--algorithms", "kkt-repair", "recompute-repair",
            "--workloads", "churn", "insert-heavy", "--schedules", "none", "random",
            "--sizes", "12", "--density", "sparse", "--seed", "4", "--updates", "4"]

    def test_suite_json_records_provenance(self, capsys):
        code = main(self.ARGS + ["--json"])
        out = capsys.readouterr().out
        assert code == 0
        results = parse_json_lines(out)
        assert len(results) == 8
        assert {r.workload.name for r in results} == {"churn", "insert-heavy"}
        assert {None if r.schedule is None else r.schedule.scheduler for r in results} == {
            None, "random",
        }

    def test_suite_parallel_counters_match_serial(self, capsys):
        assert main(self.ARGS + ["--json", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--json", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def strip_wall_time(out):
            records = [json.loads(line) for line in out.strip().splitlines()]
            for record in records:
                record.pop("wall_time_s")
            return records

        assert strip_wall_time(parallel) == strip_wall_time(serial)

    def test_suite_table(self, capsys):
        code = main(["suite", "--algorithms", "kkt-repair", "--workloads", "churn",
                     "--sizes", "12", "--density", "sparse", "--updates", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload" in out and "schedule" in out

    def test_trace_replay_workload_requires_trace_flag(self, capsys):
        code = main(["suite", "--algorithms", "kkt-repair",
                     "--workloads", "trace-replay", "--sizes", "12"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--trace" in captured.err


class TestTraceCommands:
    def test_record_then_replay_round_trips(self, capsys, tmp_path):
        path = tmp_path / "churn.trace.json"
        code = main(["trace", "record", "--nodes", "16", "--density", "sparse",
                     "--seed", "5", "--updates", "4", "--out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert path.exists()
        assert "updates recorded" in out

        code = main(["trace", "replay", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-update costs reproduced" in out

        code = main(["suite", "--algorithms", "kkt-repair", "--workloads",
                     "trace-replay", "--trace", str(path), "--sizes", "12", "--json"])
        (result,) = parse_json_lines(capsys.readouterr().out)
        assert code == 0
        assert result.n == 16  # the trace's graph wins over --sizes

    def test_replay_missing_file_errors(self, capsys, tmp_path):
        code = main(["trace", "replay", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "not found" in captured.err


class TestRunScenarioFlags:
    def test_run_with_workload_and_schedule(self, capsys):
        code = main(["run", "kkt-repair", "--nodes", "16", "--density", "sparse",
                     "--seed", "5", "--updates", "4", "--workload", "weight-ramp",
                     "--schedule", "random", "--json"])
        (result,) = parse_json_lines(capsys.readouterr().out)
        assert code == 0
        assert result.workload.name == "weight-ramp"
        assert result.schedule.scheduler == "random"
        assert result.checks["delivery"] is True


class TestFaultsCli:
    def test_faults_command_lists_registry(self, capsys):
        code = main(["faults"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("none", "crash-leaves", "lossy-uniform", "partition-heal",
                     "link-storm"):
            assert name in out

    def test_run_with_fault_flag(self, capsys):
        code = main(
            ["run", "kkt-repair", "--nodes", "16", "--density", "sparse",
             "--seed", "5", "--updates", "3", "--fault", "link-storm", "--json"]
        )
        assert code == 0
        (result,) = parse_json_lines(capsys.readouterr().out)
        assert result.faults is not None and result.faults.name == "link-storm"
        assert result.extra["fault_updates_applied"] > 0

    def test_run_repair_with_fault_program_table(self, capsys):
        code = main(
            ["run", "kkt-repair", "--nodes", "16", "--density", "sparse", "--seed", "5",
             "--updates", "3", "--fault", "partition-heal"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "partition-heal" in out

    def test_suite_faults_axis_comma_separated(self, capsys):
        code = main(
            ["suite", "--algorithms", "kkt-repair", "--sizes", "16",
             "--updates", "3", "--faults", "none,link-storm", "--json"]
        )
        assert code == 0
        results = parse_json_lines(capsys.readouterr().out)
        assert [r.faults.name if r.faults else None for r in results] == [
            None, "link-storm",
        ]

    def test_suite_unknown_fault_errors(self, capsys):
        code = main(
            ["suite", "--algorithms", "kkt-repair", "--sizes", "16",
             "--faults", "meteor-strike"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "meteor-strike" in captured.err

    def test_suite_faults_parallel_matches_serial(self, capsys):
        argv = ["suite", "--algorithms", "kkt-repair", "recompute-repair",
                "--sizes", "16", "--updates", "3",
                "--faults", "none", "crash-leaves", "--json"]
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out

        def strip(text):
            records = [json.loads(line) for line in text.strip().splitlines()]
            for record in records:
                record.pop("wall_time_s")
            return records

        assert strip(parallel) == strip(serial)


def _records(out):
    """``--json`` lines as dicts, with the one nondeterministic field dropped."""
    records = [json.loads(line) for line in out.strip().splitlines()]
    for record in records:
        record.pop("wall_time_s")
    return records


def _record(result):
    """A ``RunResult`` as the dict ``_records`` yields for its ``--json`` line."""
    record = result.to_dict()
    record.pop("wall_time_s")
    return record


class TestRepairRequests:
    """Repair runs are plain ``run``/``compare`` requests: their records are
    the registry runs on the same spec and options."""

    GRAPH = ["--nodes", "32", "--density", "dense", "--seed", "3"]
    SCENARIO = ["--workload", "churn", "--updates", "12", "--repair-batch", "0"]

    @staticmethod
    def _spec(fault):
        return ExperimentSpec(
            graph=GraphSpec(nodes=32, density="dense", seed=3),
            workload=WorkloadSpec(name="churn", updates=12),
            faults=FaultSpec(name=fault),
        )

    def test_run_mode_st_matches_the_runner(self, capsys):
        code = main(["run", "kkt-repair", *self.GRAPH, *self.SCENARIO,
                     "--mode", "st", "--fault", "crash-leaves", "--json"])
        (record,) = _records(capsys.readouterr().out)
        assert code == 0
        result = run("kkt-repair", self._spec("crash-leaves"), mode="st", repair_batch=0)
        assert record == _record(result)
        assert record["extra"]["mode"] == "st"
        assert record["extra"]["fault_updates_applied"] > 0

    @pytest.mark.parametrize("fault, mode", [("crash-leaves", "st"), ("link-storm", None)])
    def test_compare_with_recompute_matches_the_runners(self, capsys, fault, mode):
        argv = ["compare", "kkt-repair", "recompute-repair", *self.GRAPH, *self.SCENARIO,
                "--fault", fault, "--json"]
        code = main(argv + (["--mode", mode] if mode else []))
        records = _records(capsys.readouterr().out)
        assert code == 0
        options = {"mode": mode} if mode else {}
        spec = self._spec(fault)
        kkt = run("kkt-repair", spec, repair_batch=0, **options)
        baseline = run("recompute-repair", spec, repair_batch=0, **options)
        assert records == [_record(kkt), _record(baseline)]
        # The baseline rebuilds once per update, fault events included.
        assert baseline.phases == baseline.extra["updates"] + baseline.extra[
            "fault_updates_applied"
        ]

    def test_run_forwards_error_exponent_to_repair_build(self, capsys):
        code = main(["run", "kkt-repair", *self.GRAPH, "-c", "3", "--json"])
        (result,) = parse_json_lines(capsys.readouterr().out)
        assert code == 0
        kkt = run("kkt-mst", GraphSpec(nodes=32, density="dense", seed=3), c=3)
        assert result.extra["build_messages"] == kkt.messages
        default = run("kkt-mst", GraphSpec(nodes=32, density="dense", seed=3))
        assert kkt.messages != default.messages


@pytest.fixture(scope="module")
def service():
    from repro.service import InProcessServer, ServiceConfig

    with InProcessServer(ServiceConfig(executor="inline", workers=1)) as server:
        yield server


class TestOneRequestPath:
    """``run``, ``submit`` and ``compare`` build the same (spec, options)
    request from the same flags, so their records agree."""

    @pytest.mark.parametrize(
        "flags",
        [["kkt-repair", "--updates", "4"], ["kkt-mst", "-c", "3"]],
        ids=["kkt-repair-updates", "kkt-mst-error-exponent"],
    )
    def test_run_submit_and_compare_agree(self, capsys, service, flags):
        argv = [*flags, "--nodes", "16", "--density", "sparse", "--seed", "3", "--json"]
        assert main(["run", *argv]) == 0
        (ran,) = _records(capsys.readouterr().out)
        assert main(["submit", *argv, "--server", f"127.0.0.1:{service.port}"]) == 0
        submitted = json.loads(capsys.readouterr().out)["result"]
        submitted.pop("wall_time_s")
        assert main(["compare", *argv]) == 0
        (compared,) = _records(capsys.readouterr().out)
        assert ran == submitted == compared
        if flags[0] == "kkt-repair":
            assert ran["extra"]["updates"] == 4
        else:
            assert ran["extra"]["c"] == 3.0

    def test_compare_gives_each_runner_its_own_options(self, capsys):
        code = main(["compare", "kkt-mst", "ghs", "--nodes", "16", "--density", "sparse",
                     "--seed", "3", "-c", "3", "--json"])
        kkt, ghs = _records(capsys.readouterr().out)
        assert code == 0
        graph = GraphSpec(nodes=16, density="sparse", seed=3)
        assert kkt == _record(run("kkt-mst", graph, c=3))
        assert ghs == _record(run("ghs", graph))


class TestSizeGrid:
    """``suite --workloads none`` is the plain (algorithm x size) grid."""

    GRID = ["suite", "--algorithms", "kkt-st", "flooding", "--sizes", "12", "16",
            "--workloads", "none", "--density", "sparse", "--seed", "2", "--json"]

    def test_parser_accepts_engine_flags(self):
        args = build_parser().parse_args(
            ["suite", "--algorithms", "kkt-st", "flooding", "--sizes", "16", "24",
             "--workloads", "none", "--jobs", "4", "--json"]
        )
        assert args.algorithms == ["kkt-st", "flooding"]
        assert args.workloads == ["none"]
        assert args.jobs == 4
        assert args.json

    def test_size_grid_json(self, capsys):
        code = main(self.GRID)
        out = capsys.readouterr().out
        assert code == 0
        results = parse_json_lines(out)
        assert [(r.algorithm, r.n) for r in results] == [
            ("kkt-st", 12), ("flooding", 12), ("kkt-st", 16), ("flooding", 16),
        ]
        assert all(r.workload is None for r in results)
        graph = GraphSpec(nodes=12, density="sparse", seed=2)
        assert _records(out)[0] == _record(run("kkt-st", graph))

    def test_size_grid_parallel_counters_match_serial(self, capsys):
        assert main(self.GRID + ["--jobs", "1"]) == 0
        serial = _records(capsys.readouterr().out)
        assert main(self.GRID + ["--jobs", "2"]) == 0
        assert _records(capsys.readouterr().out) == serial

    def test_suite_requires_algorithms(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "--sizes", "16", "--workloads", "none", "--json"])
        assert excinfo.value.code == 2
        assert "--algorithms" in capsys.readouterr().err


class TestSuiteRunnerFlags:
    def _suite(self, capsys, *flags):
        assert main(["suite", "--sizes", "12", "--seed", "3", "--json", *flags]) == 0
        return _records(capsys.readouterr().out)

    def test_error_exponent_reaches_every_job(self, capsys):
        records = self._suite(capsys, "--algorithms", "kkt-mst", "--workloads", "none",
                              "-c", "3")
        assert [record["extra"]["c"] for record in records] == [3.0]

    def test_mode_st_reaches_the_repair_runner(self, capsys):
        (record,) = self._suite(capsys, "--algorithms", "kkt-repair", "--mode", "st")
        assert record["extra"]["mode"] == "st"

    def test_each_runner_gets_its_own_options(self, capsys):
        kkt, ghs = self._suite(capsys, "--algorithms", "kkt-mst", "ghs",
                               "--workloads", "none", "-c", "3")
        graph = GraphSpec(nodes=12, density="sparse", seed=3)
        assert kkt == _record(run("kkt-mst", graph, c=3))
        assert ghs == _record(run("ghs", graph))

    def test_repair_batch_and_substrate(self, capsys):
        (record,) = self._suite(capsys, "--algorithms", "kkt-repair", "--updates", "6",
                                "--repair-batch", "3", "--substrate", "bracha")
        assert record["extra"]["repair_batch"] == 3
        assert record["extra"]["substrate"] == "bracha"
