"""Tests for the registry-backed CLI commands (`run`, `compare`, `sweep --algorithms`)."""

import json

import pytest

import repro
from repro.analysis import format_cell
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

    def test_repair_with_fault_flag(self, capsys):
        code = main(
            ["repair", "--nodes", "16", "--density", "sparse", "--seed", "5",
             "--updates", "3", "--fault", "partition-heal"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault events (partition-heal)" in out

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


class TestRepairView:
    """`repro repair` renders registry runs: its rows are RunResult fields."""

    GRAPH = ["--nodes", "32", "--density", "dense", "--seed", "3"]

    @staticmethod
    def _rows(out):
        rows = {}
        for line in out.splitlines():
            label, sep, value = line.rpartition("|")
            if sep and not label.startswith("-"):
                rows[label.strip()] = value.strip()
        return rows

    @staticmethod
    def _spec(fault):
        return ExperimentSpec(
            graph=GraphSpec(nodes=32, density="dense", seed=3),
            workload=WorkloadSpec(name="churn", updates=12),
            faults=FaultSpec(name=fault),
        )

    def test_fault_stream_matches_the_runner(self, capsys):
        code = main(["repair", *self.GRAPH, "--updates", "12", "--repair-batch", "0",
                     "--mode", "st", "--fault", "crash-leaves"])
        rows = self._rows(capsys.readouterr().out)
        assert code == 0
        result = run("kkt-repair", self._spec("crash-leaves"), mode="st", repair_batch=0)
        processed = result.extra["updates"] + result.extra["fault_updates_applied"]
        assert rows["updates processed"] == str(processed)
        assert rows["messages per update (mean)"] == format_cell(
            round(result.extra["messages_per_update_mean"], 1)
        )

    def test_recompute_baseline_includes_fault_events(self, capsys):
        code = main(["repair", *self.GRAPH, "--updates", "12", "--repair-batch", "0",
                     "--fault", "link-storm", "--compare-recompute"])
        rows = self._rows(capsys.readouterr().out)
        assert code == 0
        baseline = run("recompute-repair", self._spec("link-storm"), repair_batch=0)
        assert baseline.phases == baseline.extra["updates"] + baseline.extra[
            "fault_updates_applied"
        ]
        assert rows["recompute baseline per update (mean)"] == format_cell(
            round(baseline.extra["messages_per_update_mean"], 1)
        )

    def test_run_forwards_error_exponent_to_repair_build(self, capsys):
        code = main(["run", "kkt-repair", *self.GRAPH, "-c", "3", "--json"])
        (result,) = parse_json_lines(capsys.readouterr().out)
        assert code == 0
        kkt = run("kkt-mst", GraphSpec(nodes=32, density="dense", seed=3), c=3)
        assert result.extra["build_messages"] == kkt.messages
        default = run("kkt-mst", GraphSpec(nodes=32, density="dense", seed=3))
        assert kkt.messages != default.messages


class TestSweepCommand:
    def test_parser_accepts_engine_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--algorithms", "kkt-st", "flooding", "--sizes", "16", "24",
             "--jobs", "4", "--json"]
        )
        assert args.algorithms == ["kkt-st", "flooding"]
        assert args.jobs == 4
        assert args.json

    def test_sweep_algorithms_json(self, capsys):
        code = main(
            ["sweep", "--algorithms", "kkt-st", "flooding", "--sizes", "12", "16",
             "--density", "sparse", "--seed", "2", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        results = parse_json_lines(out)
        assert [(r.algorithm, r.n) for r in results] == [
            ("kkt-st", 12), ("flooding", 12), ("kkt-st", 16), ("flooding", 16),
        ]

    def test_sweep_parallel_counters_match_serial(self, capsys):
        argv = ["sweep", "--algorithms", "kkt-st", "flooding", "--sizes", "12", "16",
                "--density", "sparse", "--seed", "2", "--json"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def strip_wall_time(out):
            records = [json.loads(line) for line in out.strip().splitlines()]
            for record in records:
                record.pop("wall_time_s")
            return records

        assert strip_wall_time(parallel) == strip_wall_time(serial)

    def test_legacy_kind_sweep_still_works(self, capsys):
        code = main(
            ["sweep", "--kind", "st", "--sizes", "16", "--density", "sparse", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Build-ST sweep" in out

    def test_legacy_sweep_rejects_engine_flags(self, capsys):
        code = main(["sweep", "--kind", "st", "--sizes", "16", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--algorithms" in captured.err
