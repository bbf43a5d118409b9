"""Tests for the counter-equivalence harness (``repro bench``)."""

import json
import os
import subprocess
import sys
import tempfile

import pytest

from repro import fastpath
from repro.bench import (
    BENCHMARKS,
    SCHEMA,
    list_benchmarks,
    run_benchmark,
    run_benchmarks,
    write_report,
)
from repro.cli import build_parser, main
from repro.network.errors import AlgorithmError


def _path_dependent_body(n, density, seed):
    """A benchmark body whose counters differ between the two paths."""
    return {"messages": n + fastpath.is_enabled()}, n


class TestRegistry:
    def test_expected_benchmarks_registered(self):
        assert list_benchmarks() == [
            "bench_broadcast_byzantine",
            "bench_broadcast_byzantine_sparse",
            "bench_build_mst",
            "bench_build_st",
            "bench_findany",
            "bench_findmin",
            "bench_repair",
            "bench_repair_batched",
            "bench_service_throughput",
            "bench_sketch_pass",
            "bench_testout",
        ]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(AlgorithmError):
            run_benchmark("bench_nonsense", 16)
        with pytest.raises(AlgorithmError):
            run_benchmarks(names=["bench_nonsense"], sizes=[16])


class TestRunBenchmark:
    def test_counters_pinned_and_record_shape(self):
        record = run_benchmark("bench_findany", 32, seed=5)
        assert record.counters_equal
        assert record.reference_counters is None
        assert record.n == 32 and record.m > 0
        assert set(record.counters) == {
            "messages",
            "bits",
            "rounds",
            "broadcast_echoes",
        }
        payload = record.to_dict()
        assert "reference_counters" not in payload

    def test_report_structure(self, tmp_path):
        report = run_benchmarks(
            names=["bench_testout", "bench_repair"], sizes=[24], seed=3
        )
        assert report["schema"] == SCHEMA
        assert report["counters_equal"] is True
        assert [r["benchmark"] for r in report["results"]] == [
            "bench_testout",
            "bench_repair",
        ]
        path = write_report(report, str(tmp_path / "bench.json"))
        assert json.load(open(path)) == report

    def test_sizes_override_applies_to_all(self):
        report = run_benchmarks(names=["bench_build_st"], sizes=[16, 20])
        assert [r["n"] for r in report["results"]] == [16, 20]

    def test_reference_cutoff_skips_reference_pass(self, monkeypatch):
        monkeypatch.setattr(BENCHMARKS["bench_sketch_pass"], "reference_cutoff", 16)
        record = run_benchmark("bench_sketch_pass", 24, seed=4)
        assert record.counters_equal is None  # not compared
        payload = record.to_dict()
        assert payload["counters_equal"] is None
        assert "reference_counters" not in payload

    def test_divergence_keeps_reference_counters(self, monkeypatch):
        monkeypatch.setattr(BENCHMARKS["bench_testout"], "fn", _path_dependent_body)
        report = run_benchmarks(names=["bench_testout"], sizes=[20])
        assert report["counters_equal"] is False
        (row,) = report["results"]
        assert row["counters_equal"] is False
        assert row["counters"] == {"messages": 21}
        assert row["reference_counters"] == {"messages": 20}

    def test_fast_only_row_never_fails_the_report(self, monkeypatch):
        monkeypatch.setattr(BENCHMARKS["bench_testout"], "fn", _path_dependent_body)
        monkeypatch.setattr(BENCHMARKS["bench_testout"], "reference_cutoff", 16)
        report = run_benchmarks(names=["bench_testout"], sizes=[20])
        (row,) = report["results"]
        assert row["counters_equal"] is None
        assert "reference_counters" not in row
        assert report["counters_equal"] is True

    def test_divergent_compared_row_fails_beside_fast_only_row(self, monkeypatch):
        monkeypatch.setattr(BENCHMARKS["bench_testout"], "fn", _path_dependent_body)
        monkeypatch.setattr(BENCHMARKS["bench_testout"], "reference_cutoff", 16)
        report = run_benchmarks(names=["bench_testout"], sizes=[12, 20])
        assert [row["counters_equal"] for row in report["results"]] == [False, None]
        assert report["counters_equal"] is False

    def test_quick_selects_quick_sizes(self, monkeypatch):
        bench = BENCHMARKS["bench_sketch_pass"]
        monkeypatch.setattr(bench, "sizes", (28,))
        monkeypatch.setattr(bench, "quick_sizes", (16,))
        monkeypatch.setattr(bench, "large_sizes", (32,))
        monkeypatch.setattr(bench, "large_quick_sizes", (20,))
        quick = run_benchmarks(names=["bench_sketch_pass"], quick=True)
        assert [r["n"] for r in quick["results"]] == [16]
        assert quick["quick"] is True
        large = run_benchmarks(
            names=["bench_sketch_pass"], quick=True, profile="large"
        )
        assert [r["n"] for r in large["results"]] == [16, 20]

    def test_progress_reports_every_row(self):
        lines = []
        report = run_benchmarks(
            names=["bench_testout", "bench_build_st"],
            sizes=[16, 20],
            progress=lines.append,
        )
        assert len(lines) == len(report["results"]) == 4
        assert lines[0].startswith("bench_testout n=16")
        assert lines[-1].startswith("bench_build_st n=20")

    def test_large_profile_appends_scaling_sizes(self, monkeypatch):
        bench = BENCHMARKS["bench_sketch_pass"]
        monkeypatch.setattr(bench, "sizes", (16,))
        monkeypatch.setattr(bench, "large_sizes", (24,))
        monkeypatch.setattr(bench, "reference_cutoff", 16)
        report = run_benchmarks(names=["bench_sketch_pass"], profile="large")
        assert [r["n"] for r in report["results"]] == [16, 24]
        assert report["results"][0]["counters_equal"] is True
        assert report["results"][1]["counters_equal"] is None
        assert report["counters_equal"] is True  # AND over compared rows
        assert report["profile"] == "large"
        with pytest.raises(AlgorithmError):
            run_benchmarks(names=["bench_sketch_pass"], profile="huge")

    def test_byzantine_overhead_counters(self):
        record = run_benchmark("bench_broadcast_byzantine", 32, seed=2)
        assert record.counters_equal  # substrate charging is path-invariant
        counters = record.counters
        assert counters["bracha_messages"] > counters["plain_messages"]
        assert counters["bracha_rounds"] == 3 * counters["plain_rounds"]
        assert counters["overhead_x100"] > 100  # hardening is never free
        assert all(isinstance(value, int) for value in counters.values())


class TestServiceBenchmark:
    def test_cold_then_warm_leaves_no_store(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        from repro.bench import _SERVICE_WARM_STORES

        report = run_benchmarks(names=["bench_service_throughput"], sizes=[16])
        assert report["counters_equal"] is True
        assert list(tmp_path.glob("repro-bench-service-*")) == []
        assert _SERVICE_WARM_STORES == {}


class TestReportSchema:
    def test_report_carries_no_timing_or_memory_keys(self):
        report = run_benchmarks(names=["bench_testout"], sizes=[20], seed=9)
        assert SCHEMA == "repro-bench/3"
        assert set(report) == {
            "schema",
            "python",
            "quick",
            "profile",
            "numpy",
            "seed",
            "counters_equal",
            "results",
        }
        (row,) = report["results"]
        assert set(row) == {
            "benchmark",
            "n",
            "m",
            "density",
            "seed",
            "counters",
            "counters_equal",
        }
        assert report["seed"] == row["seed"] == 9

    def test_repro_package_imports_neither_bench_nor_cli(self):
        code = (
            "import sys, repro\n"
            "print(sorted(m for m in ('repro.bench', 'repro.cli')"
            " if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.stdout.strip() == "[]"


class TestDeterministicReport:
    def test_two_runs_write_identical_bytes(self, monkeypatch, tmp_path):
        monkeypatch.setattr(BENCHMARKS["bench_sketch_pass"], "reference_cutoff", 16)
        paths = []
        for index in range(2):
            report = run_benchmarks(
                names=["bench_testout", "bench_sketch_pass"], sizes=[24], seed=3
            )
            paths.append(write_report(report, str(tmp_path / f"bench{index}.json")))
        first, second = (open(path, "rb").read() for path in paths)
        assert first == second
        rows = {row["benchmark"]: row for row in json.loads(first)["results"]}
        assert rows["bench_testout"]["counters_equal"] is True
        assert rows["bench_sketch_pass"]["counters_equal"] is None


class TestBenchCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench", "--quick"])
        assert args.quick is True
        assert args.out is None
        assert args.benchmarks is None
        assert args.profile == "default"
        assert not hasattr(args, "mem") and not hasattr(args, "baseline")

    @pytest.mark.parametrize("removed", [["--mem"], ["--baseline", "old.json"]])
    def test_removed_timing_flags_are_rejected(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", "--quick", *removed])
        assert excinfo.value.code == 2
        assert removed[0] in capsys.readouterr().err

    def test_json_stdout_matches_written_file_bytes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["bench", "--benchmarks", "bench_testout", "--sizes", "20"]
        assert main([*argv, "--json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_table_marks_fast_only_rows(self, monkeypatch, capsys):
        monkeypatch.setattr(BENCHMARKS["bench_sketch_pass"], "reference_cutoff", 16)
        code = main(
            ["bench", "--benchmarks", "bench_sketch_pass", "--sizes", "24"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fast-path-only" in out

    def test_bench_command_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "bench",
                "--benchmarks",
                "bench_findany",
                "--sizes",
                "24",
                "--json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counters_equal"] is True
        assert json.load(open(out)) == report

    def test_bench_command_table_without_file(self, capsys):
        code = main(
            ["bench", "--benchmarks", "bench_testout", "--sizes", "20", "--out", "-"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bench_testout" in out
        assert "counters ==" in out
        assert "speedup" not in out

    def test_bench_command_writes_no_file_without_out(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--benchmarks", "bench_testout", "--sizes", "20"])
        capsys.readouterr()
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_bench_command_exits_1_on_divergence(self, monkeypatch, capsys):
        monkeypatch.setattr(BENCHMARKS["bench_testout"], "fn", _path_dependent_body)
        code = main(["bench", "--benchmarks", "bench_testout", "--sizes", "20"])
        assert code == 1
        assert "counters diverged" in capsys.readouterr().err

    def test_bench_table_renders_substrate_counters(self, capsys):
        # The byzantine benchmarks carry plain_*/bracha_* counters with no
        # bare "messages" key; the table view must not choke on them.
        code = main(
            [
                "bench",
                "--benchmarks",
                "bench_broadcast_byzantine",
                "--sizes",
                "16",
                "--out",
                "-",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bench_broadcast_byzantine" in out
