"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "kkt-mst"])
        assert args.nodes == 64
        assert args.density == "dense"
        assert args.error_exponent == 1.0
        assert args.substrate == "plain"
        assert args.mode is None and args.repair_batch is None and args.updates is None

    def test_run_repair_arguments(self):
        args = build_parser().parse_args(
            ["run", "kkt-repair", "--nodes", "24", "--mode", "st", "--updates", "4"]
        )
        assert args.mode == "st"
        assert args.updates == 4

    def test_suite_sizes(self):
        args = build_parser().parse_args(
            ["suite", "--algorithms", "kkt-st", "--sizes", "16", "32", "--workloads", "none"]
        )
        assert args.sizes == [16, 32]
        assert args.workloads == ["none"]

    def test_suite_requires_algorithms(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--sizes", "16"])

    def test_suite_runner_flag_defaults(self):
        args = build_parser().parse_args(["suite", "--algorithms", "kkt-mst"])
        assert args.error_exponent == 1.0
        assert args.substrate == "plain"
        assert args.mode is None and args.repair_batch is None and args.record is None

    @pytest.mark.parametrize("command", ["build-mst", "build-st", "repair", "sweep"])
    def test_removed_views_are_unknown_commands(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    GRAPH = ["--nodes", "20", "--density", "sparse", "--seed", "3"]

    def test_compare_kkt_mst_with_ghs(self, capsys):
        code = main(["compare", "kkt-mst", "ghs", *self.GRAPH])
        out = capsys.readouterr().out
        assert code == 0
        assert "Head-to-head" in out
        assert "kkt-mst" in out and "ghs" in out

    def test_compare_kkt_st_with_flooding(self, capsys):
        code = main(["compare", "kkt-st", "flooding", *self.GRAPH])
        out = capsys.readouterr().out
        assert code == 0
        assert "kkt-st" in out and "flooding" in out

    def test_run_repair_command(self, capsys):
        code = main(
            ["run", "kkt-repair", "--nodes", "20", "--density", "sparse", "--updates", "4",
             "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "kkt-repair" in out
        assert "yes" in out

    def test_compare_repair_with_recompute_baseline(self, capsys):
        code = main(
            [
                "compare", "kkt-repair", "recompute-repair",
                "--nodes", "16",
                "--density", "sparse",
                "--updates", "3",
                "--seed", "6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recompute-repair" in out

    def test_suite_size_grid_command(self, capsys):
        code = main(
            ["suite", "--algorithms", "kkt-st", "flooding", "--sizes", "16", "24",
             "--workloads", "none", "--density", "sparse", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Scenario suite over sparse graphs" in out
        assert "16" in out and "24" in out

    def test_selfcheck_command(self, capsys):
        code = main(["selfcheck"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("OK") == 3
