"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, tracing
from perfbench.tracing import TARGETS, Target, Tracer
from perfbench.workloads import SMALL

ROOT = Path(__file__).resolve().parents[2]


def _counters(workload, seed, count, tracer=None):
    state = workload.prepare(seed)
    run = harness.run_ops(workload, state, count=count, tracer=tracer)
    assert run.failed == 0
    return run.counters


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counters_repeat_across_runs_and_under_tracing(name):
    workload = SMALL[name]
    first = _counters(workload, 5, 3)
    assert first == _counters(workload, 5, 3)
    with Tracer() as tracer:
        assert first == _counters(workload, 5, 3, tracer)
    assert first != _counters(workload, 6, 3)


def _bound_values():
    """Every place a target's callable is bound: ``{(owner, attr): value}``."""
    bound = {}
    for target in TARGETS:
        owner, attr, raw = tracing._resolve(target.path)
        if isinstance(owner, type):
            bound[(owner, attr)] = vars(owner).get(attr)
            continue
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for name, value in vars(module).items():
                    if value is raw:
                        bound[(module, name)] = value
    return bound


def test_wrappers_are_installed_and_restored():
    before = _bound_values()
    with Tracer() as tracer:
        assert tracer.absent == []
        during = {key: vars(key[0]).get(key[1]) for key in before}
        assert all(during[key] is not before[key] for key in before)
    after = {key: vars(key[0]).get(key[1]) for key in before}
    assert all(after[key] is before[key] for key in before)


def test_missing_callable_is_reported_absent():
    missing = (
        Target("gone.method", "repro.network.graph:Graph.no_such_method"),
        Target("gone.module", "repro.no_such_module:function"),
    )
    with Tracer(TARGETS + missing) as tracer:
        assert tracer.absent == [target.path for target in missing]
        state = SMALL["cut-search-large"].prepare(1)
        assert harness.run_ops(SMALL["cut-search-large"], state, count=1, tracer=tracer).failed == 0
    assert not hasattr(__import__("repro").network.graph.Graph, "no_such_method")


def test_planted_wrong_findmin_answer_counts_as_failed(monkeypatch):
    from repro.core import FindMin

    original = FindMin.run

    def wrong(self, root, capped=False):
        result = original(self, root, capped)
        tree_edge = next(iter(self.forest.marked_edges))
        return dataclasses.replace(result, edge=self.graph.get_edge(*tree_edge))

    workload = SMALL["cut-search-large"]
    state = workload.prepare(3)
    monkeypatch.setattr(FindMin, "run", wrong)
    run = harness.run_ops(workload, state, count=4)
    assert run.failed == 4


def test_planted_wrong_repair_counts_as_failed(monkeypatch):
    from repro.dynamic import TreeMaintainer, UpdateKind

    original = TreeMaintainer.apply

    def drop_reinsert(self, update):
        if update.kind == UpdateKind.INSERT:
            self.graph.add_edge(update.u, update.v, update.effective_weight)
            return None
        return original(self, update)

    workload = SMALL["repair-churn"]
    state = workload.prepare(3)
    monkeypatch.setattr(TreeMaintainer, "apply", drop_reinsert)
    run = harness.run_ops(workload, state, count=2)
    assert run.failed == 2


def test_repair_op_does_the_same_work_at_any_position():
    workload = SMALL["repair-churn"]
    state = workload.prepare(4)
    first = harness.run_ops(workload, state, count=3)
    again = [tuple(workload.counters(workload.op(state, index))) for index in (2, 0, 1)]
    assert again == [first.counters[2], first.counters[0], first.counters[1]]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_result_lines_follow_the_contract(name, monkeypatch, capsys):
    """Both passes of every op agree, so a clean run reports no failure."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(harness, "OPS", 12)
    monkeypatch.setattr(harness, "TRACED_OPS", 2)
    monkeypatch.setattr(harness, "WORKLOADS", SMALL)
    assert sorted(SMALL) == sorted(w["name"] for w in bench["workloads"])
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", name, "--seed", "2", "--seconds", "0.1"]
        assert harness.main(args + ["--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        expected = {m["name"]: m["unit"] for m in bench[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_rationale_names_every_benchmark_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rationale = harness.RATIONALE
    assert set(rationale["workloads"]) == {w["name"] for w in bench["workloads"]}
    for group in ("end_to_end", "per_layer"):
        names = {m["name"]: (m["unit"], m["better"]) for m in bench[group]}
        assert names == {k: (v["unit"], v["better"]) for k, v in rationale[group].items()}
    for spec in rationale["per_layer"].values():
        for workload, moved in spec["moves"].items():
            assert workload in rationale["workloads"]
            assert set(moved) <= set(rationale["end_to_end"])


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
