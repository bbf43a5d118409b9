"""Tests for the spec-trace load-test harness."""

import json

import pytest

from repro.api import ExperimentJob, GraphSpec, WorkloadSpec, scenario_grid
from repro.network.errors import AlgorithmError
from repro.service import (
    InProcessServer,
    ServiceClient,
    ServiceConfig,
    load_spec_trace,
    record_spec_trace,
    requests_from_jobs,
    run_load,
)


def grid_requests(algorithms, sizes, seed=2015, **axes):
    graphs = [GraphSpec(nodes=size, density="sparse", seed=seed) for size in sizes]
    return requests_from_jobs(scenario_grid(algorithms, graphs, **axes))


class TestRequestsFromJobs:
    def test_mix_covers_algorithms_times_sizes(self):
        requests = grid_requests(["kkt-mst", "ghs"], [16, 24], seed=5)
        assert len(requests) == 4
        assert {r["algorithm"] for r in requests} == {"kkt-mst", "ghs"}
        assert {r["spec"]["nodes"] for r in requests} == {16, 24}
        assert all(r["spec"]["seed"] == 5 for r in requests)

    def test_workload_axis_multiplies_the_mix(self):
        plain = grid_requests(["kkt-repair"], [16], workloads=(None,))
        mixed = grid_requests(
            ["kkt-repair"], [16], workloads=(None, "churn"), updates=4
        )
        assert len(mixed) == 2 * len(plain)
        churn = [r for r in mixed if "graph" in r["spec"]]
        assert churn and churn[0]["spec"]["workload"]["name"] == "churn"

    def test_trace_file_joins_as_trace_replay_workload(self):
        replay = WorkloadSpec(name="trace-replay", params={"path": "updates.jsonl"})
        requests = grid_requests(["kkt-repair"], [16], workloads=(None, replay))
        replay = [
            r for r in requests
            if "graph" in r["spec"]
            and r["spec"]["workload"]["name"] == "trace-replay"
        ]
        assert replay
        assert replay[0]["spec"]["workload"]["params"]["path"] == "updates.jsonl"

    def test_job_options_and_plain_graph_specs(self):
        # Scenario-free specs flatten to the bare graph payload `submit`
        # sends, and each request keeps its own job's options.
        graph = GraphSpec(nodes=12, density="sparse", seed=1)
        (request,) = requests_from_jobs([ExperimentJob("kkt-mst", graph, {"c": 3.0})])
        assert request == {
            "algorithm": "kkt-mst", "spec": graph.to_dict(), "options": {"c": 3.0},
        }


class TestTraceFiles:
    def test_record_load_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        requests = grid_requests(["kkt-mst"], [16, 24], seed=2)
        assert record_spec_trace(path, requests) == path
        loaded = load_spec_trace(path)
        assert loaded == [json.loads(json.dumps(r, sort_keys=True)) for r in requests]

    def test_refuses_empty_recording(self, tmp_path):
        with pytest.raises(AlgorithmError, match="empty spec trace"):
            record_spec_trace(str(tmp_path / "t.jsonl"), [])

    def test_missing_file(self, tmp_path):
        with pytest.raises(AlgorithmError, match="not found"):
            load_spec_trace(str(tmp_path / "nope.jsonl"))

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"algorithm": "kkt-mst", "spec": {}}\n{broken\n')
        with pytest.raises(AlgorithmError, match="line 2"):
            load_spec_trace(str(path))

    def test_non_request_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"spec": {}}\n')
        with pytest.raises(AlgorithmError, match="not a submit request"):
            load_spec_trace(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(AlgorithmError, match="is empty"):
            load_spec_trace(str(path))


class TestRunLoad:
    def test_cold_then_warm_rounds(self):
        requests = grid_requests(["kkt-mst", "ghs"], [12, 16], seed=9)
        config = ServiceConfig(executor="inline", workers=1)
        lines = []
        with InProcessServer(config) as server:
            report = run_load(
                ServiceClient(port=server.port),
                requests,
                concurrency=2,
                rounds=2,
                progress=lines.append,
            )
        cold, warm = report["rounds"]
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == len(requests)  # second pass fully cached
        assert report["errors"] == 0
        assert report["warm_vs_cold_speedup"] is not None
        assert len(lines) == 2 and "round 0" in lines[0]

    def test_single_round_has_no_speedup(self):
        requests = grid_requests(["kkt-mst"], [12], seed=9)
        with InProcessServer(ServiceConfig(executor="inline", workers=1)) as server:
            report = run_load(
                ServiceClient(port=server.port), requests, concurrency=1, rounds=1
            )
        assert report["warm_vs_cold_speedup"] is None

    def test_request_failures_counted_not_raised(self):
        requests = [
            {"algorithm": "bogus", "spec": {"nodes": 8, "seed": 1}},
            {"algorithm": "kkt-mst", "spec": {"nodes": 8, "seed": 1}},
        ]
        with InProcessServer(ServiceConfig(executor="inline", workers=1)) as server:
            report = run_load(
                ServiceClient(port=server.port), requests, concurrency=1, rounds=1
            )
        assert report["errors"] == 1  # the bad request, not an exception

    def test_parameter_validation(self):
        client = ServiceClient(port=1)
        with pytest.raises(AlgorithmError, match="concurrent"):
            run_load(client, [{}], concurrency=0)
        with pytest.raises(AlgorithmError, match="round"):
            run_load(client, [{}], rounds=0)
