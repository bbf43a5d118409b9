"""Tests for the service CLI verbs: serve, submit, loadgen."""

import json
import threading

import pytest

from repro.cli import _parse_server, build_parser, main
from repro.network.errors import AlgorithmError
from repro.service import InProcessServer, ServiceClient, ServiceConfig


class TestParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8765
        assert args.workers == 2 and args.executor == "thread"
        assert args.store is None and args.port_file is None
        assert args.job_timeout == 300.0 and args.max_retries == 2

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "kkt-mst"])
        assert args.server == "127.0.0.1:8765"
        assert not args.no_wait and not args.json

    def test_loadgen_record_is_an_unknown_command(self):
        # `suite --record PATH` writes spec traces now.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "record", "--out", "t.jsonl"])

    def test_parse_server(self):
        assert _parse_server("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert _parse_server("http://localhost:9000") == ("localhost", 9000)
        assert _parse_server("http://localhost:9000/") == ("localhost", 9000)
        for bad in ("localhost", "host:port", ":8080"):
            with pytest.raises(AlgorithmError, match="malformed server address"):
                _parse_server(bad)


@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(executor="inline", workers=1)
    with InProcessServer(config) as server:
        yield server


class TestSubmitCommand:
    def test_submit_table_and_cache_hit(self, service, capsys):
        argv = [
            "submit", "kkt-mst", "--nodes", "18", "--density", "sparse",
            "--seed", "4", "--server", f"127.0.0.1:{service.port}",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache hit |               no" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hit |              yes" in second

    def test_submit_json_output(self, service, capsys):
        code = main([
            "submit", "kkt-mst", "--nodes", "14", "--seed", "6", "--json",
            "--server", f"127.0.0.1:{service.port}",
        ])
        assert code == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["state"] == "done"
        assert entry["result"]["checks"]["minimum"] is True

    def test_submit_scenario_flags(self, service, capsys):
        code = main([
            "submit", "kkt-repair", "--nodes", "16", "--density", "sparse",
            "--seed", "2", "--workload", "churn", "--updates", "4", "--json",
            "--server", f"127.0.0.1:{service.port}",
        ])
        assert code == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["state"] == "done"

    def test_submit_spec_file(self, service, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps({"nodes": 12, "density": "sparse", "seed": 8})
        )
        code = main([
            "submit", "ghs", "--spec-file", str(spec_file), "--json",
            "--server", f"127.0.0.1:{service.port}",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["state"] == "done"

    def test_submit_spec_file_keeps_the_option_flags(self, service, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps({"nodes": 12, "density": "sparse", "seed": 8})
        )
        code = main([
            "submit", "kkt-mst", "--spec-file", str(spec_file), "-c", "3", "--json",
            "--server", f"127.0.0.1:{service.port}",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"]["extra"]["c"] == 3.0

    def test_submit_failure_exit_code(self, service, capsys):
        spec_file_error = main([
            "submit", "kkt-mst", "--spec-file", "/nonexistent.json",
            "--server", f"127.0.0.1:{service.port}",
        ])
        assert spec_file_error != 0


#: The spec trace for kkt-mst at sizes 24 and 32 on sparse graphs with seed
#: 2015 and no workload, byte for byte.
DEFAULT_TRACE = (
    '{"algorithm": "kkt-mst", "options": {}, "spec": {"density": "sparse", '
    '"max_weight": null, "nodes": 24, "seed": 2015, "weight_model": "default"}}\n'
    '{"algorithm": "kkt-mst", "options": {}, "spec": {"density": "sparse", '
    '"max_weight": null, "nodes": 32, "seed": 2015, "weight_model": "default"}}\n'
)


def _record_suite(path, *flags):
    return main(["suite", "--record", str(path), "--workloads", "none", *flags])


class TestLoadgenCommand:
    def test_suite_record_trace_bytes(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert _record_suite(trace, "--algorithms", "kkt-mst", "--sizes", "24", "32") == 0
        assert trace.read_text() == DEFAULT_TRACE
        assert "requests |" in capsys.readouterr().out

    def test_suite_record_keeps_runner_options(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert _record_suite(trace, "--algorithms", "kkt-mst", "ghs", "--sizes", "12",
                             "-c", "3") == 0
        kkt, ghs = [json.loads(line) for line in trace.read_text().splitlines()]
        assert kkt["options"] == {"c": 3.0} and ghs["options"] == {}

    def test_recorded_trace_warms_submit(self, service, tmp_path, capsys):
        # A trace request and the same `submit` flags are one store key.
        trace = tmp_path / "trace.jsonl"
        graph = ["--density", "sparse", "--seed", "2016"]
        assert _record_suite(trace, "--algorithms", "kkt-mst", "--sizes", "22", *graph) == 0
        server = ["--server", f"127.0.0.1:{service.port}"]
        assert main(["loadgen", "run", str(trace), "--rounds", "1", "--json", *server]) == 0
        capsys.readouterr()
        assert main(["submit", "kkt-mst", "--nodes", "22", *graph, *server]) == 0
        assert "cache hit |              yes" in capsys.readouterr().out

    def test_record_then_run_in_process(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert _record_suite(
            trace, "--algorithms", "kkt-mst", "--sizes", "12", "16", "--seed", "3"
        ) == 0
        recorded = capsys.readouterr().out
        assert "requests |" in recorded
        code = main([
            "loadgen", "run", trace, "--concurrency", "2", "--rounds", "2",
            "--workers", "1", "--executor", "inline", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == 0
        assert report["rounds"][1]["cache_hits"] == 2
        assert report["warm_vs_cold_speedup"] is not None

    def test_run_against_running_server(self, service, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        _record_suite(trace, "--algorithms", "ghs", "--sizes", "12", "--seed", "31")
        capsys.readouterr()
        code = main([
            "loadgen", "run", trace, "--rounds", "2", "--json",
            "--server", f"127.0.0.1:{service.port}",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == 0


class TestServeCommand:
    def test_serve_boots_and_drains(self, tmp_path, capsys):
        # The CI smoke-job path: ephemeral port + port-file, then a client
        # submits and asks for a drained shutdown.
        port_file = tmp_path / "port"
        exit_codes = []
        thread = threading.Thread(
            target=lambda: exit_codes.append(main([
                "serve", "--port", "0", "--port-file", str(port_file),
                "--workers", "1", "--executor", "inline",
            ])),
            daemon=True,
        )
        thread.start()
        for _ in range(100):
            if port_file.exists() and port_file.read_text().strip():
                break
            thread.join(timeout=0.05)
        port = int(port_file.read_text())
        client = ServiceClient(port=port)
        client.wait_until_healthy()
        entry = client.submit_spec(
            "kkt-mst", {"nodes": 12, "density": "sparse", "seed": 9}
        )
        assert entry["state"] == "done"
        client.shutdown(drain=True)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert exit_codes == [0]
