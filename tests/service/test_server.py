"""End-to-end tests for the experiment server and HTTP API.

These drive a real :class:`InProcessServer` (background thread, real
sockets on an ephemeral port) through the real :class:`ServiceClient` —
the same path ``repro submit`` and the CI smoke job take.  The inline
executor keeps runs on the event loop so the tests are fast and
deterministic.
"""

import asyncio

import pytest

from repro.api import GraphSpec, run
from repro.api.canonical import canonical_json
from repro.network.errors import AlgorithmError
from repro.service import (
    ExperimentServer,
    InProcessServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    canonical_result_json,
    normalize_request,
)
from repro.service.store import request_key

SPEC = {"nodes": 20, "density": "sparse", "seed": 11}


@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(executor="inline", workers=1, backoff_s=0.01)
    with InProcessServer(config) as server:
        yield server, ServiceClient(port=server.port)


class TestNormalizeRequest:
    def test_unknown_fields_rejected(self):
        with pytest.raises(AlgorithmError, match="unknown submit request fields"):
            normalize_request({"algorithm": "kkt-mst", "spec": SPEC, "nodes": 8})

    def test_missing_algorithm_and_spec(self):
        with pytest.raises(AlgorithmError, match="'algorithm'"):
            normalize_request({"spec": SPEC})
        with pytest.raises(AlgorithmError, match="'spec'"):
            normalize_request({"algorithm": "kkt-mst"})

    def test_unknown_algorithm_fails_fast(self):
        with pytest.raises(AlgorithmError, match="kkt-mst"):  # known names listed
            normalize_request({"algorithm": "bogus", "spec": SPEC})

    def test_seeded_spec_passes_through(self):
        _, spec_dict, _ = normalize_request({"algorithm": "kkt-mst", "spec": SPEC})
        assert spec_dict == GraphSpec(**SPEC).to_dict()

    def test_unseeded_spec_gets_content_derived_seed(self):
        request = {"algorithm": "kkt-mst", "spec": {"nodes": 20, "density": "sparse"}}
        _, first, _ = normalize_request(request)
        _, again, _ = normalize_request(request)
        assert first["seed"] is not None
        assert first == again  # same content, same seed — always
        _, other, _ = normalize_request(
            {"algorithm": "kkt-mst", "spec": {"nodes": 24, "density": "sparse"}}
        )
        assert other["seed"] != first["seed"]  # distinct content, distinct seed

    def test_scenario_spec_normalised(self):
        payload = {
            "algorithm": "kkt-repair",
            "spec": {
                "graph": {"nodes": 16, "density": "sparse"},
                "workload": {"name": "churn", "updates": 4},
            },
        }
        _, spec_dict, _ = normalize_request(payload)
        assert spec_dict["graph"]["seed"] is not None
        assert spec_dict["workload"]["name"] == "churn"


class TestImpliedOptions:
    """Spelling out what a runner does anyway keys the same stored result."""

    SPEC = {"nodes": 16, "density": "sparse", "seed": 2015}

    @pytest.mark.parametrize("algorithm", ["kkt-repair", "recompute-repair"])
    def test_default_mode_and_sequential_batch_key_like_the_bare_request(self, algorithm):
        spellings = [{}, {"mode": "mst"}, {"repair_batch": 1}]
        keys = set()
        results = set()
        for options in spellings:
            normalized = normalize_request(
                {"algorithm": algorithm, "spec": self.SPEC, "options": options}
            )
            assert normalized[2] == {}
            keys.add(request_key(*normalized))
            record = run(algorithm, GraphSpec(**self.SPEC), **options).to_dict()
            record.pop("wall_time_s")
            results.add(canonical_json(record))
        assert len(keys) == 1
        assert len(results) == 1

    def test_other_options_are_kept(self):
        request = {
            "algorithm": "kkt-repair",
            "spec": self.SPEC,
            "options": {"mode": "st", "updates": 4, "bogus": 1},
        }
        assert normalize_request(request)[2] == {"mode": "st", "updates": 4, "bogus": 1}


class TestSubmitAndCache:
    def test_cold_then_warm(self, service):
        _, client = service
        cold = client.submit_spec("kkt-mst", SPEC)
        assert cold["state"] == "done" and not cold["cached"]
        assert cold["result"]["checks"] == {"spanning": True, "minimum": True}
        warm = client.submit_spec("kkt-mst", SPEC)
        assert warm["cached"] and warm["job_id"] is None
        assert warm["result"] == cold["result"]

    def test_served_result_byte_identical_to_local_run(self, service):
        # The acceptance criterion: canonical JSON over HTTP == canonical
        # JSON of the same spec run locally through the run() facade.
        _, client = service
        entry = client.submit_spec("kkt-mst", SPEC)
        local = run("kkt-mst", GraphSpec(**SPEC))
        assert canonical_json(entry["result"]) == canonical_result_json(
            local.to_dict()
        )

    def test_batch_resubmission_all_cache_hits(self, service):
        _, client = service
        batch = [
            {"algorithm": name, "spec": {"nodes": n, "density": "sparse", "seed": 3}}
            for name in ("kkt-mst", "ghs")
            for n in (12, 16)
        ]
        first = client.submit(batch, wait=True)
        assert first["count"] == 4
        assert all(e["state"] == "done" for e in first["jobs"])
        second = client.submit(batch, wait=True)
        assert second["cache_hits"] == 4  # answered entirely from the store
        assert [e["result"] for e in second["jobs"]] == [
            e["result"] for e in first["jobs"]
        ]

    def test_deterministic_failure_reported_not_cached(self, service):
        _, client = service
        request = {
            "algorithm": "kkt-mst",
            "spec": SPEC,
            "options": {"c": 0.5},
        }
        entry = client.submit([request], wait=True)["jobs"][0]
        assert entry["state"] == "failed"
        assert "c >= 1" in entry["error"]
        # A failure is never cached: resubmitting runs (and fails) again.
        again = client.submit([request], wait=True)["jobs"][0]
        assert not again["cached"] and again["state"] == "failed"

    def test_bad_requests_are_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit([{"algorithm": "bogus", "spec": SPEC}])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit([{"algorithm": "kkt-mst"}])
        assert excinfo.value.status == 400


class TestJobEndpoints:
    def test_status_result_stream(self, service):
        _, client = service
        spec = {"nodes": 14, "density": "sparse", "seed": 21}
        entry = client.submit_spec("kkt-mst", spec)
        job_id = entry["job_id"]
        status = client.status(job_id)
        assert status["state"] == "done" and status["attempts"] == 1
        assert [e["state"] for e in status["events"]][:2] == ["pending", "queued"]
        result = client.result(job_id)
        assert result["result"] == entry["result"]
        events = list(client.stream(job_id))
        assert [e["state"] for e in events] == [
            "pending", "queued", "running", "done",
        ]

    def test_unknown_job_is_404(self, service):
        _, client = service
        for method in (client.status, client.result):
            with pytest.raises(ServiceError) as excinfo:
                method("job-999999")
            assert excinfo.value.status == 404

    def test_unknown_endpoint_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404


class TestObservability:
    def test_healthz(self, service):
        _, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["store_entries"] >= 1

    def test_metrics_shape(self, service):
        _, client = service
        client.submit_spec("kkt-mst", SPEC)  # guaranteed warm by now
        metrics = client.metrics()
        assert metrics["requests_by_route"]["/submit"] >= 1
        assert metrics["responses_by_class"]["2xx"] >= 1
        assert metrics["store"]["hits"] >= 1
        assert 0.0 < metrics["store"]["hit_rate"] <= 1.0
        assert metrics["pool"]["completed"] >= 1
        assert metrics["queue"]["open"] is True
        submit_latency = metrics["latency_by_route"]["/submit"]
        assert submit_latency["count"] >= 1
        assert submit_latency["buckets"]["le_inf"] == submit_latency["count"]


class TestDedupAndDrain:
    """Direct (no-HTTP) server tests for timing-sensitive behaviour."""

    def test_inflight_dedup_folds_identical_submissions(self):
        async def case():
            server = ExperimentServer(ServiceConfig(executor="inline"))
            # The pool is never started, so the job stays queued and the
            # second identical submission must fold onto it.
            request = {"algorithm": "kkt-mst", "spec": SPEC}
            first = server.submit_one(request)
            second = server.submit_one(request)
            assert first["job_id"] == second["job_id"]
            assert second.get("deduplicated") is True

        asyncio.run(case())

    def test_draining_rejects_new_submissions(self):
        async def case():
            server = ExperimentServer(ServiceConfig(executor="inline"))
            server.queue.close()
            status, _ = 0, None
            with pytest.raises(Exception) as excinfo:
                await server._handle_submit(
                    {"algorithm": "kkt-mst", "spec": SPEC}
                )
            assert getattr(excinfo.value, "status", None) == 503

        asyncio.run(case())

    def test_graceful_shutdown_finishes_queued_jobs(self):
        # Shutdown mid-queue: every accepted job still reaches a terminal
        # state before the server stops (the drain contract).
        config = ServiceConfig(executor="inline", workers=1)
        with InProcessServer(config) as inprocess:
            client = ServiceClient(port=inprocess.port)
            entries = [
                client.submit_spec(
                    "kkt-mst",
                    {"nodes": 18, "density": "sparse", "seed": 100 + i},
                    wait=False,
                )
                for i in range(4)
            ]
            response = client.shutdown(drain=True)
            assert response["shutting_down"] is True
            inprocess._thread.join(timeout=30)
            assert not inprocess._thread.is_alive()
            server = inprocess.server
            jobs = [server.queue.job(e["job_id"]) for e in entries if e["job_id"]]
            assert jobs and all(job.state == "done" for job in jobs)
            assert len(server.store) >= len(jobs)
