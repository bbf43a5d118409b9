"""Tests for the supervised worker pool and its retry policy."""

import asyncio
import time

import pytest

from repro.network.errors import AlgorithmError
from repro.service.queue import Job, JobQueue
from repro.service.store import ResultStore, request_key
from repro.api.engine import execute_payload
from repro.service.worker import WorkerPool, make_executor


def _ok_result(messages=10):
    """A minimal successful result payload (no ``extra.error``)."""
    return {"algorithm": "kkt-mst", "messages": messages, "wall_time_s": 0.5, "extra": {}}


def _job(job_id="j1", **fields):
    spec = {"nodes": 8, "density": "sparse", "seed": 1}
    fields.setdefault("key", request_key("kkt-mst", spec, {}))
    return Job(id=job_id, algorithm="kkt-mst", spec=spec, **fields)


async def _run_one(job, execute, executor="inline", workers=1):
    queue = JobQueue()
    store = ResultStore()
    pool = WorkerPool(queue, store, workers=workers, executor=executor, execute=execute)
    queue.put(job)
    pool.start()
    try:
        await asyncio.wait_for(job.wait(), timeout=10)
        await queue.drain(timeout=10)
    finally:
        await pool.stop()
    return pool, store


class TestSuccessPath:
    def test_result_stored_and_job_done(self):
        async def case():
            job = _job()
            pool, store = await _run_one(job, lambda payload: _ok_result())
            assert job.state == "done" and job.attempts == 1
            assert job.result["wall_time_s"] == 0.0  # canonical in job + store
            record = store.get(job.key)
            assert record["result"] == job.result
            assert record["wall_time_s"] == 0.5  # measured time kept as metadata
            assert pool.completed == 1 and pool.failed == 0 and pool.retried == 0

        asyncio.run(case())

    def test_execute_payload_runs_the_real_engine(self):
        payload = ("kkt-mst", {"nodes": 12, "density": "sparse", "seed": 3}, {}, "record")
        result = execute_payload(payload)
        assert result["checks"] == {"spanning": True, "minimum": True}

    def test_execute_payload_records_runner_errors(self):
        payload = ("kkt-mst", {"nodes": 12, "seed": 3}, {"phase_policy": "whenever"}, "record")
        result = execute_payload(payload)
        assert result["extra"]["error"]
        assert result["checks"] == {"completed": False}


class TestDeterministicFailure:
    def test_not_retried_not_cached(self):
        calls = []

        def failing(payload):
            calls.append(payload)
            return {"extra": {"error": "bad spec"}, "wall_time_s": 0.0}

        async def case():
            job = _job(max_retries=3)
            pool, store = await _run_one(job, failing)
            assert job.state == "failed" and job.error == "bad spec"
            assert len(calls) == 1  # a pure function's failure never retries
            assert pool.retried == 0 and pool.failed == 1
            assert not store.contains(job.key)  # crashes are not cached
            assert any(
                event.get("deterministic") for event in job.events
            )

        asyncio.run(case())


class TestInfrastructureFailure:
    def test_retries_with_backoff_then_succeeds(self):
        attempts = []

        def flaky(payload):
            attempts.append(time.monotonic())
            if len(attempts) < 3:
                raise OSError("executor hiccup")
            return _ok_result()

        async def case():
            job = _job(max_retries=3, backoff_s=0.01)
            pool, store = await _run_one(job, flaky)
            assert job.state == "done" and job.attempts == 3
            assert pool.retried == 2 and pool.completed == 1
            retry_events = [e for e in job.events if e["state"] == "retrying"]
            # Exponential backoff: 0.01 * 2**0, then 0.01 * 2**1.
            assert [e["backoff_s"] for e in retry_events] == [0.01, 0.02]
            assert store.contains(job.key)

        asyncio.run(case())

    def test_budget_exhausted_fails_with_last_error(self):
        def always_down(payload):
            raise OSError("still down")

        async def case():
            job = _job(max_retries=2, backoff_s=0.001)
            pool, _ = await _run_one(job, always_down)
            assert job.state == "failed" and job.attempts == 3
            assert "still down" in job.error
            assert pool.retried == 2 and pool.failed == 1

        asyncio.run(case())

    def test_attempt_timeout_is_an_infra_failure(self):
        def slow(payload):
            time.sleep(0.5)
            return _ok_result()

        async def case():
            job = _job(timeout_s=0.05, max_retries=0)
            pool, _ = await _run_one(job, slow, executor="thread")
            assert job.state == "failed"
            assert "timed out" in job.error
            assert pool.failed == 1

        asyncio.run(case())


class TestExecutors:
    def test_make_executor_kinds(self):
        assert make_executor("inline", 2) is None
        thread = make_executor("thread", 2)
        try:
            assert thread.submit(lambda: 41 + 1).result() == 42
        finally:
            thread.shutdown()
        with pytest.raises(AlgorithmError, match="unknown executor"):
            make_executor("fiber", 2)

    def test_pool_rejects_zero_workers(self):
        async def case():
            with pytest.raises(AlgorithmError, match="at least one worker"):
                WorkerPool(JobQueue(), ResultStore(), workers=0)

        asyncio.run(case())

    def test_many_jobs_across_workers(self):
        async def case():
            queue = JobQueue()
            store = ResultStore()
            pool = WorkerPool(
                queue, store, workers=3, executor="inline",
                execute=lambda payload: _ok_result(),
            )
            jobs = [_job(f"j{i}", key=f"{i:064x}") for i in range(8)]
            for job in jobs:
                queue.put(job)
            pool.start()
            try:
                await asyncio.wait_for(queue.drain(), timeout=10)
            finally:
                await pool.stop()
            assert all(job.state == "done" for job in jobs)
            assert pool.completed == 8

        asyncio.run(case())
