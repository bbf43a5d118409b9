"""The supervised worker pool: jobs → the experiment engine → the store.

Each worker is an ``asyncio`` task in the server process; the actual runs
execute in an executor (threads by default, processes or inline for
special cases) through the engine's own payload executor,
:func:`~repro.api.engine.execute_payload`, with ``on_error="record"``, so a
runner that raises becomes a deterministic per-job error record instead of
a crashed pool (the engine failure contract tested in
``tests/api/test_engine_failures.py``).

Supervision policy:

* **deterministic failures don't retry** — a recorded algorithm error is a
  pure function of the spec; rerunning it cannot change the outcome.  The
  job goes straight to ``failed`` with the error recorded, and nothing is
  cached (a fixed bug should re-run, not replay its own crash).
* **infrastructure failures retry with backoff** — an attempt timeout or an
  executor crash sleeps ``backoff_s * 2**attempt`` and retries up to
  ``max_retries`` times before failing the job.
* **successes are stored** — the canonical result record lands in the
  content-addressed store, so the next identical submission is a cache hit.

A worker never dies with its job: every exception path ends in a terminal
job state plus a ``job_finished`` callback, which is what lets
``JobQueue.drain`` terminate.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from ..api.engine import execute_payload
from ..network.errors import AlgorithmError
from .queue import Job, JobQueue
from .store import ResultStore

__all__ = ["WorkerPool", "make_executor"]


def make_executor(kind: str, workers: int) -> Optional[Executor]:
    """An executor for ``kind``: ``thread`` / ``process`` / ``inline``.

    ``inline`` returns ``None`` — jobs then run directly on the event loop
    (deterministic and dependency-free; fine for tests and demos, wrong for
    a loaded server).  ``thread`` keeps the server responsive while the GIL
    serialises pure-Python compute; ``process`` buys real parallelism at
    the cost of per-job pickling.
    """
    if kind == "inline":
        return None
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-job")
    if kind == "process":
        return ProcessPoolExecutor(max_workers=workers)
    raise AlgorithmError(
        f"unknown executor kind {kind!r}; choose from inline, thread, process"
    )


class WorkerPool:
    """``workers`` asyncio consumers draining a :class:`JobQueue`.

    Parameters
    ----------
    queue / store:
        The shared job queue and content-addressed result store.
    workers:
        Concurrent job slots (asyncio tasks; the executor bounds true
        parallelism separately).
    executor:
        ``thread`` (default) / ``process`` / ``inline`` — see
        :func:`make_executor`.
    execute:
        The payload runner (default: the engine's
        :func:`~repro.api.engine.execute_payload`); tests inject
        failing/flaky callables here to drive the retry machinery.
    """

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        workers: int = 2,
        executor: str = "thread",
        execute: Callable[[Tuple[str, Dict[str, Any], Dict[str, Any], str]], Dict[str, Any]] = execute_payload,
    ) -> None:
        if workers < 1:
            raise AlgorithmError("the worker pool needs at least one worker")
        self.queue = queue
        self.store = store
        self.workers = workers
        self.executor_kind = executor
        self._execute = execute
        self._executor = make_executor(executor, workers)
        self._tasks: list = []
        self._running = False
        self.completed = 0
        self.failed = 0
        self.retried = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._worker_loop(index)) for index in range(self.workers)
        ]

    async def stop(self) -> None:
        """Cancel the worker tasks and shut the executor down."""
        self._running = False
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # the consumer loop
    # ------------------------------------------------------------------ #
    async def _worker_loop(self, index: int) -> None:
        while True:
            job = await self.queue.get()
            if job.finished:  # cancelled while queued
                self.queue.job_finished(job)
                continue
            try:
                await self._run_job(job)
            except asyncio.CancelledError:
                if not job.finished:
                    job.transition("failed", error="worker cancelled")
                    job.error = "worker cancelled"
                    self.failed += 1
                self.queue.job_finished(job)
                raise
            self.queue.job_finished(job)

    async def _attempt(self, job: Job) -> Dict[str, Any]:
        # Runner exceptions come back as error-result records
        # (``checks.completed == False``, ``extra.error`` set).
        payload = (job.algorithm, dict(job.spec), dict(job.options), "record")
        if self._executor is None:
            return self._execute(payload)
        loop = asyncio.get_running_loop()
        return await asyncio.wait_for(
            loop.run_in_executor(self._executor, self._execute, payload),
            timeout=job.timeout_s,
        )

    async def _run_job(self, job: Job) -> None:
        last_error = "unknown error"
        for attempt in range(job.max_retries + 1):
            job.attempts = attempt + 1
            job.transition("running", attempt=job.attempts)
            try:
                result = await self._attempt(job)
            except asyncio.TimeoutError:
                last_error = (
                    f"attempt {job.attempts} timed out after {job.timeout_s}s"
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # infrastructure failure (executor died, ...)
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                error = result.get("extra", {}).get("error")
                if error is not None:
                    # Deterministic algorithm failure: recorded, not retried,
                    # not cached.
                    job.result = result
                    job.error = error
                    job.transition("failed", error=error, deterministic=True)
                    self.failed += 1
                    return
                record = self.store.make_record(
                    key=job.key,
                    algorithm=job.algorithm,
                    spec=job.spec,
                    result=result,
                    options=job.options,
                )
                self.store.put(record)
                job.result = record["result"]
                job.transition("done", wall_time_s=result.get("wall_time_s"))
                self.completed += 1
                return
            if attempt < job.max_retries:
                self.retried += 1
                delay = job.backoff_s * (2 ** attempt)
                job.transition("retrying", error=last_error, backoff_s=round(delay, 3))
                await asyncio.sleep(delay)
        job.error = last_error
        job.transition("failed", error=last_error)
        self.failed += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "executor": self.executor_kind,
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
        }
