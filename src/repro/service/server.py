"""`repro serve`: the long-lived experiment service daemon.

A stdlib-``asyncio`` HTTP/1.1 + JSON server (no third-party dependencies)
that accepts single specs and :class:`~repro.api.scenario.ExperimentSpec`
batches, runs them on the supervised :class:`~repro.service.worker.WorkerPool`
wrapping the existing engine, and answers repeat submissions from the
content-addressed :class:`~repro.service.store.ResultStore`.

Endpoints
---------
``POST /submit``
    Body: one request object ``{"algorithm", "spec", "options"?,
    "priority"?, "timeout_s"?}`` or a batch ``{"requests": [...],
    "wait": bool}``.  Every request is normalised (unseeded graph specs get
    a deterministic seed derived from their own content, so the result is a
    pure function of the submission), content-addressed, and either answered
    from the store (``cached: true``) or enqueued.  In-flight deduplication
    folds identical concurrent submissions onto one job.  With
    ``"wait": true`` the response carries the results.
``GET /status/<job_id>`` / ``GET /result/<job_id>``
    Lifecycle record / canonical result payload for one job.
``GET /stream/<job_id>``
    JSON-lines (``application/x-ndjson``) lifecycle events, streamed until
    the job is terminal — past events replay first, so late subscribers
    see the full history.
``GET /healthz`` / ``GET /metrics``
    Liveness (status, uptime, queue counts) and the full metrics payload
    (request counts, latency histograms, queue depth, cache hit-rate, job
    outcomes).
``POST /shutdown``
    ``{"drain": true}`` (default) stops accepting submissions, finishes
    every accepted job, then exits; ``{"drain": false}`` stops now.

All responses are canonical JSON (sorted keys), and a served ``result``
payload is byte-identical to the canonical form of the same spec run via
``repro run`` — wall time, the one non-deterministic field, is pinned to
``0.0`` by the store (see :mod:`repro.service.store`).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import urlsplit

from ..api.canonical import canonical_json
from ..api.engine import derive_seed, spec_from_dict
from ..api.registry import get_runner
from ..api.runners import canonical_options
from ..api.scenario import ExperimentSpec
from ..network.errors import AlgorithmError
from .metrics import Metrics
from .queue import Job, JobQueue, QueueClosed
from .store import ResultStore, request_key
from .worker import WorkerPool

__all__ = [
    "ExperimentServer",
    "InProcessServer",
    "ServiceConfig",
    "normalize_request",
]

_MAX_BODY_BYTES = 16 * 1024 * 1024
_MAX_HEADER_LINES = 100


@dataclass
class ServiceConfig:
    """Tunables for one server instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in `server.port`
    workers: int = 2
    executor: str = "thread"  # thread | process | inline
    store_path: Optional[str] = None
    base_seed: int = 2015
    default_timeout_s: Optional[float] = 300.0
    max_retries: int = 2
    backoff_s: float = 0.05


def normalize_request(
    payload: Mapping[str, Any], base_seed: int = 2015
) -> Tuple[str, Dict[str, Any], Dict[str, Any]]:
    """Validate one submit request, pin its seed and drop implied options.

    Returns ``(algorithm, spec_dict, options)`` where ``spec_dict`` is the
    canonical ``to_dict()`` rendering of the validated spec and ``options``
    leave out what cannot change the run
    (:func:`~repro.api.runners.canonical_options`), so ``--mode mst`` or
    ``--repair-batch 0`` key the same stored result as the bare request.
    An unseeded graph spec gets a seed derived from ``base_seed`` and the
    *content* of the unseeded spec (not from arrival order, unlike the batch
    engine), so the same submission always maps to the same seeded spec —
    the property the content-addressed store is built on.
    """
    if not isinstance(payload, Mapping):
        raise AlgorithmError("a submit request must be a JSON object")
    unknown = set(payload) - {
        "algorithm", "spec", "options", "priority", "timeout_s", "max_retries",
    }
    if unknown:
        raise AlgorithmError(f"unknown submit request fields: {sorted(unknown)}")
    algorithm = payload.get("algorithm")
    if not isinstance(algorithm, str) or not algorithm:
        raise AlgorithmError("a submit request needs an 'algorithm' name")
    runner = get_runner(algorithm)  # fail fast with the registry's known-names message
    spec_payload = payload.get("spec")
    if not isinstance(spec_payload, Mapping):
        raise AlgorithmError("a submit request needs a 'spec' object")
    spec = spec_from_dict(spec_payload)
    if ExperimentSpec.coerce(spec).graph.seed is None:
        seed = derive_seed(base_seed, int(spec.content_hash()[:12], 16))
        spec = spec.with_seed(seed)
    options = canonical_options(runner, spec, dict(payload.get("options") or {}))
    return algorithm, spec.to_dict(), options


class _HttpError(Exception):
    """An error with an HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class ExperimentServer:
    """The `repro serve` daemon: queue + pool + store behind HTTP."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store = ResultStore(self.config.store_path)
        self.queue = JobQueue()
        self.pool = WorkerPool(
            self.queue,
            self.store,
            workers=self.config.workers,
            executor=self.config.executor,
        )
        self.metrics = Metrics()
        self.port: Optional[int] = None
        self._ids = itertools.count(1)
        self._inflight: Dict[str, str] = {}  # key -> live job id (dedup)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped = asyncio.Event()
        self._draining = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and start the worker pool."""
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service; with ``drain`` finish every accepted job first."""
        self._draining = True
        if drain:
            await self.queue.drain(timeout)
        else:
            self.queue.close()
        await self.pool.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # submission core (shared by HTTP and in-process callers)
    # ------------------------------------------------------------------ #
    def submit_one(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Normalise, content-address and (if needed) enqueue one request.

        Returns the per-request response entry; raises
        :class:`QueueClosed` while draining.
        """
        algorithm, spec_dict, options = normalize_request(
            payload, self.config.base_seed
        )
        key = request_key(algorithm, spec_dict, options)
        record = self.store.get(key)
        if record is not None:
            return {
                "key": key,
                "job_id": None,
                "cached": True,
                "state": "done",
                "result": record["result"],
            }
        inflight_id = self._inflight.get(key)
        if inflight_id is not None:
            job = self.queue.job(inflight_id)
            if not job.finished:
                return {
                    "key": key,
                    "job_id": job.id,
                    "cached": False,
                    "deduplicated": True,
                    "state": job.state,
                }
        job = Job(
            id=f"job-{next(self._ids)}",
            algorithm=algorithm,
            spec=spec_dict,
            options=options,
            key=key,
            priority=int(payload.get("priority", 0)),
            timeout_s=payload.get("timeout_s", self.config.default_timeout_s),
            max_retries=int(payload.get("max_retries", self.config.max_retries)),
            backoff_s=self.config.backoff_s,
        )
        self.queue.put(job)
        self._inflight[key] = job.id
        return {"key": key, "job_id": job.id, "cached": False, "state": job.state}

    async def _handle_submit(self, body: Mapping[str, Any]) -> Tuple[int, Dict[str, Any]]:
        wait = bool(body.get("wait", False))
        requests = body.get("requests")
        if requests is None:  # single-request form: the body IS the request
            requests = [{k: v for k, v in body.items() if k != "wait"}]
        if not isinstance(requests, list) or not requests:
            raise _HttpError(400, "'requests' must be a non-empty list")
        entries: List[Dict[str, Any]] = []
        for raw in requests:
            try:
                entries.append(self.submit_one(raw))
            except QueueClosed as exc:
                raise _HttpError(503, str(exc)) from exc
            except AlgorithmError as exc:
                raise _HttpError(400, str(exc)) from exc
        if wait:
            pending = [e for e in entries if e["job_id"] is not None]
            await asyncio.gather(
                *(self.queue.job(entry["job_id"]).wait() for entry in pending)
            )
            for entry in pending:
                job = self.queue.job(entry["job_id"])
                entry["state"] = job.state
                entry["result"] = job.result
                if job.error is not None:
                    entry["error"] = job.error
        response = {
            "count": len(entries),
            "cache_hits": sum(1 for entry in entries if entry["cached"]),
            "jobs": entries,
        }
        return 200, response

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        route = "<parse-error>"
        status = 500
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            method, path, body = await self._read_request(reader)
            route, status, payload, stream_job = self._route(method, path, body)
            if stream_job is not None:
                status = 200
                await self._write_stream(writer, stream_job)
                return
            if payload is None:  # /submit needs the event loop
                status, payload = await self._handle_submit(body or {})
            await self._write_json(writer, status, payload)
        except _HttpError as exc:
            status = exc.status
            await self._write_json(writer, exc.status, {"error": str(exc)})
        except (ConnectionError, asyncio.IncompleteReadError):
            status = 499  # client went away; nothing to write
        except Exception as exc:  # noqa: BLE001 — the daemon must not die
            status = 500
            try:
                await self._write_json(writer, 500, {"error": f"internal error: {exc}"})
            except ConnectionError:
                pass
        finally:
            self.metrics.observe_request(route, status, loop.time() - started)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Optional[Dict[str, Any]]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many headers")
        body: Optional[Dict[str, Any]] = None
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY_BYTES:
            raise _HttpError(400, f"body too large ({length} bytes)")
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise _HttpError(400, f"invalid JSON body: {exc}") from exc
            if not isinstance(body, dict):
                raise _HttpError(400, "request body must be a JSON object")
        return method, urlsplit(target).path, body

    def _route(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[str, int, Optional[Dict[str, Any]], Optional[Job]]:
        """Dispatch; returns (route-label, status, payload, stream-job).

        A ``None`` payload with route ``/submit`` defers to the async
        submit handler; a non-``None`` stream-job switches the connection
        to JSON-lines streaming.
        """
        if path == "/healthz" and method == "GET":
            return "/healthz", 200, self._healthz(), None
        if path == "/metrics" and method == "GET":
            return "/metrics", 200, self._metrics(), None
        if path == "/submit":
            if method != "POST":
                raise _HttpError(405, "submit is POST-only")
            if body is None:
                raise _HttpError(400, "submit needs a JSON body")
            return "/submit", 0, None, None
        if path == "/shutdown":
            if method != "POST":
                raise _HttpError(405, "shutdown is POST-only")
            drain = bool((body or {}).get("drain", True))
            asyncio.get_running_loop().create_task(self.shutdown(drain=drain))
            return "/shutdown", 200, {"shutting_down": True, "drain": drain}, None
        for prefix, route in (
            ("/status/", "/status"), ("/result/", "/result"), ("/stream/", "/stream"),
        ):
            if path.startswith(prefix):
                if method != "GET":
                    raise _HttpError(405, f"{route} is GET-only")
                try:
                    job = self.queue.job(path[len(prefix):])
                except AlgorithmError as exc:
                    raise _HttpError(404, str(exc)) from None
                if route == "/status":
                    return route, 200, job.status(), None
                if route == "/stream":
                    return route, 200, None, job
                if not job.finished:
                    return route, 202, job.status(), None
                payload = {
                    "job_id": job.id, "key": job.key, "state": job.state,
                    "cached": job.cached, "result": job.result,
                }
                if job.error is not None:
                    payload["error"] = job.error
                return route, 200, payload, None
        raise _HttpError(404, f"no such endpoint: {method} {path}")

    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining or not self.queue.open else "ok",
            "uptime_s": self.metrics.uptime_s,
            "queue": self.queue.counts(),
            "queue_depth": self.queue.depth,
            "store_entries": len(self.store),
        }

    def _metrics(self) -> Dict[str, Any]:
        payload = self.metrics.to_dict()
        payload["store"] = self.store.stats()
        payload["pool"] = self.pool.stats()
        payload["queue"] = {
            "depth": self.queue.depth,
            "submitted": self.queue.submitted,
            "open": self.queue.open,
            "by_state": self.queue.counts(),
        }
        return payload

    async def _write_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Mapping[str, Any]
    ) -> None:
        body = (canonical_json(payload) + "\n").encode("utf-8")
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _write_stream(self, writer: asyncio.StreamWriter, job: Job) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        subscription = job.subscribe()
        while True:
            event = await subscription.get()
            if event is None:
                break
            writer.write((canonical_json(event) + "\n").encode("utf-8"))
            await writer.drain()


class InProcessServer:
    """A server on a background thread: the in-process deployment unit.

    Runs a fresh event loop + :class:`ExperimentServer` on a daemon thread
    and exposes the bound port — what tests, ``examples/service_demo.py``
    and ``repro loadgen run`` without ``--server`` use.  Context-manager
    style::

        with InProcessServer(ServiceConfig(executor="inline")) as server:
            client = ServiceClient(port=server.port)
            ...
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.server: Optional[ExperimentServer] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    def __enter__(self) -> "InProcessServer":
        self.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    def start(self, timeout: float = 10.0) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise AlgorithmError("in-process server failed to start in time")
        if self._failure is not None:
            raise AlgorithmError(f"in-process server failed: {self._failure}")

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = ExperimentServer(self.config)
            loop.run_until_complete(server.start())
            self.server = server
            self.port = server.port
            self._started.set()
            loop.run_until_complete(server.serve_forever())
        except BaseException as exc:  # surface startup failures to the caller
            self._failure = exc
            self._started.set()
        finally:
            loop.close()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if self._loop is None or self.server is None or not self._thread:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(drain=drain), self._loop
            )
            try:
                future.result(timeout)
            except (asyncio.CancelledError, RuntimeError):
                pass
        self._thread.join(timeout)
