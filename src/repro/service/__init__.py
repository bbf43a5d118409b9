"""The experiment service: `repro serve` and everything behind it.

The platform's runs are pure functions of their specs (parallel == serial
determinism, PR 1/4), so serving them is a caching problem, not just a
compute problem.  This package turns the one-shot CLI into a long-lived
daemon:

* :mod:`~repro.service.store` — the content-addressed result store
  (sha256 of the canonical request JSON, shared with the fuzz corpus via
  :mod:`repro.api.canonical`);
* :mod:`~repro.service.queue` — the async job queue (priorities, per-job
  timeout, bounded retry with backoff, graceful drain);
* :mod:`~repro.service.worker` — the supervised pool running the engine's
  payload executor (:func:`~repro.api.engine.execute_payload`);
* :mod:`~repro.service.server` — the HTTP/JSON-lines API
  (``/submit`` ``/status`` ``/result`` ``/stream`` ``/healthz``
  ``/metrics`` ``/shutdown``);
* :mod:`~repro.service.client` / :mod:`~repro.service.loadgen` — the thin
  client and the spec-trace load-test harness (cold vs warm throughput).

>>> from repro.service import InProcessServer, ServiceClient, ServiceConfig
>>> with InProcessServer(ServiceConfig(executor="inline", workers=1)) as srv:
...     client = ServiceClient(port=srv.port)
...     entry = client.submit_spec(
...         "kkt-mst", {"nodes": 16, "density": "sparse", "seed": 1})
...     entry["result"]["checks"]["minimum"]
True
"""

from .client import ServiceClient, ServiceError
from .loadgen import (
    load_spec_trace,
    record_spec_trace,
    requests_from_jobs,
    run_load,
)
from .metrics import LatencyHistogram, Metrics
from .queue import Job, JobQueue, QueueClosed
from .server import ExperimentServer, InProcessServer, ServiceConfig, normalize_request
from .store import ResultStore, canonical_result, canonical_result_json, request_key
from .worker import WorkerPool

__all__ = [
    "ExperimentServer",
    "InProcessServer",
    "Job",
    "JobQueue",
    "LatencyHistogram",
    "Metrics",
    "QueueClosed",
    "ResultStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "WorkerPool",
    "canonical_result",
    "canonical_result_json",
    "load_spec_trace",
    "normalize_request",
    "record_spec_trace",
    "request_key",
    "requests_from_jobs",
    "run_load",
]
