"""The load-test harness: record a spec trace, replay it at concurrency.

``repro suite --record PATH`` writes a *spec trace*: a JSON-lines file with
one submit request per line (``{"algorithm", "spec", "options"}``), one per
job of the suite's :func:`~repro.api.engine.scenario_grid` grid (see
:func:`requests_from_jobs`) — so a trace is a reproducible workload mix, not
a one-off script.  A recorded :class:`~repro.dynamic.trace.UpdateTrace`
(from ``repro trace record``) plugs in as a ``trace-replay`` workload, so
real dynamic-update sessions can be replayed against the service too.

``repro loadgen run`` replays a trace at configurable concurrency for
``rounds`` passes and reports per-round throughput.  Against a fresh store
the first round is *cold* (every request runs) and later rounds are *warm*
(every request is answered from the content-addressed store), so the
``warm_vs_cold_speedup`` figure is the measured value of result caching.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..api.engine import ExperimentJob
from ..api.scenario import ExperimentSpec
from ..network.errors import AlgorithmError
from .client import ServiceClient, ServiceError

__all__ = [
    "load_spec_trace",
    "record_spec_trace",
    "requests_from_jobs",
    "run_load",
]


def requests_from_jobs(jobs: Sequence[ExperimentJob]) -> List[Dict[str, Any]]:
    """One submit request per experiment job, in job order."""
    return [
        {
            "algorithm": job.algorithm,
            "spec": _spec_payload(job.spec),
            "options": dict(job.options),
        }
        for job in jobs
    ]


def _spec_payload(spec: Any) -> Dict[str, Any]:
    """Flatten a scenario-free ExperimentSpec to its bare graph payload.

    The grid wraps every graph in an :class:`ExperimentSpec`; unwrapping
    the trivial ones keeps trace entries content-identical to the plain
    ``repro submit`` form, so a trace warms the same store keys.
    """
    if (
        isinstance(spec, ExperimentSpec)
        and spec.workload is None
        and spec.schedule is None
        and spec.faults is None
    ):
        return spec.graph.to_dict()
    return spec.to_dict()


def record_spec_trace(path: str, requests: Sequence[Mapping[str, Any]]) -> str:
    """Write ``requests`` as a JSON-lines spec trace; returns the path."""
    if not requests:
        raise AlgorithmError("refusing to record an empty spec trace")
    with open(path, "w", encoding="utf-8") as handle:
        for request in requests:
            handle.write(json.dumps(request, sort_keys=True) + "\n")
    return path


def load_spec_trace(path: str) -> List[Dict[str, Any]]:
    """Read a spec trace, with the CLI error contract on bad files."""
    requests: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for index, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise AlgorithmError(
                        f"invalid spec trace {path} (line {index}): {exc}"
                    ) from exc
                if not isinstance(request, dict) or "algorithm" not in request:
                    raise AlgorithmError(
                        f"spec trace {path} line {index} is not a submit request"
                    )
                requests.append(request)
    except FileNotFoundError:
        raise AlgorithmError(f"spec trace not found: {path}") from None
    if not requests:
        raise AlgorithmError(f"spec trace {path} is empty")
    return requests


def run_load(
    client: ServiceClient,
    requests: Sequence[Mapping[str, Any]],
    concurrency: int = 4,
    rounds: int = 2,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Replay ``requests`` against the service ``rounds`` times.

    Each round pushes every request through a thread pool of ``concurrency``
    blocking clients (one HTTP submit with ``wait=true`` per request — the
    per-request cost a real caller pays).  Returns the throughput report;
    request failures are counted per round, never raised, so a load test
    cannot die halfway.
    """
    if concurrency < 1:
        raise AlgorithmError("loadgen needs at least one concurrent client")
    if rounds < 1:
        raise AlgorithmError("loadgen needs at least one round")

    def one_request(request: Mapping[str, Any]) -> Dict[str, Any]:
        try:
            entry = client.submit([request], wait=True)["jobs"][0]
            return {
                "cached": bool(entry.get("cached")),
                "error": entry.get("error"),
            }
        except (ServiceError, OSError) as exc:
            return {"cached": False, "error": str(exc)}

    round_reports: List[Dict[str, Any]] = []
    for round_index in range(rounds):
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            outcomes = list(pool.map(one_request, requests))
        wall_s = time.perf_counter() - started
        report = {
            "round": round_index,
            "requests": len(outcomes),
            "wall_s": round(wall_s, 4),
            "rps": round(len(outcomes) / max(wall_s, 1e-9), 2),
            "cache_hits": sum(1 for outcome in outcomes if outcome["cached"]),
            "errors": sum(1 for outcome in outcomes if outcome["error"] is not None),
        }
        round_reports.append(report)
        if progress is not None:
            progress(
                f"round {round_index}: {report['requests']} requests in "
                f"{report['wall_s']}s ({report['rps']} rps, "
                f"{report['cache_hits']} cache hits, {report['errors']} errors)"
            )
    cold = round_reports[0]
    warm = round_reports[-1]
    return {
        "concurrency": concurrency,
        "rounds": round_reports,
        "cold_rps": cold["rps"],
        "warm_rps": warm["rps"],
        "warm_vs_cold_speedup": (
            round(warm["rps"] / max(cold["rps"], 1e-9), 2) if rounds > 1 else None
        ),
        "errors": sum(report["errors"] for report in round_reports),
    }
