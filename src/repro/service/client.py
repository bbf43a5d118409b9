"""A thin, dependency-free client for the experiment service.

Blocking (``http.client``), one connection per call — deliberately boring,
because the load generator spins many of these across threads and the test
suite drives every endpoint through it.  JSON in, JSON out; non-2xx
responses raise :class:`ServiceError` carrying the server's error message.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence

from ..network.errors import AlgorithmError

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(AlgorithmError):
    """A non-2xx service response (``status`` carries the HTTP code)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talk to a running ``repro serve`` daemon."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8765, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _request(
        self, method: str, path: str, body: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read().decode("utf-8")
        finally:
            connection.close()
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(
                response.status, f"non-JSON response from {path}: {exc}"
            ) from exc
        if response.status >= 400:
            raise ServiceError(
                response.status, decoded.get("error", f"HTTP {response.status}")
            )
        decoded["_status"] = response.status
        return decoded

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def submit(
        self,
        requests: Sequence[Mapping[str, Any]],
        wait: bool = True,
    ) -> Dict[str, Any]:
        """Submit a batch; with ``wait`` the response carries the results."""
        return self._request(
            "POST", "/submit", {"requests": [dict(r) for r in requests], "wait": wait}
        )

    def submit_spec(
        self,
        algorithm: str,
        spec: Mapping[str, Any],
        options: Optional[Mapping[str, Any]] = None,
        wait: bool = True,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Submit one request; returns its response entry (not the batch)."""
        request: Dict[str, Any] = {"algorithm": algorithm, "spec": dict(spec)}
        if options:
            request["options"] = dict(options)
        request.update(fields)
        response = self.submit([request], wait=wait)
        return response["jobs"][0]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/status/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/result/{job_id}")

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield the job's lifecycle events (JSON lines) until terminal."""
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request("GET", f"/stream/{job_id}")
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read().decode("utf-8")
                try:
                    message = json.loads(raw).get("error", raw)
                except json.JSONDecodeError:
                    message = raw
                raise ServiceError(response.status, message)
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self._request("POST", "/shutdown", {"drain": drain})

    def wait_until_healthy(self, attempts: int = 50, delay: float = 0.1) -> Dict[str, Any]:
        """Poll ``/healthz`` until the server answers (startup helper)."""
        import time

        last: Optional[Exception] = None
        for _ in range(attempts):
            try:
                return self.healthz()
            except (OSError, ServiceError) as exc:
                last = exc
                time.sleep(delay)
        raise ServiceError(503, f"service at {self.host}:{self.port} never came up: {last}")
