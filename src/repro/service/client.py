"""Thin urllib client of the service HTTP API.

:class:`ServiceClient` is what the ``repro jobs`` CLI subcommands and the
tests use — stdlib only, one method per route, JSON in/out.  Result
fetches return the raw response *text* untouched, preserving the
byte-identity contract with ``repro run --output json``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.service.jobs import JobState


class ServiceError(RuntimeError):
    """An HTTP error reply from the service, decoded."""

    def __init__(self, status: int, message: str,
                 body: Optional[Dict[str, Any]] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.body = body or {}


class ServiceClient:
    """One service endpoint (``http://host:port``), stdlib transport."""

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- transport ----------------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Any = None) -> str:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self.base_url + path, data=data,
                                         headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as reply:
                return reply.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            with error:  # an unread, unclosed error reply leaks its socket
                text = error.read().decode("utf-8", errors="replace")
            try:
                body = json.loads(text)
            except json.JSONDecodeError:
                body = {"error": text.strip() or error.reason}
            raise ServiceError(error.code,
                               body.get("error", error.reason),
                               body) from None

    def _json(self, method: str, path: str, payload: Any = None
              ) -> Dict[str, Any]:
        return json.loads(self._request(method, path, payload))

    # -- routes -------------------------------------------------------------------
    def submit(self, spec_payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/jobs`` — returns the submission receipt."""
        return self._json("POST", "/v1/jobs", spec_payload)

    def status(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}``."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def result_text(self, job_id: str) -> str:
        """``GET /v1/jobs/{id}/result`` — the raw stored JSON text."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``POST /v1/jobs/{id}/cancel``."""
        return self._json("POST", f"/v1/jobs/{job_id}/cancel")

    def jobs(self) -> Dict[str, Any]:
        """``GET /v1/jobs`` — queue listing plus per-state counts."""
        return self._json("GET", "/v1/jobs")

    def health(self) -> Dict[str, Any]:
        """``GET /v1/health``."""
        return self._json("GET", "/v1/health")

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics``."""
        return self._json("GET", "/v1/metrics")

    # -- convenience --------------------------------------------------------------
    def wait(self, job_id: str, *, timeout_s: float = 300.0,
             poll_interval_s: float = 0.2) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state (or raise on timeout)."""
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status["state"] in JobState.TERMINAL:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout_s:g}s")
            time.sleep(poll_interval_s)
