"""Stdlib-only JSON HTTP API over the job store.

The frontend is a :class:`http.server.ThreadingHTTPServer` — no new
runtime dependency — whose handler closes over a :class:`ServiceState`
(session, store, optional worker pool).  Routes (all under ``/v1``):

=========================== ====================================================
``POST /v1/jobs``           Submit a job spec; canonicalisation dedups — an
                            equivalent spec returns the *same* job id with
                            ``"created": false``.
``GET /v1/jobs/{id}``       Lifecycle status (state, attempts, worker, error).
``GET /v1/jobs/{id}/result`` The stored result, byte-identical to
                            ``repro run --output json`` (run jobs) or the
                            sweep JSON artifact (sweep jobs).  409 while the
                            job is still queued/running, 500 when it failed.
``POST /v1/jobs/{id}/cancel`` Cancel a queued job (running jobs finish).
``GET /v1/jobs``            Queue listing with per-state counts.
``GET /v1/health``          Liveness + queue counts + code version.
``GET /v1/metrics``         Merged worker-pool observability counters, and
                            the finished jobs' queue wait and compute
                            seconds (count, p50, p90).
=========================== ====================================================

Submission canonicalises *before* enqueueing, so bad specs (unknown
experiment, invalid parameter, missing seed policy) fail fast with a 400
carrying the engine's own did-you-mean message — a worker never burns an
attempt on them.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.api import (ParameterValueError, Session, UnknownExperimentError,
                       UnknownParameterError, UnknownSweepError, code_version)
from repro.service.jobs import (JobSpec, JobSpecError, JobState,
                                canonicalize)
from repro.service.store import JobStore
from repro.service.worker import WorkerPool

logger = logging.getLogger(__name__)

#: Largest accepted submission body (a param mapping, not a data upload).
MAX_BODY_BYTES = 1 << 20

#: Submission errors that map to 400 (client mistake, not server fault).
#: The engine's typed errors are ValueError/KeyError subclasses
#: (ParameterValueError, JobSpecError, UnknownExperimentError, ...) — the
#: broad trio also covers malformed override shapes in sweep resolution.
_BAD_SPEC_ERRORS = (JobSpecError, UnknownExperimentError,
                    UnknownParameterError, UnknownSweepError,
                    ParameterValueError, ValueError, KeyError, TypeError)


class ServiceState:
    """Everything the HTTP handler needs, bundled for closure capture."""

    def __init__(self, session: Session, store: JobStore,
                 pool: Optional[WorkerPool] = None):
        self.session = session
        self.store = store
        self.pool = pool

    # -- operations (HTTP-independent, also used by tests) ------------------------
    def submit(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """Canonicalise and enqueue one submission payload."""
        try:
            spec = JobSpec.from_payload(payload)
            job = canonicalize(self.session, spec)
        except _BAD_SPEC_ERRORS as error:
            message = str(error)
            if isinstance(error, KeyError) and error.args:
                message = str(error.args[0])
            return 400, {"error": message}
        receipt = self.store.submit(job.job_id, job.payload,
                                    cache_key=job.cache_key)
        if self.pool is not None and receipt["state"] == JobState.QUEUED:
            self.pool.wake()
        return (201 if receipt["created"] else 200), receipt

    def status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self.store.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id}"}
        return 200, record.to_status()

    def result(self, job_id: str) -> Tuple[int, Any]:
        """(status, body); a ``str`` body is served raw (pre-rendered JSON)."""
        record = self.store.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id}"}
        if record.state == "done":
            return 200, self.store.result_text(job_id)
        if record.state == "failed":
            return 500, {"error": record.error or "job failed",
                         "job": record.to_status()}
        return 409, {"error": f"job is {record.state}; result not ready",
                     "job": record.to_status()}

    def cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self.store.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id}"}
        if self.store.cancel(job_id):
            return 200, {"job_id": job_id, "state": "cancelled"}
        return 409, {"error": f"job is {record.state}; only queued jobs "
                              "can be cancelled",
                     "job": record.to_status()}

    def listing(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"counts": self.store.counts(),
                     "jobs": [record.to_status()
                              for record in self.store.jobs()]}

    def health(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"status": "ok",
                     "code_version": code_version(),
                     "workers": len(self.pool.workers) if self.pool else 0,
                     "counts": self.store.counts()}

    def metrics(self) -> Tuple[int, Dict[str, Any]]:
        body: Dict[str, Any] = {"counts": self.store.counts()}
        if self.pool is not None:
            body.update(self.pool.metrics())
        cache = self.session.cache
        backend = getattr(cache, "backend", None)
        if backend is not None:
            body["backend"] = backend.describe()
        return 200, body


class ServiceHandler(BaseHTTPRequestHandler):
    """Route dispatch; the server instance carries the ``ServiceState``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY``: a reply is written as a header block then a body,
    #: and with Nagle on the body waits for the client's (delayed, ~40 ms)
    #: ACK of the headers on every keep-alive request.
    disable_nagle_algorithm = True

    @property
    def state(self) -> ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    # -- verbs --------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts == ["v1", "health"]:
            self._reply(*self.state.health())
        elif parts == ["v1", "metrics"]:
            self._reply(*self.state.metrics())
        elif parts == ["v1", "jobs"]:
            self._reply(*self.state.listing())
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._reply(*self.state.status(parts[2]))
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                and parts[3] == "result":
            self._reply(*self.state.result(parts[2]))
        else:
            self._reply(404, {"error": f"no route for GET {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts == ["v1", "jobs"]:
            payload, error = self._read_json()
            if error is not None:
                self._reply(400, {"error": error})
            else:
                self._reply(*self.state.submit(payload))
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                and parts[3] == "cancel":
            self._reply(*self.state.cancel(parts[2]))
        else:
            self._reply(404, {"error": f"no route for POST {self.path}"})

    # -- plumbing -----------------------------------------------------------------
    def _read_json(self) -> Tuple[Any, Optional[str]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return None, "invalid Content-Length"
        if length <= 0:
            return None, "a JSON body is required"
        if length > MAX_BODY_BYTES:
            return None, f"body exceeds {MAX_BODY_BYTES} bytes"
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, f"invalid JSON body: {error}"

    def _reply(self, status: int, body: Any) -> None:
        # Results are stored pre-rendered; serving the text unchanged is
        # what keeps fetched bytes identical to ``repro run --output json``.
        text = body if isinstance(body, str) \
            else json.dumps(body, indent=2, sort_keys=True) + "\n"
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)


class ServiceServer(ThreadingHTTPServer):
    """Threading HTTP server that owns a :class:`ServiceState`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], state: ServiceState):
        super().__init__(address, ServiceHandler)
        self.state = state


def make_server(state: ServiceState, host: str = "127.0.0.1",
                port: int = 0) -> ServiceServer:
    """Bind a service frontend; ``port=0`` picks a free port (tests)."""
    return ServiceServer((host, port), state)
