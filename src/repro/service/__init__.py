"""``repro.service`` — the simulation-as-a-service layer.

Turns :class:`repro.api.Session` into a long-running service: typed job
specs whose canonical hash is a cross-user deduplication key
(:mod:`~repro.service.jobs`), a sqlite-backed job queue with atomic claims
(:mod:`~repro.service.store`), a worker pool draining it through the
session façade (:mod:`~repro.service.worker`), a stdlib-only JSON HTTP API
(:mod:`~repro.service.http`) with its urllib client
(:mod:`~repro.service.client`), and the ``repro serve`` / ``repro jobs``
command trees (:mod:`~repro.service.cli`).

Layering: this package sits *above* :mod:`repro.api` and imports nothing
below it except the cache-backend protocol
(:mod:`repro.runner.backends`) — asserted in CI.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ServiceState, make_server
from repro.service.jobs import (JOB_KINDS, CanonicalJob, JobSpec,
                                JobSpecError, JobState, canonicalize,
                                spec_from_canonical)
from repro.service.store import JobRecord, JobStore
from repro.service.worker import Worker, WorkerPool

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "JobSpecError",
    "JobState",
    "CanonicalJob",
    "canonicalize",
    "spec_from_canonical",
    "JobRecord",
    "JobStore",
    "Worker",
    "WorkerPool",
    "ServiceState",
    "make_server",
    "ServiceClient",
    "ServiceError",
]
