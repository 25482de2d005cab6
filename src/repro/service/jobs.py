"""Typed job specifications and the job lifecycle of the service.

A :class:`JobSpec` names one unit of work a client can submit — a single
experiment run or a catalogue sweep — as plain data.  Canonicalisation
(:func:`canonicalize`) resolves it against a :class:`repro.api.Session`:
parameters validate and coerce through the experiment's typed schema (the
same ``ParamSchema`` path every other entry point uses), the seed resolves
against the session's seed policy, and the result is a deterministic
canonical payload whose hash is the *job id*.  Two submissions that mean
the same computation — ``num_windows=4`` and ``num_windows="4"``, defaults
spelled out or omitted — therefore collapse onto one job id, which is what
turns the queue into a cross-user deduplication layer: k identical submits
enqueue one job, and every requester polls the same id.

Job ids hash the code-version token too (like engine cache keys), so a
source change makes fresh work instead of serving stale artifacts.

:class:`JobState` is the lifecycle::

    queued -> running -> done
                    \\-> queued (crash/retry, bounded)  -> failed
    queued -> cancelled
    failed/cancelled -> queued (explicit resubmission)

Layering: this module (like all of :mod:`repro.service`) talks to the
engine exclusively through :mod:`repro.api`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.api import Session, code_version

#: Kinds of work a job can describe.
JOB_KINDS = ("run", "sweep")


class JobState:
    """The job lifecycle states (plain string constants, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: Every state, in lifecycle order.
    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    #: States a job never leaves on its own (resubmission may requeue
    #: ``failed``/``cancelled``; ``done`` is forever).
    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


#: Legal state transitions (see the module docstring's diagram).
_TRANSITIONS = {
    JobState.QUEUED: {JobState.RUNNING, JobState.CANCELLED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED, JobState.QUEUED},
    JobState.FAILED: {JobState.QUEUED},
    JobState.CANCELLED: {JobState.QUEUED},
    JobState.DONE: set(),
}


def can_transition(old: str, new: str) -> bool:
    """Whether ``old -> new`` is a legal lifecycle step."""
    return new in _TRANSITIONS.get(old, set())


class JobSpecError(ValueError):
    """A submission that cannot describe a valid job."""


@dataclass(frozen=True)
class JobSpec:
    """One submittable unit of work, as plain data.

    Attributes
    ----------
    kind:
        ``"run"`` (one registered experiment) or ``"sweep"`` (a catalogue
        sweep).
    name:
        Experiment registry name, or sweep catalogue name.
    params:
        Parameter overrides.  For runs these validate against the
        experiment's typed schema; for sweeps they are base-parameter
        overrides (axes cannot be overridden), exactly like
        ``repro sweep run --param``.
    seed:
        Master seed; ``None`` uses the session's seed policy at
        canonicalisation time.  Service jobs must be reproducible, so a
        resolved seed of ``None`` is rejected.
    quick:
        Sweep jobs only: select the scaled-down CI variant of the
        catalogue sweep.
    """

    kind: str
    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    quick: bool = False

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise JobSpecError(f"Unknown job kind {self.kind!r}; expected "
                               f"one of {', '.join(JOB_KINDS)}")
        if not self.name or not isinstance(self.name, str):
            raise JobSpecError("A job needs a non-empty experiment or "
                               "sweep name")
        if not isinstance(self.params, Mapping):
            raise JobSpecError(f"params must be a mapping, got "
                               f"{type(self.params).__name__}")
        if self.quick and self.kind != "sweep":
            raise JobSpecError("quick=True only applies to sweep jobs "
                               "(runs control their scale via params)")

    # -- plain-data round trip ----------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form (the HTTP submission body)."""
        return {"kind": self.kind, "name": self.name,
                "params": dict(self.params), "seed": self.seed,
                "quick": self.quick}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Build a spec from a submission payload, validating its shape."""
        if not isinstance(payload, Mapping):
            raise JobSpecError("A job submission must be a JSON object")
        unknown = sorted(set(payload) - {"kind", "name", "params", "seed",
                                         "quick"})
        if unknown:
            raise JobSpecError(f"Unknown job fields: {', '.join(unknown)}")
        seed = payload.get("seed")
        if seed is not None and (isinstance(seed, bool)
                                 or not isinstance(seed, int) or seed < 0):
            raise JobSpecError(f"seed must be a non-negative integer or "
                               f"null, got {seed!r}")
        return cls(kind=payload.get("kind", "run"),
                   name=payload.get("name", ""),
                   params=dict(payload.get("params") or {}),
                   seed=seed,
                   quick=bool(payload.get("quick", False)))


@dataclass(frozen=True)
class CanonicalJob:
    """A spec resolved against a session: identity plus canonical payload.

    ``job_id`` is the sha-256 of the canonical payload — the cross-user
    deduplication key.  ``cache_key`` is the engine's content-addressed
    result key for run jobs (``None`` for sweeps, whose points each carry
    their own engine keys).
    """

    spec: JobSpec
    job_id: str
    payload: Dict[str, Any]
    cache_key: Optional[str]


def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonicalize(session: Session, spec: JobSpec) -> CanonicalJob:
    """Resolve ``spec`` against ``session`` into its canonical identity.

    Run jobs validate and coerce parameters through the experiment's typed
    schema and resolve the seed against the session policy, so the
    canonical payload (and therefore the job id) coincides for every
    spelling of the same computation.  Sweep jobs resolve through the
    sweep catalogue; their identity is the spec hash (which already covers
    axes, base parameters — including overrides — and the sweep seed).

    Raises the same errors the engine would: unknown experiment/sweep
    names and invalid parameters fail here, at submission time, not on a
    worker.
    """
    if spec.kind == "run":
        experiment = session.experiment(spec.name)
        seed = spec.seed if spec.seed is not None else session.seed
        if seed is None:
            raise JobSpecError(
                "Service jobs must be reproducible: the spec carries no "
                "seed and the session's seed policy is None")
        cache_key = session.cache_key(spec.name, seed=seed, **spec.params)
        from repro.api import canonical_params
        resolved = canonical_params(experiment.resolve_params(spec.params))
        payload = {"kind": "run", "experiment": experiment.name,
                   "params": resolved, "seed": seed,
                   "code_version": code_version()}
        identity = payload
    else:
        sweep = session.sweep_spec(spec.name, quick=spec.quick)
        if spec.params:
            sweep = sweep.with_overrides(dict(spec.params))
        cache_key = None
        # The hashed identity covers the *resolved* spec (spec_hash already
        # reflects the overrides), so equivalent override spellings share a
        # job id; the raw overrides still ride along in the payload because
        # a worker needs them to rebuild the spec.
        identity = {"kind": "sweep", "sweep": spec.name,
                    "quick": spec.quick, "spec_hash": sweep.spec_hash(),
                    "code_version": code_version()}
        payload = dict(identity, overrides=dict(spec.params))
    job_id = hashlib.sha256(
        _canonical_json(identity).encode("utf-8")).hexdigest()
    return CanonicalJob(spec=spec, job_id=job_id, payload=payload,
                        cache_key=cache_key)


def spec_from_canonical(payload: Mapping[str, Any]) -> JobSpec:
    """Rebuild the executable :class:`JobSpec` from a *stored* canonical
    payload (the inverse a worker needs; run seeds are already resolved)."""
    if not isinstance(payload, Mapping) or "kind" not in payload:
        raise JobSpecError("Not a canonical job payload")
    if payload["kind"] == "sweep":
        return JobSpec(kind="sweep", name=payload["sweep"],
                       params=dict(payload.get("overrides") or {}),
                       quick=bool(payload.get("quick", False)))
    return JobSpec(kind="run", name=payload["experiment"],
                   params=dict(payload.get("params") or {}),
                   seed=payload.get("seed"))
