"""Tests of job specs and canonical identity."""

import pytest

from repro.api import Session
from repro.service import (JOB_KINDS, JobSpec, JobSpecError, canonicalize,
                           spec_from_canonical)


@pytest.fixture()
def session(tmp_path):
    return Session(cache_dir=tmp_path / "cache")


class TestJobSpec:
    def test_kinds(self):
        assert JOB_KINDS == ("run", "sweep")

    def test_rejects_unknown_kind(self):
        with pytest.raises(JobSpecError, match="Unknown job kind"):
            JobSpec(kind="batch", name="x")

    def test_rejects_empty_name(self):
        with pytest.raises(JobSpecError, match="non-empty"):
            JobSpec(kind="run", name="")

    def test_rejects_quick_on_runs(self):
        with pytest.raises(JobSpecError, match="quick"):
            JobSpec(kind="run", name="fig3_radio", quick=True)

    def test_from_payload(self):
        spec = JobSpec(kind="sweep", name="node_density",
                       params={"a": 1}, quick=True)
        assert JobSpec.from_payload({"kind": "sweep", "name": "node_density",
                                     "params": {"a": 1}, "seed": None,
                                     "quick": True}) == spec

    def test_from_payload_rejects_unknown_fields(self):
        with pytest.raises(JobSpecError, match="Unknown job fields: priority"):
            JobSpec.from_payload({"kind": "run", "name": "fig3_radio",
                                  "priority": 9})

    def test_from_payload_rejects_non_integer_seed(self):
        with pytest.raises(JobSpecError, match="seed"):
            JobSpec.from_payload({"kind": "run", "name": "fig3_radio",
                                  "seed": "7"})

    @pytest.mark.parametrize("seed", [-1, True, False])
    def test_from_payload_rejects_negative_and_boolean_seeds(self, seed):
        """``true`` would run seed 1 under a second job id; ``-1`` used to
        queue and then fail in the worker."""
        with pytest.raises(JobSpecError, match="non-negative integer"):
            JobSpec.from_payload({"kind": "run", "name": "fig3_radio",
                                  "seed": seed})

    def test_from_payload_rejects_non_object(self):
        with pytest.raises(JobSpecError, match="JSON object"):
            JobSpec.from_payload(["run"])

    @pytest.mark.parametrize("seed", [None, 0, 5, 2**64, -1, True, False,
                                      1.5, "7"])
    def test_from_payload_admits_exactly_the_engines_seeds(self, seed):
        """The service seam keeps its own copy of the seed predicate (it
        imports only the façade); it must agree with the engine's."""
        from repro.runner.engine import validate_seed
        try:
            validate_seed(seed)
        except ValueError:
            engine_admits = False
        else:
            engine_admits = True
        try:
            spec = JobSpec.from_payload({"kind": "run", "name": "fig3_radio",
                                         "seed": seed})
        except JobSpecError:
            service_admits = False
        else:
            service_admits = True
            assert spec.seed == seed
        assert service_admits is engine_admits


class TestCanonicalize:
    def test_equivalent_spellings_share_one_job_id(self, session):
        base = canonicalize(session, JobSpec(
            kind="run", name="fig6_csma", params={"num_windows": 4}, seed=5))
        coerced = canonicalize(session, JobSpec(
            kind="run", name="fig6_csma", params={"num_windows": "4"},
            seed=5))
        assert base.job_id == coerced.job_id
        assert base.cache_key == coerced.cache_key

    def test_defaults_spelled_out_share_the_id(self, session):
        spec = session.experiment("fig3_radio")
        defaults = {param.name: param.default for param in spec.schema}
        implicit = canonicalize(session,
                                JobSpec(kind="run", name="fig3_radio",
                                        seed=5))
        explicit = canonicalize(session,
                                JobSpec(kind="run", name="fig3_radio",
                                        params=defaults, seed=5))
        assert implicit.job_id == explicit.job_id

    def test_seed_separates_jobs(self, session):
        one = canonicalize(session, JobSpec(kind="run", name="fig3_radio",
                                            seed=1))
        two = canonicalize(session, JobSpec(kind="run", name="fig3_radio",
                                            seed=2))
        assert one.job_id != two.job_id

    def test_run_cache_key_matches_the_sessions(self, session):
        job = canonicalize(session, JobSpec(
            kind="run", name="fig6_csma", params={"num_windows": 4}, seed=5))
        assert job.cache_key == session.cache_key("fig6_csma", seed=5,
                                                  num_windows=4)

    def test_seedless_spec_uses_the_session_policy(self, session):
        job = canonicalize(session, JobSpec(kind="run", name="fig3_radio"))
        assert job.payload["seed"] == session.seed

    def test_seedless_spec_with_seedless_session_is_rejected(self, tmp_path):
        session = Session(cache_dir=tmp_path, seed=None)
        with pytest.raises(JobSpecError, match="reproducible"):
            canonicalize(session, JobSpec(kind="run", name="fig3_radio"))

    def test_unknown_experiment_fails_at_submission(self, session):
        from repro.api import UnknownExperimentError
        with pytest.raises(UnknownExperimentError):
            canonicalize(session, JobSpec(kind="run", name="fig_nope"))

    def test_sweep_identity_covers_quick_and_spec(self, session):
        full = canonicalize(session, JobSpec(kind="sweep",
                                             name="node_density"))
        quick = canonicalize(session, JobSpec(kind="sweep",
                                              name="node_density",
                                              quick=True))
        assert full.job_id != quick.job_id
        assert full.cache_key is None
        assert quick.payload["spec_hash"]

    def test_canonical_payload_round_trips_to_an_executable_spec(self,
                                                                 session):
        job = canonicalize(session, JobSpec(
            kind="run", name="fig6_csma", params={"num_windows": 4}, seed=5))
        rebuilt = spec_from_canonical(job.payload)
        assert rebuilt.kind == "run"
        assert rebuilt.name == "fig6_csma"
        assert rebuilt.seed == 5
        assert rebuilt.params["num_windows"] == 4
        # Re-canonicalising the rebuilt spec lands on the same identity.
        assert canonicalize(session, rebuilt).job_id == job.job_id

    def test_sweep_payload_round_trip_keeps_overrides(self, session):
        job = canonicalize(session, JobSpec(kind="sweep", name="node_density",
                                            params={"superframes": 2},
                                            quick=True))
        rebuilt = spec_from_canonical(job.payload)
        assert rebuilt.kind == "sweep"
        assert rebuilt.quick is True
        assert rebuilt.params == {"superframes": 2}
        assert canonicalize(session, rebuilt).job_id == job.job_id

    def test_spec_from_canonical_rejects_garbage(self):
        with pytest.raises(JobSpecError):
            spec_from_canonical({"no": "kind"})
