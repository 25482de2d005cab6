"""Tests of the full-scale packet-level case-study experiment (EXP-CSF)."""

import pytest

from repro.experiments.case_study_full import run_full_case_study
from repro.runner import run_experiment

#: Scaled-down parameters so the driver test stays fast in CI.
TINY = {"total_nodes": 60, "num_channels": 3, "superframes": 3,
        "beacon_order": 3, "nodes_per_channel_cap": 6}


class TestDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_full_case_study(total_nodes=60, num_channels=3,
                                   superframes=3, beacon_order=3,
                                   nodes_per_channel_cap=6, seed=4)

    def test_one_row_per_channel(self, result):
        assert [row["channel"] for row in result.channel_rows] == [11, 12, 13]
        for row in result.channel_rows:
            assert row["nodes"] == 6
            assert row["packets_delivered"] <= row["packets_attempted"]

    def test_aggregate_is_consistent_with_rows(self, result):
        aggregate = result.aggregate
        assert aggregate["packets_attempted"] == sum(
            row["packets_attempted"] for row in result.channel_rows)
        assert 0.0 <= aggregate["failure_probability"] <= 1.0
        assert aggregate["mean_power_uw"] > 0.0

    def test_report_carries_the_paper_comparisons(self, result):
        quantities = [row.quantity for row in result.report.rows]
        assert any("failure probability" in q for q in quantities)
        assert any("power" in q for q in quantities)


class TestThroughEngine:
    def test_registered_and_runnable(self, tmp_path):
        run = run_experiment("case_study_full", params=TINY,
                             cache_root=tmp_path, seed=7)
        assert len(run.rows) == 3
        assert "aggregate" in run.payload
        assert run.payload["report"]["experiment_id"] == "EXP-CSF"

    def test_cache_replay_and_jobs_equivalence(self, tmp_path):
        serial = run_experiment("case_study_full", params=TINY,
                                cache_root=tmp_path, seed=7)
        replay = run_experiment("case_study_full", params=TINY,
                                cache_root=tmp_path, seed=7)
        assert replay.cache_hit
        assert replay.rows == serial.rows
        # --jobs reaches a process pool only on the event backend
        event = dict(TINY, backend="event")
        serial = run_experiment("case_study_full", params=event,
                                cache=False, seed=7)
        parallel = run_experiment("case_study_full", params=event,
                                  cache=False, jobs=2, seed=7)
        assert parallel.rows == serial.rows

    def test_superframe_order_param_duty_cycles_the_network(self, tmp_path):
        """SO < BO adds an inactive portion: the radio sleeps through it,
        so average power must drop noticeably vs the full-active run."""
        full = run_experiment("case_study_full",
                              params=dict(TINY, num_channels=1,
                                          beacon_order=4, superframes=4),
                              cache=False, seed=3)
        duty = run_experiment("case_study_full",
                              params=dict(TINY, num_channels=1,
                                          beacon_order=4, superframes=4,
                                          superframe_order=2),
                              cache=False, seed=3)
        assert duty.payload["aggregate"]["mean_power_uw"] < \
            0.95 * full.payload["aggregate"]["mean_power_uw"]

    def test_invalid_superframe_order_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("case_study_full",
                           params=dict(TINY, superframe_order=9),
                           cache=False, seed=3)

    def test_event_backend_param_accepted(self):
        run = run_experiment("case_study_full",
                             params=dict(TINY, backend="event",
                                         num_channels=1, superframes=2),
                             cache=False, seed=3)
        assert len(run.rows) == 1

    def test_vectorized_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            run_experiment("case_study_full",
                           params=dict(TINY, backend="vectorized"),
                           cache=False, seed=3)

    def test_payload_survives_a_json_round_trip(self):
        """The payload (including possibly-None delays) must be plain JSON —
        that is what the result cache stores and replays."""
        import json

        run = run_experiment("case_study_full", params=TINY, cache=False,
                             seed=7)
        replayed = json.loads(json.dumps(run.payload))
        assert replayed["rows"] == run.payload["rows"]
        assert replayed["aggregate"] == run.payload["aggregate"]


class TestTrafficParameters:
    """The heterogeneous-traffic axis of the full-scale experiment."""

    def test_default_traffic_is_the_saturated_paper_assumption(self):
        from repro.runner.registry import default_registry

        schema = default_registry().get("case_study_full").schema
        spec = schema["traffic_model"]
        assert spec.default == "saturated"
        assert "poisson" in spec.choices and "mixed" in spec.choices

    def test_sparse_traffic_attempts_fewer_packets(self):
        saturated = run_experiment("case_study_full", params=TINY,
                                   cache=False, seed=7)
        sparse = run_experiment("case_study_full",
                                params=dict(TINY, traffic_model="poisson",
                                            traffic_rate_scale=0.5),
                                cache=False, seed=7)
        assert 0 < sparse.payload["aggregate"]["packets_attempted"] < \
            saturated.payload["aggregate"]["packets_attempted"]

    def test_traffic_params_are_cache_key_relevant(self):
        base = run_experiment("case_study_full", params=TINY, cache=False,
                              seed=7)
        bursty = run_experiment("case_study_full",
                                params=dict(TINY, traffic_model="bursty"),
                                cache=False, seed=7)
        assert bursty.cache_key != base.cache_key

    def test_unknown_traffic_model_rejected_with_choices(self):
        with pytest.raises(Exception, match="traffic_model"):
            run_experiment("case_study_full",
                           params=dict(TINY, traffic_model="fractal"),
                           cache=False, seed=7)

    @pytest.mark.parametrize("model", ["periodic", "poisson", "bursty",
                                       "mixed"])
    def test_serial_and_parallel_rows_identical(self, model):
        """The executor contract extended to every traffic model:
        per-channel spawned seeds make --jobs N runs of the event backend
        (the one a process pool fans out) bit-identical."""
        params = dict(TINY, traffic_model=model, backend="event")
        serial = run_experiment("case_study_full", params=params,
                                cache=False, seed=7)
        parallel = run_experiment("case_study_full", params=params,
                                  cache=False, jobs=2, seed=7)
        assert parallel.rows == serial.rows

    def test_non_saturated_report_carries_no_paper_band(self):
        """Paper comparisons assume the saturated workload; other traffic
        reports the figures without a tolerance verdict."""
        run = run_experiment("case_study_full",
                             params=dict(TINY, traffic_model="poisson"),
                             cache=False, seed=7)
        rows = {row["quantity"]: row for row in run.payload["report"]["rows"]}
        failure = rows["transaction failure probability"]
        assert failure["paper_value"] is None
        assert failure["within_tolerance"] is None


#: Scaled-down multi-hop parameters (one grid channel, two rings).
MULTIHOP = {"total_nodes": 24, "num_channels": 1, "superframes": 3,
            "beacon_order": 3, "topology": "grid", "max_hops": 2,
            "traffic_model": "periodic", "traffic_rate_scale": 0.5}


class TestTopologyParameters:
    """The multi-hop NET axis of the full-scale experiment."""

    def test_default_topology_is_the_paper_star(self):
        from repro.runner.registry import default_registry

        schema = default_registry().get("case_study_full").schema
        assert schema["topology"].default == "star"
        assert "grid" in schema["topology"].choices
        assert schema["routing"].default == "gradient"
        assert schema["max_hops"].default == 1

    def test_star_with_multiple_hops_rejected(self):
        with pytest.raises(ValueError, match="no node-to-node links"):
            run_full_case_study(total_nodes=12, num_channels=1,
                                superframes=2, topology="star", max_hops=2)

    def test_routed_run_reports_the_energy_hole(self):
        run = run_experiment("case_study_full", params=MULTIHOP,
                             cache=False, seed=7)
        by_depth = run.payload["aggregate"]["by_depth"]
        assert sorted(int(k) for k in by_depth) == [1, 2]
        rows = {row["quantity"]: row for row in run.payload["report"]["rows"]}
        ratio = rows["energy-hole power ratio (hop 1 / deepest hop)"]
        assert ratio["measured_value"] > 1.0

    def test_topology_params_are_cache_key_relevant(self):
        flat = run_experiment("case_study_full",
                              params=dict(MULTIHOP, max_hops=1),
                              cache=False, seed=7)
        routed = run_experiment("case_study_full", params=MULTIHOP,
                                cache=False, seed=7)
        assert flat.cache_key != routed.cache_key

    def test_routed_payload_survives_a_json_round_trip(self):
        """by_depth's integer keys stringify in cache artifacts; the
        aggregate and report must already be JSON-clean."""
        import json

        run = run_experiment("case_study_full", params=MULTIHOP,
                             cache=False, seed=7)
        replay = json.loads(json.dumps(run.payload))
        assert replay == json.loads(json.dumps(replay))

    def test_serial_and_parallel_routed_rows_identical(self):
        params = dict(MULTIHOP, num_channels=2, total_nodes=32,
                      backend="event")
        serial = run_experiment("case_study_full", params=params,
                                cache=False, seed=7)
        parallel = run_experiment("case_study_full", params=params,
                                  cache=False, jobs=2, seed=7)
        assert parallel.rows == serial.rows
