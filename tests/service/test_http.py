"""End-to-end tests of the service HTTP API (real server, real workers)."""

import http.client
import json
import statistics
import threading
import time

import pytest

from repro.api import Session, resolve_backend
from repro.service import (JobState, JobStore, ServiceClient, ServiceError,
                           ServiceState, WorkerPool, make_server)


@pytest.fixture()
def service(tmp_path):
    """A full service (2 workers) on an ephemeral port; yields the client."""
    backend = resolve_backend("shared", tmp_path / "cache")
    store = JobStore(tmp_path / "jobs.sqlite")
    session = Session(backend=backend)
    pool = WorkerPool(store, lambda: Session(backend=backend), workers=2,
                      poll_interval_s=0.02)
    server = make_server(ServiceState(session, store, pool))
    # serve_forever's default 0.5 s poll would make shutdown() wait for it.
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    pool.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    client.session = session
    client.store = store
    client.pool = pool
    try:
        yield client
    finally:
        pool.stop()
        server.shutdown()
        server.server_close()


@pytest.fixture()
def frontend(tmp_path):
    """A frontend-only service (no workers): jobs stay queued."""
    backend = resolve_backend("directory", tmp_path / "cache")
    store = JobStore(tmp_path / "jobs.sqlite")
    server = make_server(ServiceState(Session(backend=backend), store, None))
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    try:
        yield client
    finally:
        server.shutdown()
        server.server_close()


RUN_PAYLOAD = {"kind": "run", "name": "fig3_radio", "seed": 17,
               "params": {}, "quick": False}


class TestSmoke:
    def test_submit_poll_fetch_byte_identical(self, service):
        """The acceptance path: k identical POSTs -> one job id, computed
        once (pinned via obs counters), result byte-identical to
        ``repro run --output json``."""
        receipts = [service.submit(RUN_PAYLOAD) for _ in range(3)]
        job_ids = {receipt["job_id"] for receipt in receipts}
        assert len(job_ids) == 1
        assert [receipt["created"] for receipt in receipts] == \
            [True, False, False]
        job_id = job_ids.pop()
        status = service.wait(job_id, timeout_s=60)
        assert status["state"] == JobState.DONE

        fetched = service.result_text(job_id)
        direct = service.session.run("fig3_radio", seed=17)
        assert fetched == direct.to_json()

        counters = service.metrics()["counters"]
        assert counters["service.jobs.computed"] == 1
        assert counters["service.jobs.done"] == 1

    def test_equivalent_spelling_dedups_through_http(self, service):
        first = service.submit({"kind": "run", "name": "fig6_csma",
                                "seed": 3, "params": {"num_windows": 4}})
        second = service.submit({"kind": "run", "name": "fig6_csma",
                                 "seed": 3, "params": {"num_windows": "4"}})
        assert first["job_id"] == second["job_id"]

    def test_health_and_metrics_shapes(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert set(health["counts"]) == set(JobState.ALL)
        metrics = service.metrics()
        assert metrics["backend"]["kind"] == "shared-directory"
        assert "per_worker" in metrics

    def test_listing_counts_jobs(self, service):
        service.submit(RUN_PAYLOAD)
        listing = service.jobs()
        assert len(listing["jobs"]) == 1
        assert sum(listing["counts"].values()) == 1


class TestErrors:
    def test_unknown_job_is_404(self, frontend):
        for call in (frontend.status, frontend.result_text, frontend.cancel):
            with pytest.raises(ServiceError) as caught:
                call("f" * 64)
            assert caught.value.status == 404

    def test_unknown_route_is_404(self, frontend):
        with pytest.raises(ServiceError) as caught:
            frontend._json("GET", "/v2/everything")
        assert caught.value.status == 404

    def test_bad_spec_is_400_with_the_engines_message(self, frontend):
        with pytest.raises(ServiceError) as caught:
            frontend.submit({"kind": "run", "name": "fig3_radi0"})
        assert caught.value.status == 400
        assert "fig3_radio" in caught.value.message  # did-you-mean

        with pytest.raises(ServiceError) as caught:
            frontend.submit({"kind": "run", "name": "fig6_csma",
                             "params": {"windowz": 1}})
        assert caught.value.status == 400

    def test_malformed_json_is_400(self, frontend):
        with pytest.raises(ServiceError) as caught:
            frontend._request("POST", "/v1/jobs")
        assert caught.value.status == 400  # no body
        import urllib.request
        request = urllib.request.Request(
            frontend.base_url + "/v1/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        caught.value.close()
        assert caught.value.code == 400

    def test_result_before_done_is_409(self, frontend):
        receipt = frontend.submit(RUN_PAYLOAD)  # no workers: stays queued
        with pytest.raises(ServiceError) as caught:
            frontend.result_text(receipt["job_id"])
        assert caught.value.status == 409
        assert caught.value.body["job"]["state"] == JobState.QUEUED

    def test_cancel_queued_then_status_reflects_it(self, frontend):
        receipt = frontend.submit(RUN_PAYLOAD)
        reply = frontend.cancel(receipt["job_id"])
        assert reply["state"] == JobState.CANCELLED
        assert frontend.status(receipt["job_id"])["state"] == \
            JobState.CANCELLED
        with pytest.raises(ServiceError) as caught:
            frontend.cancel(receipt["job_id"])  # no longer queued
        assert caught.value.status == 409


class TestCliClient:
    def test_jobs_submit_wait_prints_the_result(self, service, capsys):
        from repro.runner.cli import main
        exit_code = main(["jobs", "--url", service.base_url, "submit",
                          "fig3_radio", "--seed", "23", "--wait"])
        assert exit_code == 0
        out = capsys.readouterr().out
        direct = service.session.run("fig3_radio", seed=23)
        assert out == direct.to_json()

    def test_jobs_status_and_fetch(self, service, capsys):
        from repro.runner.cli import main
        receipt = service.submit(RUN_PAYLOAD)
        service.wait(receipt["job_id"], timeout_s=60)
        assert main(["jobs", "--url", service.base_url, "status",
                     receipt["job_id"]]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == JobState.DONE
        assert main(["jobs", "--url", service.base_url, "fetch",
                     receipt["job_id"]]) == 0
        assert capsys.readouterr().out == \
            service.result_text(receipt["job_id"])

    def test_jobs_client_reports_unreachable_service(self):
        from repro.runner.cli import main
        assert main(["jobs", "--url", "http://127.0.0.1:9",
                     "status", "deadbeef"]) == 2

    def test_serve_parser_defaults(self):
        from repro.runner.cli import build_parser
        arguments = build_parser().parse_args(["serve"])
        assert arguments.workers == 2
        assert arguments.backend == "shared"
        arguments = build_parser().parse_args(
            ["jobs", "submit", "fig6_csma", "--param", "num_windows=4"])
        assert dict(arguments.param) == {"num_windows": 4}


class TestLatency:
    def test_keep_alive_replies_are_not_held_back(self, tmp_path):
        """A reply is a header write then a body write.  With Nagle's
        algorithm on, the body waits for the client's delayed ACK of the
        headers (~40 ms on Linux) on every request of a kept-alive
        connection."""
        store = JobStore(tmp_path / "jobs.sqlite")
        server = make_server(ServiceState(Session(cache=False), store, None))
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            round_trips = []
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/v1/health")
                reply = connection.getresponse()
                body = reply.read()
                round_trips.append(time.perf_counter() - start)
                assert reply.status == 200
                assert json.loads(body)["status"] == "ok"
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert statistics.median(round_trips) < 0.020, round_trips
