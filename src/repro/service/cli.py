"""The ``serve`` and ``jobs`` command trees of ``python -m repro``.

``repro serve`` hosts the whole service in one process: a job store, a
worker pool draining it through :class:`repro.api.Session`, and the HTTP
frontend.  Several ``serve`` processes pointed at one ``--store`` and one
``--cache-dir`` (with ``--backend shared``) cooperate safely — claims are
atomic in sqlite and result artifacts dedup through the shared cache.

``repro jobs submit|status|fetch|cancel`` is the matching client.
``fetch`` writes the stored result text verbatim, so for run jobs its
output is byte-identical to ``repro run --output json`` of the same spec.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading
import time
from typing import Any, Dict

from repro.api import Session, parse_param_arg, resolve_backend
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ServiceState, make_server
from repro.service.store import JobStore
from repro.service.worker import DEFAULT_STALE_AFTER_S, WorkerPool

logger = logging.getLogger(__name__)


def add_service_parsers(commands: Any) -> None:
    """Attach the ``serve`` and ``jobs`` trees to the root subparsers."""
    serve = commands.add_parser(
        "serve", help="run the simulation service (HTTP API + workers)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="bind port (default 8750; 0 picks a free port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads draining the job queue "
                            "(default 2; 0 = frontend only)")
    serve.add_argument("--backend", choices=["directory", "shared"],
                       default="shared",
                       help="cache backend; 'shared' (default) adds "
                            "cross-process locking so several serve "
                            "processes can share one cache directory")
    serve.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default REPRO_CACHE_DIR "
                            "or ~/.cache/repro-bougard)")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="job-store sqlite path (default "
                            "<cache-dir>/jobs.sqlite)")
    serve.add_argument("--seed", type=int, default=None,
                       help="session seed policy for specs without a seed "
                            "(default: the engine default seed)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="attempt budget per job before it fails "
                            "(default 3)")
    serve.add_argument("--stale-after", type=float,
                       default=DEFAULT_STALE_AFTER_S, metavar="SECONDS",
                       help="requeue a claim with no heartbeat for this "
                            f"long (default {DEFAULT_STALE_AFTER_S:g}s)")

    jobs = commands.add_parser(
        "jobs", help="client of a running simulation service")
    jobs.add_argument("--url", default="http://127.0.0.1:8750",
                      help="service endpoint "
                           "(default http://127.0.0.1:8750)")
    actions = jobs.add_subparsers(dest="jobs_command", required=True)

    submit = actions.add_parser("submit", help="submit one job")
    submit.add_argument("name", help="experiment (run) or sweep name")
    submit.add_argument("--kind", choices=["run", "sweep"], default="run",
                        help="job kind (default run)")
    submit.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the service's policy)")
    submit.add_argument("--quick", action="store_true",
                        help="sweep jobs: the scaled-down CI variant")
    submit.add_argument("--param", action="append", type=parse_param_arg,
                        default=[], metavar="KEY=VALUE",
                        help="parameter override (repeatable)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print its "
                             "result JSON")
    submit.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="--wait polling budget (default 600)")

    status = actions.add_parser("status", help="job lifecycle status")
    status.add_argument("job_id", help="job id from 'submit'")

    fetch = actions.add_parser(
        "fetch", help="print a finished job's result JSON")
    fetch.add_argument("job_id", help="job id from 'submit'")

    cancel = actions.add_parser("cancel", help="cancel a queued job")
    cancel.add_argument("job_id", help="job id from 'submit'")

    listing = actions.add_parser("list", help="queue listing and counts")
    del listing


def command_serve(arguments: argparse.Namespace) -> int:
    """Run the service until SIGINT/SIGTERM, then drain gracefully."""
    backend = resolve_backend(arguments.backend, arguments.cache_dir)
    # No ``jobs``: with the worker, heartbeat and HTTP threads alive a
    # served job's task fan-outs run in its worker thread, and its large
    # kernel calls share the worker pool's helpers (spawned by the first
    # such call, not here).
    session_options: Dict[str, Any] = {"backend": backend}
    if arguments.seed is not None:
        session_options["seed"] = arguments.seed
    try:
        frontend_session = Session(**session_options)
    except ValueError as error:
        # An invalid seed policy would canonicalise every seedless job to
        # a seed the workers reject; refuse it before serving anything.
        logger.error(f"error: {error}")
        return 2
    store_path = arguments.store or str(backend.root / "jobs.sqlite")
    store = JobStore(store_path, max_attempts=arguments.max_attempts)
    pool = WorkerPool(store, lambda: Session(**session_options),
                      workers=max(0, arguments.workers),
                      stale_after_s=arguments.stale_after)
    state = ServiceState(frontend_session, store, pool)
    server = make_server(state, arguments.host, arguments.port)

    signals: list = []

    def request_stop(signum, frame):  # noqa: ARG001 (signal signature)
        # The handler runs between two bytecodes of the main thread, which
        # may hold any lock (``Event.wait()`` holds its event's), so it
        # takes none; the main thread polls the list instead.
        signals.append(signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, request_stop)
    pool.start()
    # A short poll keeps the drain prompt: shutdown() waits for the serving
    # loop's next poll, which defaults to every 0.5 s.
    server_thread = threading.Thread(target=server.serve_forever,
                                     kwargs={"poll_interval": 0.05},
                                     daemon=True, name="service-http")
    server_thread.start()
    host, port = server.server_address[:2]
    print(f"repro service listening on http://{host}:{port} "
          f"({len(pool.workers)} worker(s), cache {backend.describe()['root']}, "
          f"store {store_path})")
    sys.stdout.flush()
    try:
        while not signals:
            time.sleep(0.05)
        logger.info("received signal %s; draining workers", signals[0])
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        server.server_close()
        pool.stop()
        logger.info("service stopped; queue counts: %s",
                    json.dumps(store.counts(), sort_keys=True))
    return 0


def command_jobs(arguments: argparse.Namespace) -> int:
    """Dispatch one ``repro jobs`` client action."""
    client = ServiceClient(arguments.url)
    try:
        return _run_jobs_action(client, arguments)
    except ServiceError as error:
        logger.error(f"error: {error.message}")
        return 2
    except OSError as error:
        logger.error(f"error: cannot reach {arguments.url}: {error}")
        return 2
    except TimeoutError as error:
        logger.error(f"error: {error}")
        return 3


def _run_jobs_action(client: ServiceClient,
                     arguments: argparse.Namespace) -> int:
    action = arguments.jobs_command
    if action == "submit":
        payload = {"kind": arguments.kind, "name": arguments.name,
                   "params": dict(arguments.param), "seed": arguments.seed,
                   "quick": arguments.quick}
        receipt = client.submit(payload)
        if not arguments.wait:
            print(json.dumps(receipt, indent=2, sort_keys=True))
            return 0
        status = client.wait(receipt["job_id"],
                             timeout_s=arguments.timeout)
        if status["state"] != "done":
            logger.error(f"error: job {receipt['job_id']} ended "
                         f"{status['state']}: "
                         f"{status.get('error') or 'no detail'}")
            return 1
        sys.stdout.write(client.result_text(receipt["job_id"]))
        return 0
    if action == "status":
        print(json.dumps(client.status(arguments.job_id), indent=2,
                         sort_keys=True))
        return 0
    if action == "fetch":
        sys.stdout.write(client.result_text(arguments.job_id))
        return 0
    if action == "cancel":
        print(json.dumps(client.cancel(arguments.job_id), indent=2,
                         sort_keys=True))
        return 0
    print(json.dumps(client.jobs(), indent=2, sort_keys=True))
    return 0
