"""The HTTP front door: ``repro-sim serve``.

A stdlib-only :class:`ThreadingHTTPServer` over one
:class:`~repro.service.manager.JobManager`.  Request threads only touch
the manager's thread-safe surface; simulation happens on the daemon's
worker threads, so a slow sweep never blocks a status poll.

Endpoints (all JSON; see ``docs/service.md`` for the full contract)::

    GET  /v1/health                 liveness + drain flag
    GET  /v1/stats                  queue depth, per-state counts, admission counters
    POST /v1/jobs                   submit (201 new, 200 deduplicated,
                                    400 invalid, 429 queue full + Retry-After,
                                    503 draining + Retry-After)
    GET  /v1/jobs                   list all job summaries
    GET  /v1/jobs/<id>              one summary (unique id prefixes accepted)
    GET  /v1/jobs/<id>/result       202 not-ready, 200 done (exit_code 0|2
                                    inside), 500 failed, 504 expired,
                                    410 cancelled
    GET  /v1/jobs/<id>/events?offset=N   tail the progress stream
    POST /v1/jobs/<id>/cancel       cancel queued/running work

Long polls: ``?wait=S`` on a job's summary holds the answer until the
job settles (reaches a terminal state), the daemon starts draining, or
``S`` seconds pass; on ``/events`` it also returns once the stream has
moved past ``offset``.  ``S`` is clamped to
:data:`~repro.service.jobs.MAX_WAIT_SECONDS`; a negative or non-numeric
``S`` is a 400.

Graceful drain: SIGTERM (or SIGINT) closes admissions, lets in-flight
jobs checkpoint at their next cell boundary (completed cells are
already durable in the content-addressed cache), re-queues them with
``reason="drain"``, persists everything, and exits 0.  A restart
resumes the drained jobs as cache hits.

Discovery: on startup the bound address is written atomically to
``<data_dir>/endpoint.json`` (useful with ``--port 0``); it is removed
on clean shutdown.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.experiments.cellcache import atomic_write_json
from repro.obs import get_logger
from repro.service.clock import SYSTEM_CLOCK, ServiceClock
from repro.service.jobs import (
    CANCELLED,
    DONE,
    EXPIRED,
    FAILED,
    MAX_WAIT_SECONDS,
    JobValidationError,
)
from repro.service.manager import AdmissionError, JobManager, UnknownJobError

__all__ = ["ServiceDaemon", "result_status_for"]


_LOG = get_logger("service.daemon")


def result_status_for(state: str) -> int:
    """Map a job's terminal state onto the /result HTTP status.

    The exit-code semantics of ``repro-sim grid`` (0 clean, 2 partial
    failure) live *inside* a 200 document as ``exit_code``; the states
    that never produced a result map onto distinct HTTP errors.
    """
    if state == DONE:
        return 200
    if state == FAILED:
        return 500
    if state == EXPIRED:
        return 504
    if state == CANCELLED:
        return 410
    return 202  # queued/running: not ready yet


class _RequestProblem(Exception):
    """An HTTP-expressible request failure (status + JSON body)."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _hold_seconds(query: dict) -> float | None:
    """The ``?wait=`` hold in seconds, clamped to the cap (None: absent)."""
    if "wait" not in query:
        return None
    try:
        seconds = float(query["wait"][0])
    except ValueError:
        seconds = math.nan
    if not seconds >= 0:  # also rejects NaN
        raise _RequestProblem(400, "wait must be a non-negative number "
                                   "of seconds")
    return min(seconds, MAX_WAIT_SECONDS)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, manager: JobManager, clock: ServiceClock):
        super().__init__(address, _Handler)
        self.manager = manager
        self.clock = clock
        self.request_seq = itertools.count(1)


class _Handler(BaseHTTPRequestHandler):
    server: _Server
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    def log_message(self, fmt: str, *args) -> None:
        _LOG.info("%s %s", self.address_string(), fmt % args)

    def _send(self, status: int, payload: dict,
              retry_after: float | None = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", str(next(self.server.request_seq)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, round(retry_after))))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise _RequestProblem(400, "bad Content-Length") from None
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            return {}
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _RequestProblem(400, f"request body is not JSON: {exc}") from None
        if not isinstance(parsed, dict):
            raise _RequestProblem(400, "request body must be a JSON object")
        return parsed

    # -- routing --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 -- http.server contract
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 -- http.server contract
        self._route("POST")

    def _route(self, method: str) -> None:
        manager = self.server.manager
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        try:
            if parts[:1] != ["v1"]:
                raise _RequestProblem(404, f"no such path: {split.path}")
            rest = parts[1:]
            if method == "GET" and rest == ["health"]:
                self._send(200, {
                    "status": "draining" if manager.draining else "ok",
                    "pid": os.getpid(),
                })
            elif method == "GET" and rest == ["stats"]:
                self._send(200, manager.stats())
            elif method == "GET" and rest == ["jobs"]:
                self._send(200, {"jobs": manager.list_jobs()})
            elif method == "POST" and rest == ["jobs"]:
                self._submit(manager)
            elif method == "GET" and len(rest) == 2 and rest[0] == "jobs":
                record = manager.get(rest[1])
                hold = _hold_seconds(query)
                if hold is not None:
                    record = manager.wait_settled(record.job_id, hold)
                self._send(200, record.summary())
            elif (method == "GET" and len(rest) == 3 and rest[0] == "jobs"
                  and rest[2] == "result"):
                self._result(manager, rest[1])
            elif (method == "GET" and len(rest) == 3 and rest[0] == "jobs"
                  and rest[2] == "events"):
                self._events(manager, rest[1], query)
            elif (method == "POST" and len(rest) == 3 and rest[0] == "jobs"
                  and rest[2] == "cancel"):
                self._send(200, manager.cancel(rest[1]).summary())
            else:
                raise _RequestProblem(404, f"no such path: {split.path}")
        except UnknownJobError as exc:
            self._send(404, {"error": f"unknown job {exc.args[0]!r}"})
        except JobValidationError as exc:
            self._send(400, {"error": str(exc)})
        except AdmissionError as exc:
            status = 503 if manager.draining else 429
            self._send(status, {"error": str(exc),
                                "retry_after": exc.retry_after},
                       retry_after=exc.retry_after)
        except _RequestProblem as exc:
            self._send(exc.status, {"error": exc.message},
                       retry_after=exc.retry_after)
        except Exception as exc:  # noqa: BLE001 -- last-resort 500
            _LOG.error("unhandled error serving %s %s: %s",
                       method, self.path, exc)
            self._send(500, {"error": f"internal error: {exc}"})

    # -- handlers -------------------------------------------------------
    def _submit(self, manager: JobManager) -> None:
        payload = self._read_json()
        record, created = manager.submit(payload)
        document = record.summary()
        document["created"] = created
        self._send(201 if created else 200, document)

    def _result(self, manager: JobManager, job_id: str) -> None:
        record = manager.get(job_id)
        status = result_status_for(record.state)
        if record.state == DONE:
            document = manager.store.get_result(record.job_id)
            if document is None:
                self._send(500, {"error": "result document missing",
                                 "job": record.job_id})
                return
            self._send(200, document)
            return
        document = record.summary()
        if status == 202:
            self._send(202, document,
                       retry_after=manager.config.retry_after_seconds)
        else:
            self._send(status, document)

    def _events(self, manager: JobManager, job_id: str, query: dict) -> None:
        record = manager.get(job_id)
        try:
            offset = int(query.get("offset", ["0"])[0])
        except ValueError:
            raise _RequestProblem(400, "offset must be an integer") from None
        hold = _hold_seconds(query)
        if hold is not None:
            record = manager.wait_progress(record.job_id, offset, hold)
        events, next_offset = manager.store.read_progress(record.job_id, offset)
        self._send(200, {
            "job": record.job_id,
            "state": record.state,
            "events": events,
            "next_offset": next_offset,
        })


class ServiceDaemon:
    """One HTTP server + worker pool over a :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: ServiceClock = SYSTEM_CLOCK,
        poll_seconds: float = 0.2,
    ):
        self.manager = manager
        self.clock = clock
        self.poll_seconds = poll_seconds
        self._server = _Server((host, port), manager, clock)
        self.host, self.port = self._server.server_address[:2]
        self._workers: list[threading.Thread] = []
        self._server_thread: threading.Thread | None = None
        self._drain_requested = threading.Event()

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def endpoint_path(self):
        return self.manager.data_dir / "endpoint.json"

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Bind workers and the accept loop; write the discovery file."""
        atomic_write_json(self.endpoint_path, {
            "endpoint": self.endpoint,
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
        })
        for index in range(self.manager.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"sim-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": self.poll_seconds},
            name="sim-http", daemon=True,
        )
        self._server_thread.start()
        _LOG.info("serving on %s (%d workers, data dir %s)",
                  self.endpoint, len(self._workers), self.manager.data_dir)

    def serve(self, install_signal_handlers: bool = True) -> int:
        """Run until drained (SIGTERM/SIGINT); returns the exit code 0."""
        if install_signal_handlers:
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)
        self.start()
        self.wait()
        return 0

    def _on_signal(self, signum, frame) -> None:  # pragma: no cover - signal path
        _LOG.warning("signal %d received: draining", signum)
        self.request_drain()

    def request_drain(self) -> None:
        """Begin the graceful shutdown (idempotent, non-blocking)."""
        if self._drain_requested.is_set():
            return
        self._drain_requested.set()
        self.manager.begin_drain()
        threading.Thread(target=self._drain_then_shutdown,
                         name="sim-drain", daemon=True).start()

    def _drain_then_shutdown(self) -> None:
        # Workers exit once their in-flight job has checkpointed at a
        # cell boundary; only then stop answering status polls.
        for worker in self._workers:
            worker.join()
        self._server.shutdown()

    def wait(self) -> None:
        """Block until the daemon has fully shut down; persist and clean up."""
        if self._server_thread is not None:
            self._server_thread.join()
        for worker in self._workers:
            worker.join()
        self.manager.close()
        try:
            os.unlink(self.endpoint_path)
        except OSError:
            pass
        self._server.server_close()
        _LOG.info("drained: %d job(s) tracked, exiting 0",
                  len(self.manager.jobs))

    # -- workers --------------------------------------------------------
    def _worker_loop(self) -> None:
        manager = self.manager
        while True:
            if manager.draining:
                # Do not *start* new work during drain; the job a
                # run_once below was already executing has checkpointed
                # by the time we get back here.
                return
            try:
                worked = manager.run_once()
            except Exception as exc:  # noqa: BLE001 -- keep the pool alive
                _LOG.error("worker crashed outside a job attempt: %s", exc)
                worked = False
            if not worked:
                manager.wait_for_work(self.poll_seconds)
