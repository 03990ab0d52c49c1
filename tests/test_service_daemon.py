"""The job daemon end to end: HTTP surface, kill -9 recovery, drain.

Two layers:

- an in-process :class:`ServiceDaemon` bound to an ephemeral port,
  driven through :class:`ServiceClient` (the HTTP contract tests);
- subprocess drills — the headline robustness properties from the
  issue: a ``SIGKILL`` mid-job followed by a restart converges on the
  bit-identical ``grid_signature`` with zero recomputed cells, and a
  ``SIGTERM`` drains gracefully to exit 0 with no torn journal lines.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro.service.daemon as daemon_module
from repro.experiments.cellcache import CellCache, read_checked_json
from repro.experiments.faults import ServiceFaultPlan
from repro.experiments.journal import CellJournal
from repro.frontend.config import FrontEndConfig
from repro.service import (
    JobManager,
    ManualClock,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ServiceError,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobStore,
)

TINY_CONFIG = {
    "icache_bytes": 8 * 1024,
    "icache_assoc": 4,
    "btb_entries": 256,
    "warmup_cap_instructions": 1000,
}


def payload(policies=("lru",), seeds=(1,), trace_scale=0.02, **extra):
    body = {
        "workloads": [
            {"category": "short-mobile", "seed": seed,
             "trace_scale": trace_scale, "footprint_scale": 0.3}
            for seed in seeds
        ],
        "policies": list(policies),
        "config": dict(TINY_CONFIG),
    }
    body.update(extra)
    return body


def _env_with_src():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def daemon(tmp_path):
    manager = JobManager(
        tmp_path / "svc",
        config=ServiceConfig(workers=1, max_queue_depth=8,
                             retry_after_seconds=1.0),
    )
    daemon = ServiceDaemon(manager, port=0, poll_seconds=0.05)
    daemon.start()
    yield daemon
    daemon.request_drain()
    daemon.wait()


@pytest.fixture
def client(daemon):
    return ServiceClient(daemon.endpoint, timeout=30.0)


# ---------------------------------------------------------------------------
# The HTTP contract, in process
# ---------------------------------------------------------------------------
class TestHttpSurface:
    def test_health_and_endpoint_file(self, daemon, client):
        assert client.health()["status"] == "ok"
        discovered = read_checked_json(daemon.endpoint_path)
        assert discovered["endpoint"] == daemon.endpoint
        assert ServiceClient.from_endpoint_file(
            daemon.endpoint_path
        ).endpoint == daemon.endpoint

    def test_submit_runs_to_done_and_serves_result(self, client):
        summary = client.submit(payload())
        assert summary["created"] and summary["state"] == QUEUED
        final = client.wait(summary["job"], poll_seconds=0.05, timeout=120)
        assert final["state"] == DONE
        document = client.result(summary["job"])
        assert document["exit_code"] == 0
        assert document["grid_signature"] == final["grid_signature"]

    def test_resubmission_returns_original_job_id(self, client):
        first = client.submit(payload())
        client.wait(first["job"], poll_seconds=0.05, timeout=120)
        again = client.submit(payload())
        assert again["job"] == first["job"]
        assert not again["created"]

    def test_invalid_payload_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload(policies=["not-a-policy"]))
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("feedfacedeadbeef")
        assert excinfo.value.status == 404

    def test_submit_during_drain_is_503_with_retry_after(self, daemon, client):
        daemon.manager.begin_drain()
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload())
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after is not None
        assert client.health()["status"] == "draining"

    def test_events_stream_and_watch(self, client):
        summary = client.submit(payload(policies=["lru", "random"]))
        events = list(client.watch(summary["job"], poll_seconds=0.05,
                                   timeout=120))
        kinds = [event.get("kind") for event in events]
        assert kinds[0] == "job.start"
        assert kinds.count("job.cell") == 2
        assert kinds[-1] == "job.state"
        assert events[-1]["state"] == DONE
        cells = [e for e in events if e.get("kind") == "job.cell"]
        assert cells[-1]["done"] == cells[-1]["total"] == 2

    def test_cancel_queued_job_then_result_is_410(self, daemon, client):
        # Stall the (single) worker with a long-enough job, then cancel
        # a second one while it is still queued.
        first = client.submit(payload(seeds=(10,), trace_scale=0.2))
        second = client.submit(payload(seeds=(11,)))
        if client.status(second["job"])["state"] == QUEUED:
            # Not ready yet: the result endpoint answers 202 + Retry-After.
            try:
                client.result(second["job"])
            except ServiceError as not_ready:
                assert not_ready.status == 202
                assert not_ready.retry_after is not None
        cancelled = client.cancel(second["job"])
        if cancelled["state"] == CANCELLED:
            with pytest.raises(ServiceError) as excinfo:
                client.result(second["job"])
            assert excinfo.value.status == 410
        client.wait(first["job"], poll_seconds=0.05, timeout=120)

    def test_stats_reports_queue_and_counters(self, client):
        summary = client.submit(payload())
        client.wait(summary["job"], poll_seconds=0.05, timeout=120)
        stats = client.stats()
        assert stats["accepted"] >= 1
        assert stats["jobs"].get(DONE, 0) >= 1
        assert not stats["draining"]


# ---------------------------------------------------------------------------
# Long polls: ?wait= holds a status or progress request until the job settles
# ---------------------------------------------------------------------------
class CountingClient(ServiceClient):
    """Counts the status and progress requests the polling loops make."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.status_calls = 0
        self.events_calls = 0

    def status(self, job_id, **kwargs):
        self.status_calls += 1
        return super().status(job_id, **kwargs)

    def events(self, job_id, offset=0, **kwargs):
        self.events_calls += 1
        return super().events(job_id, offset, **kwargs)


class CellGate:
    """A fault-plan stall hook.  While closed, the worker waits before it
    reports each job cell from the ``hold_from``-th on (counted from
    :meth:`close`), and :attr:`waiting` is set."""

    def __init__(self):
        self._open = threading.Event()
        self._open.set()
        self.waiting = threading.Event()
        self.cells = 0
        self.hold_from = 1

    def close(self, hold_from: int = 1) -> None:
        self.cells = 0
        self.hold_from = hold_from
        self.waiting.clear()
        self._open.clear()

    def open(self) -> None:
        self._open.set()

    def __call__(self) -> None:
        self.cells += 1
        if self.cells >= self.hold_from and not self._open.is_set():
            self.waiting.set()
            self._open.wait(60)


def gated_daemon(tmp_path) -> tuple[ServiceDaemon, CellGate]:
    gate = CellGate()
    manager = JobManager(
        tmp_path / "svc", config=ServiceConfig(workers=1, max_queue_depth=8),
        faults=ServiceFaultPlan(stall_cells=10_000, stall=gate),
    )
    return ServiceDaemon(manager, port=0, poll_seconds=0.05), gate


@pytest.fixture
def gated(tmp_path):
    """A started one-worker daemon whose job cells a :class:`CellGate`
    can hold."""
    daemon, gate = gated_daemon(tmp_path)
    daemon.start()
    yield daemon, gate
    gate.open()
    daemon.request_drain()
    daemon.wait()


def cached_twin(body: dict) -> dict:
    """Another job id over the same cells: spell out one default field."""
    twin = json.loads(json.dumps(body))
    twin["config"]["warmup_fraction"] = FrontEndConfig().warmup_fraction
    return twin


class TestLongPoll:
    def test_wait_answers_when_a_cached_job_settles(self, gated):
        daemon, gate = gated
        client = CountingClient(daemon.endpoint)
        first = client.submit(payload())
        client.wait(first["job"], poll_seconds=0.05, timeout=120)

        gate.close()  # hold the cached job's one cell for ~0.3 s
        second = client.submit(cached_twin(payload()))
        assert second["created"] and second["job"] != first["job"]
        threading.Timer(0.3, gate.open).start()
        client.status_calls = 0
        began = time.monotonic()
        final = client.wait(second["job"], poll_seconds=5.0, timeout=60)
        elapsed = time.monotonic() - began
        assert final["state"] == DONE
        # One held request, answered when the job settled; a sleep-poll
        # would have asked twice and slept the full 5 s between.
        assert client.status_calls == 1
        assert elapsed < 2.5
        assert client.result(second["job"])["stats"]["computed"] == 0

    def test_drain_releases_a_held_status_and_the_daemon_exits_zero(
        self, tmp_path
    ):
        daemon, gate = gated_daemon(tmp_path)
        exit_codes: list[int] = []
        server = threading.Thread(
            target=lambda: exit_codes.append(
                daemon.serve(install_signal_handlers=False)),
            daemon=True,
        )
        server.start()
        try:
            client = ServiceClient(daemon.endpoint)
            gate.close()
            client.submit(payload(seeds=(1,)))  # occupies the one worker
            queued = client.submit(payload(seeds=(2,)))
            assert gate.waiting.wait(60)
            answers: list[tuple[dict, float]] = []

            def hold():
                began = time.monotonic()
                summary = client.status(queued["job"], wait=15.0)
                answers.append((summary, time.monotonic() - began))

            holder = threading.Thread(target=hold, daemon=True)
            holder.start()
            holder.join(0.3)
            assert holder.is_alive()  # held: the job is still queued
            daemon.request_drain()
            holder.join(10.0)
            assert not holder.is_alive()
            ((summary, elapsed),) = answers
            assert summary["state"] == QUEUED
            assert elapsed < 5.0
        finally:
            gate.open()  # the running job checkpoints at this cell
            server.join(60)
        assert not server.is_alive()
        assert exit_codes == [0]
        assert not daemon.endpoint_path.exists()

    def test_wait_parameter_is_validated_and_clamped(self, gated, monkeypatch):
        daemon, gate = gated
        client = ServiceClient(daemon.endpoint)
        gate.close()
        job = client.submit(payload())["job"]
        for bad in ("abc", "-1", "nan"):
            for path in (f"/v1/jobs/{job}?wait={bad}",
                         f"/v1/jobs/{job}/events?offset=0&wait={bad}"):
                status, document, _ = client._request("GET", path)
                assert status == 400, (path, document)
                assert "wait" in document["error"]
        # A hold past the cap is cut to the cap: 0.3 s here, not 1000 s.
        monkeypatch.setattr(daemon_module, "MAX_WAIT_SECONDS", 0.3)
        assert gate.waiting.wait(60)  # running, its first cell held
        began = time.monotonic()
        summary = client.status(job, wait=1000)
        elapsed = time.monotonic() - began
        assert summary["state"] == RUNNING
        assert 0.25 <= elapsed < 10.0

    def test_watch_yields_every_cell_in_fewer_requests(self, gated):
        daemon, gate = gated
        client = CountingClient(daemon.endpoint)
        cells = 4
        gate.close(hold_from=cells)  # three cells report, the fourth waits
        job = client.submit(payload(policies=["lru", "random"],
                                    seeds=(1, 2)))["job"]
        assert gate.waiting.wait(120)
        threading.Timer(0.3, gate.open).start()
        began = time.monotonic()
        events = list(client.watch(job, poll_seconds=5.0, timeout=120))
        elapsed = time.monotonic() - began
        kinds = [event.get("kind") for event in events]
        assert kinds.count("job.cell") == cells
        assert kinds[-1] == "job.state" and events[-1]["state"] == DONE
        assert client.events_calls < cells + 1
        assert elapsed < 2.5

    def test_client_stopwatch_covers_queue_wait_plus_run(self, client):
        bodies = [payload(seeds=(seed,)) for seed in (1, 2, 3)]
        for body in bodies:
            began = time.monotonic()
            summary = client.submit(body)
            final = client.wait(summary["job"], poll_seconds=1.0, timeout=120)
            stopwatch = time.monotonic() - began
            queue_wait = final["started_at"] - final["submitted_at"]
            run = final["finished_at"] - final["started_at"]
            assert queue_wait >= 0 and run >= 0
            assert stopwatch >= queue_wait + run
        latency = client.stats()["latency_ms"]
        assert latency["finished_jobs"] == len(bodies)
        for stage in ("queue_wait", "run"):
            assert 0 <= latency[stage]["p50"] <= latency[stage]["p90"]


# ---------------------------------------------------------------------------
# kill -9 the server mid-job; restart; prove zero recomputation
# ---------------------------------------------------------------------------
_CRASH_CHILD = textwrap.dedent("""
    import json, os, signal, sys
    from repro.experiments.faults import ServiceFaultPlan
    from repro.service import JobManager, ServiceConfig

    data_dir, payload_path = sys.argv[1], sys.argv[2]
    payload = json.loads(open(payload_path).read())
    calls = {"cells": 0}

    def stall():
        calls["cells"] += 1
        if calls["cells"] == 2:
            # The real thing: no atexit, no finally blocks, no flushes.
            os.kill(os.getpid(), signal.SIGKILL)

    manager = JobManager(
        data_dir,
        config=ServiceConfig(workers=1),
        faults=ServiceFaultPlan(stall_cells=1000, stall=stall),
    )
    record, created = manager.submit(payload)
    assert created
    manager.run_once()
    raise SystemExit("unreachable: the fault plan kills the process")
""")


class TestKillDashNine:
    def test_sigkill_mid_job_then_restart_is_bit_identical(self, tmp_path):
        # 2 workloads x 2 policies = 4 cells; the child dies by SIGKILL
        # right after the second cell is durably cached and journaled.
        body = payload(policies=["lru", "random"], seeds=(1, 2))
        payload_path = tmp_path / "payload.json"
        payload_path.write_text(json.dumps(body))
        data_dir = tmp_path / "svc"

        child = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(data_dir),
             str(payload_path)],
            env=_env_with_src(), capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr

        # The cells computed before the kill survived durably.
        cache = CellCache(data_dir / "cache")
        survived = cache.digests()
        assert len(survived) == 2

        # The journal replays the interrupted world: the job was
        # journaled as started and never finished.
        replayed = JobStore(data_dir).replay()
        (job_id,) = replayed
        assert replayed[job_id].state == "running"

        # Restart: the manager reclaims the dead incarnation's lease,
        # re-queues the job, and the re-run completes from cache.
        reborn = JobManager(data_dir, config=ServiceConfig(workers=1))
        record = reborn.jobs[job_id]
        assert reborn.recovered_requeued == 1
        assert record.state == QUEUED
        assert reborn.run_once()
        assert record.state == DONE
        document = reborn.store.get_result(job_id)
        assert document["exit_code"] == 0

        # Zero recomputation, proven from the cell journal: every digest
        # transitions to "computed" exactly once across both processes.
        events = CellJournal.read(cache.journal_path)
        computed = [e["digest"] for e in events if e["event"] == "computed"]
        assert len(computed) == 4
        assert len(set(computed)) == 4
        assert set(survived) <= set(computed)

        # Bit-identical: an undisturbed run of the same spec in a fresh
        # directory lands on the same grid_signature.
        pristine = JobManager(tmp_path / "baseline",
                              config=ServiceConfig(workers=1))
        baseline, _ = pristine.submit(body)
        pristine.run_once()
        assert baseline.grid_signature == record.grid_signature
        reborn.close()
        pristine.close()


# ---------------------------------------------------------------------------
# SIGTERM the real daemon; graceful drain to exit 0
# ---------------------------------------------------------------------------
class TestGracefulDrain:
    def test_sigterm_drains_to_exit_zero_without_torn_state(self, tmp_path):
        data_dir = tmp_path / "svc"
        log_path = tmp_path / "server.log"
        with open(log_path, "w") as log:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--data-dir", str(data_dir), "--port", "0", "--workers", "1"],
                env=_env_with_src(), stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            endpoint_path = data_dir / "endpoint.json"
            deadline = time.monotonic() + 60
            while not endpoint_path.exists():
                assert time.monotonic() < deadline, log_path.read_text()
                assert server.poll() is None, log_path.read_text()
                time.sleep(0.1)
            client = ServiceClient.from_endpoint_file(endpoint_path)

            body = payload(policies=["lru", "random"], seeds=(1, 2),
                           trace_scale=0.1)
            summary = client.submit(body)
            job_id = summary["job"]
            # Let the job make some progress, then pull the plug.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                page = client.events(job_id)
                if (page["state"] in TERMINAL_STATES
                        or any(e.get("kind") == "job.cell"
                               for e in page["events"])):
                    break
                time.sleep(0.05)
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=120) == 0, log_path.read_text()
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)

        # Clean shutdown: discovery file removed, no temp droppings,
        # and every journal line (jobs + cells) parses intact.
        assert not (data_dir / "endpoint.json").exists()
        assert not list(data_dir.rglob("*.tmp*"))
        store = JobStore(data_dir)
        raw_lines = [line for line in
                     store.journal_path.read_text().splitlines() if line]
        assert len(store.events()) == len(raw_lines)
        record = store.replay()[job_id]
        assert record.state in (QUEUED, DONE)
        if record.state == QUEUED:
            assert record.drained or record.requeues >= 1

        cell_journal = data_dir / "cache" / "journal.jsonl"
        if cell_journal.exists():
            raw_cells = [line for line in
                         cell_journal.read_text().splitlines() if line]
            assert len(CellJournal.read(cell_journal)) == len(raw_cells)

        # A restarted manager finishes the drained job from cache,
        # converging on the same signature as an undisturbed run.
        reborn = JobManager(data_dir, config=ServiceConfig(workers=1))
        revived = reborn.jobs[job_id]
        while revived.state not in TERMINAL_STATES:
            assert reborn.run_once()
        assert revived.state == DONE

        pristine = JobManager(tmp_path / "baseline",
                              config=ServiceConfig(workers=1))
        baseline, _ = pristine.submit(body)
        pristine.run_once()
        assert baseline.grid_signature == revived.grid_signature
        reborn.close()
        pristine.close()
