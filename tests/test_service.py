"""The job service, unit level: spec identity, journal replay, the
manager's state machine, and the service-shaped fault modes.

Everything here runs on a :class:`ManualClock` — deadline expiry, retry
backoff, heartbeat pacing, and drain checkpointing are exercised by
advancing a hand-cranked clock, never by sleeping.  The subprocess-level
drills (kill -9 the daemon, SIGTERM drain, the HTTP surface) live in
``test_service_daemon.py``.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro.workloads.suite as suite_module
from repro.experiments.content import cell_digest, cell_signature
from repro.experiments.faults import ServiceFaultPlan
from repro.experiments.journal import CellJournal
from repro.experiments.runner import CellResult, run_cell
from repro.experiments.scheduler import SweepScheduler
from repro.frontend.config import FrontEndConfig
from repro.service import (
    JobManager,
    JobSpec,
    JobStore,
    JobValidationError,
    ManualClock,
    QueueFullError,
    DrainingError,
    ServiceConfig,
    UnknownJobError,
)
from repro.service.jobs import CANCELLED, DONE, EXPIRED, FAILED, QUEUED, RUNNING
from repro.util.rng import derive_seed
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload

# Small enough that a full job runs in well under a second.
TINY_CONFIG = {
    "icache_bytes": 8 * 1024,
    "icache_assoc": 4,
    "btb_entries": 256,
    "warmup_cap_instructions": 1000,
}


def payload(policies=("lru",), seed=1, **extra):
    body = {
        "workloads": [
            {"category": "short-mobile", "seed": seed, "trace_scale": 0.02,
             "footprint_scale": 0.3}
        ],
        "policies": list(policies),
        "config": dict(TINY_CONFIG),
    }
    body.update(extra)
    return body


@pytest.fixture
def clock():
    return ManualClock()


# Managers and stores a test opened; each holds an append handle on its
# journal, closed when the test ends.
_OPENED: list = []


@pytest.fixture(autouse=True)
def close_opened_journals():
    yield
    while _OPENED:
        _OPENED.pop().close()


def opened(journaled):
    _OPENED.append(journaled)
    return journaled


def manager_for(tmp_path, clock, *, config=None, faults=None):
    return opened(JobManager(
        tmp_path / "svc",
        config=config or ServiceConfig(workers=1, max_queue_depth=4),
        clock=clock.service_clock(),
        faults=faults,
    ))


# ---------------------------------------------------------------------------
# ManualClock
# ---------------------------------------------------------------------------
class TestManualClock:
    def test_advance_moves_both_clocks_in_lockstep(self, clock):
        wall, mono = clock.wall(), clock.monotonic()
        clock.advance(7.5)
        assert clock.wall() == wall + 7.5
        assert clock.monotonic() == mono + 7.5

    def test_sleep_records_and_advances_instead_of_blocking(self, clock):
        before = clock.monotonic()
        clock.sleep(3.0)
        assert clock.sleeps == [3.0]
        assert clock.monotonic() == before + 3.0

    def test_clock_cannot_run_backwards(self, clock):
        with pytest.raises(ValueError):
            clock.advance(-1.0)


# ---------------------------------------------------------------------------
# JobSpec: validation and content identity
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_fingerprint_ignores_key_order_and_default_spelling(self):
        explicit = JobSpec.from_payload(payload(engine="reference", verify="off"))
        minimal = JobSpec.from_payload(payload())
        assert explicit.fingerprint() == minimal.fingerprint()

    def test_fingerprint_ignores_deadline_and_retries(self):
        # Deadline and retry budget change how a job runs, not what it
        # computes, so they stay out of the content address.
        a = JobSpec.from_payload(payload(deadline_seconds=5, max_retries=3))
        b = JobSpec.from_payload(payload())
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_differs_by_content(self):
        assert (JobSpec.from_payload(payload(seed=1)).fingerprint()
                != JobSpec.from_payload(payload(seed=2)).fingerprint())

    def test_category_underscore_normalized(self):
        spec = JobSpec.from_payload(payload())
        alt = payload()
        alt["workloads"][0]["category"] = "short_mobile"
        assert JobSpec.from_payload(alt).fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.update(bogus=1),
            lambda p: p.update(policies=[]),
            lambda p: p.update(policies=["not-a-policy"]),
            lambda p: p.update(engine="quantum"),
            lambda p: p.update(verify="maybe"),
            lambda p: p.update(config={"no_such_knob": 1}),
            # Fields removed in 1.2.0: a journaled job naming one no
            # longer validates, so replay skips it.
            lambda p: p.update(config={"prefetcher": "next-line"}),
            lambda p: p.update(config={"indirect_predictor": True}),
            lambda p: p["workloads"][0].update(category="desktop"),
            lambda p: p["workloads"][0].update(seed=True),
            lambda p: p["workloads"][0].update(trace_scale=0),
            # Removed in 1.3.0: the front end has one direction predictor.
            lambda p: p.update(config={"direction_predictor": "gshare"}),
        ],
    )
    def test_bad_payload_rejected(self, mutate):
        body = payload()
        mutate(body)
        with pytest.raises(JobValidationError):
            JobSpec.from_payload(body)

    def test_job_id_survives_the_direction_predictor_removal(self):
        # Computed with 1.2.0, when FrontEndConfig still had a
        # direction_predictor field: a payload that never named it keeps
        # its job id, because the id covers the submitted overrides only.
        body = {
            "workloads": [{"category": "short-server", "seed": 2018,
                           "trace_scale": 0.05}],
            "policies": ["lru", "ghrp"],
            "config": {"icache_bytes": 16384, "warmup_fraction": 0.25},
            "engine": "fast",
        }
        assert JobSpec.from_payload(body).fingerprint() == "dccaea37eb9f0fb5"

    def test_round_trip_through_canonical_payload(self):
        spec = JobSpec.from_payload(payload())
        again = JobSpec.from_payload(spec.payload())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_build_workloads_is_deterministic(self):
        spec = JobSpec.from_payload(payload(seed=7))
        first, second = spec.build_workloads(), spec.build_workloads()
        assert first == second
        # Identity only: nothing is built until a cell needs the program.
        assert all(w._lowered is None for w in first + second)
        built = make_workload("short-mobile-7", Category.SHORT_MOBILE, seed=7,
                              trace_scale=0.02, footprint_scale=0.3)
        assert first == [built]
        config = spec.build_config()
        assert (cell_digest(first[0], "lru", config)
                == cell_digest(built, "lru", config))
        assert list(first[0].records()) == list(second[0].records())
        assert list(first[0].records()) == list(built.records())
        assert first[0].instruction_count() == built.instruction_count()


# ---------------------------------------------------------------------------
# JobStore: the durable journal
# ---------------------------------------------------------------------------
class TestJobStore:
    def test_journal_lines_replay_through_celljournal(self, tmp_path):
        store = opened(JobStore(tmp_path))
        store.append("submitted", "j1", spec=JobSpec.from_payload(payload()).payload(),
                     submitted_at=1.0, max_retries=0)
        store.append("started", "j1", attempt=0, at=2.0)
        events = CellJournal.read(store.journal_path)
        assert [e["event"] for e in events] == ["submitted", "started"]

    def test_replay_folds_lifecycle(self, tmp_path):
        store = opened(JobStore(tmp_path))
        spec = JobSpec.from_payload(payload())
        store.append("submitted", "j1", spec=spec.payload(), submitted_at=1.0,
                     max_retries=1)
        store.append("started", "j1", attempt=0, at=2.0)
        store.append("attempt_failed", "j1", attempt=0, error="boom",
                     kind="RuntimeError")
        store.append("requeued", "j1", reason="retry", backoff_seconds=0.5)
        store.append("started", "j1", attempt=1, at=3.0)
        store.append("done", "j1", at=4.0, grid_signature="s" * 64,
                     partial=False, degraded_cells=0)
        record = store.replay()["j1"]
        assert record.state == DONE
        assert record.attempts == 2
        assert record.requeues == 1
        assert record.grid_signature == "s" * 64
        assert record.result_available

    def test_torn_tail_line_is_skipped_on_replay(self, tmp_path):
        store = opened(JobStore(tmp_path))
        spec = JobSpec.from_payload(payload())
        store.append("submitted", "j1", spec=spec.payload(), submitted_at=1.0,
                     max_retries=0)
        store.close()
        # A kill -9 mid-append can only tear the final line.
        data = store.journal_path.read_bytes()
        store.journal_path.write_bytes(data + data[: len(data) // 2])
        replayed = JobStore(tmp_path).replay()
        assert list(replayed) == ["j1"]
        assert replayed["j1"].state == QUEUED

    def test_read_progress_returns_only_complete_lines(self, tmp_path):
        store = opened(JobStore(tmp_path))
        path = store.events_path("j1")
        path.write_bytes(b'{"kind": "job.start"}\n{"kind": "job.ce')
        events, offset = store.read_progress("j1", 0)
        assert [e["kind"] for e in events] == ["job.start"]
        # The torn tail is left for the next poll; finishing the line
        # makes it readable from the returned offset.
        path.write_bytes(b'{"kind": "job.start"}\n{"kind": "job.cell"}\n')
        more, _ = store.read_progress("j1", offset)
        assert [e["kind"] for e in more] == ["job.cell"]

    def test_read_progress_restarts_when_stream_shrank(self, tmp_path):
        store = opened(JobStore(tmp_path))
        path = store.events_path("j1")
        path.write_bytes(b'{"kind": "a"}\n{"kind": "b"}\n')
        _, offset = store.read_progress("j1", 0)
        path.write_bytes(b'{"kind": "fresh"}\n')
        events, _ = store.read_progress("j1", offset)
        assert [e["kind"] for e in events] == ["fresh"]


# ---------------------------------------------------------------------------
# JobManager: admission
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_submit_then_resubmit_is_idempotent(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        first, created = manager.submit(payload())
        again, deduped = manager.submit(payload())
        assert created and not deduped
        assert again is first
        assert manager.deduplicated == 1

    def test_queue_full_rejects_with_retry_after(self, tmp_path, clock):
        manager = manager_for(
            tmp_path, clock,
            config=ServiceConfig(workers=1, max_queue_depth=1),
        )
        manager.submit(payload(seed=1))
        with pytest.raises(QueueFullError) as excinfo:
            manager.submit(payload(seed=2))
        assert excinfo.value.retry_after > 0
        assert manager.rejected_full == 1

    def test_draining_rejects_new_work(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        manager.begin_drain()
        with pytest.raises(DrainingError):
            manager.submit(payload())
        assert manager.rejected_draining == 1

    def test_dedup_wins_over_drain_rejection(self, tmp_path, clock):
        # Re-submitting a known job during drain returns it (idempotency
        # is a read), it does not 503.
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        manager.begin_drain()
        again, created = manager.submit(payload())
        assert again is record and not created

    @pytest.mark.parametrize("field, value", [
        ("deadline_seconds", -1), ("deadline_seconds", True),
        ("max_retries", -1), ("max_retries", 1.5),
    ])
    def test_bad_execution_knobs_rejected(self, tmp_path, clock, field, value):
        manager = manager_for(tmp_path, clock)
        with pytest.raises(JobValidationError):
            manager.submit(payload(**{field: value}))

    def test_unknown_job_and_unique_prefix_lookup(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        assert manager.get(record.job_id[:6]) is record
        with pytest.raises(UnknownJobError):
            manager.get("feedfacedeadbeef")


# ---------------------------------------------------------------------------
# JobManager: execution, deadlines, retries — all on the manual clock
# ---------------------------------------------------------------------------
class TestExecution:
    def test_job_runs_to_done_with_durable_result(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        assert manager.run_once()
        assert record.state == DONE
        document = manager.store.get_result(record.job_id)
        assert document["grid_signature"] == record.grid_signature
        assert document["exit_code"] == 0 and not document["partial"]
        assert len(document["cells"]) == 1

    def test_done_job_resubmission_serves_cached_result(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        manager.run_once()
        again, created = manager.submit(payload())
        assert not created and again.state == DONE
        assert not manager.run_once()  # nothing re-queued

    def test_queued_deadline_expires_lazily_on_claim(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload(deadline_seconds=5))
        clock.advance(10)
        assert manager.claim_next() is None
        assert record.state == EXPIRED
        assert "deadline" in record.error

    def test_deadline_mid_run_expires_at_cell_boundary(self, tmp_path, clock):
        faults = ServiceFaultPlan(stall_cells=1,
                                  stall=lambda: clock.advance(1000))
        manager = manager_for(tmp_path, clock, faults=faults)
        record, _ = manager.submit(payload(policies=["lru", "random"],
                                           deadline_seconds=60))
        manager.run_once()
        assert record.state == EXPIRED
        assert faults.cells_stalled == 1

    def test_terminally_failing_cell_yields_partial_done_exit_2(
        self, tmp_path, clock
    ):
        # "opt" requires a preload no sweep path performs, so its cell
        # exhausts the scheduler's retries and lands in grid.failed; the
        # job still finishes — done, partial, grid exit semantics 2.
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload(policies=["lru", "opt"]))
        manager.run_once()
        assert record.state == DONE and record.partial
        document = manager.store.get_result(record.job_id)
        assert document["exit_code"] == 2
        assert len(document["cells"]) == 1 and len(document["failed"]) == 1
        # Cell-level retry backoff slept on the manual clock: the whole
        # drill ran without one real sleep.
        assert clock.sleeps

    def test_failed_attempts_requeue_with_backoff_then_fail(self, tmp_path, clock):
        # A fault that raises out of the sweep itself (not a single
        # cell) fails the whole attempt and engages the job-level retry
        # budget.
        def explode():
            raise RuntimeError("injected sweep failure")

        faults = ServiceFaultPlan(stall_cells=10, stall=explode)
        manager = manager_for(tmp_path, clock, faults=faults)
        record, _ = manager.submit(payload(max_retries=1))
        manager.run_once()
        assert record.state == QUEUED and record.attempts == 1
        assert record.error_kind == "RuntimeError"
        # The retry is backoff-delayed on the monotonic clock: not
        # claimable now, claimable after advancing past the delay.
        assert manager.claim_next() is None
        delay = manager.next_ready_delay()
        assert delay > 0
        clock.advance(delay)
        manager.run_once()
        assert record.state == FAILED
        assert record.attempts == 2

    def test_cancel_queued_job(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        manager.cancel(record.job_id)
        assert record.state == CANCELLED
        assert not manager.run_once()

    def test_cancel_running_job_stops_at_cell_boundary(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload(policies=["lru", "random"]))
        faults = ServiceFaultPlan(
            stall_cells=1, stall=lambda: manager.cancel(record.job_id)
        )
        manager.faults = faults
        manager.run_once()
        assert record.state == CANCELLED

    def test_heartbeats_pace_on_monotonic_and_faults_drop_them(
        self, tmp_path, clock
    ):
        faults = ServiceFaultPlan(drop_heartbeats=1, stall_cells=4,
                                  stall=lambda: clock.advance(3))
        manager = manager_for(
            tmp_path, clock,
            config=ServiceConfig(workers=1, heartbeat_interval_seconds=2.0),
            faults=faults,
        )
        manager.submit(payload(policies=["lru", "random"]))
        manager.run_once()
        assert faults.heartbeats_seen >= 2
        assert faults.heartbeats_dropped == 1


# ---------------------------------------------------------------------------
# Long polls: the holds behind ``?wait=`` and the stage latencies in stats
# ---------------------------------------------------------------------------
def _hold_in_thread(hold, *args) -> tuple[threading.Thread, list]:
    """Run ``hold(*args)`` on a thread; its return value lands in the list."""
    returned: list = []
    thread = threading.Thread(target=lambda: returned.append(hold(*args)),
                              daemon=True)
    thread.start()
    return thread, returned


class TestLongPoll:
    def test_hold_returns_at_once_for_a_terminal_job(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        manager.run_once()
        began = time.monotonic()
        assert manager.wait_settled(record.job_id, 30.0) is record
        assert manager.wait_progress(record.job_id, 0, 30.0) is record
        assert time.monotonic() - began < 5.0
        assert record.state == DONE

    def test_hold_on_a_running_job_returns_when_it_settles(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        claimed = manager.claim_next()
        assert claimed is record and record.state == RUNNING
        waiter, returned = _hold_in_thread(manager.wait_settled,
                                           record.job_id, 30.0)
        waiter.join(0.2)
        assert waiter.is_alive()  # held: the job has not settled
        manager.execute(claimed)
        waiter.join(10.0)
        assert not waiter.is_alive()
        assert returned == [record] and record.state == DONE
        # Nothing advanced the manual clock: the hold reads no clock.
        assert clock.sleeps == []

    def test_progress_hold_returns_on_the_first_cell_flush(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload(policies=["lru", "random"]))
        claimed = manager.claim_next()
        waiter, returned = _hold_in_thread(manager.wait_progress,
                                           record.job_id, 0, 30.0)
        seen: list[str] = []

        def before_second_cell() -> None:
            # Runs after the first cell's event is flushed: the hold must
            # already be released while the job is still running.
            if faults.cells_stalled == 2:
                waiter.join(10.0)
                seen.append("released" if not waiter.is_alive() else "held")
                seen.append(record.state)

        faults = ServiceFaultPlan(stall_cells=2, stall=before_second_cell)
        manager.faults = faults
        manager.execute(claimed)
        assert seen == ["released", RUNNING]
        assert returned == [record]
        events, _ = manager.store.read_progress(record.job_id)
        assert [e["kind"] for e in events].count("job.cell") == 2

    def test_drain_releases_a_hold_on_a_queued_job(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        waiter, returned = _hold_in_thread(manager.wait_settled,
                                           record.job_id, 30.0)
        waiter.join(0.2)
        assert waiter.is_alive()
        manager.begin_drain()
        waiter.join(10.0)
        assert not waiter.is_alive()
        assert returned == [record] and record.state == QUEUED

    def test_no_waiter_misses_its_job_settling(self, tmp_path, clock):
        # More worker threads than cores and a tiny switch interval, so
        # transitions race the waiters' predicate checks; a lost wake-up
        # leaves a waiter held for its full 30 s.
        manager = manager_for(tmp_path, clock, config=ServiceConfig(
            workers=3, max_queue_depth=8))
        records = [manager.submit(payload(seed=seed))[0] for seed in range(1, 5)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            waiters = [
                _hold_in_thread(hold, *args)
                for record in records
                for hold, args in (
                    (manager.wait_settled, (record.job_id, 30.0)),
                    (manager.wait_progress, (record.job_id, 0, 30.0)),
                )
            ]
            def work() -> None:
                while manager.run_once():
                    pass

            workers = [threading.Thread(target=work, daemon=True)
                       for _ in range(3)]
            for worker in workers:
                worker.start()
            for thread in workers + [thread for thread, _ in waiters]:
                thread.join(20.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert all(record.state == DONE for record in records)
        assert all(len(returned) == 1 for _, returned in waiters)

    def test_stats_report_queue_wait_and_run_percentiles(self, tmp_path, clock):
        faults = ServiceFaultPlan(stall_cells=10,
                                  stall=lambda: clock.advance(3.0))
        manager = manager_for(tmp_path, clock, faults=faults)
        assert manager.stats()["latency_ms"] == {
            "finished_jobs": 0,
            "queue_wait": {"p50": None, "p90": None},
            "run": {"p50": None, "p90": None},
        }
        manager.submit(payload(seed=1))
        manager.submit(payload(seed=2))
        cancelled, _ = manager.submit(payload(seed=3))
        manager.cancel(cancelled.job_id)  # never started: not counted
        clock.advance(2.0)
        manager.run_once()  # queued 2 s, one 3 s cell
        manager.run_once()  # queued 5 s, one 3 s cell
        latency = manager.stats()["latency_ms"]
        assert latency["finished_jobs"] == 2
        assert latency["queue_wait"] == {"p50": 2000.0, "p90": 5000.0}
        assert latency["run"] == {"p50": 3000.0, "p90": 3000.0}


def cells_of(document) -> list[dict]:
    return [cell_signature(CellResult(**cell)) for cell in document["cells"]]


class TestCachedJobs:
    """A job builds programs and replays the cell journal only for the
    cells it computes; everything already cached is a pure read."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"builds": [], "replays": 0}
        build, replay = suite_module.build_program, CellJournal.replay

        def counting_build(spec, seed):
            seen["builds"].append(seed)
            return build(spec, seed)

        def counting_replay(journal):
            seen["replays"] += 1
            return replay(journal)

        monkeypatch.setattr(suite_module, "build_program", counting_build)
        monkeypatch.setattr(CellJournal, "replay", counting_replay)
        return seen

    @staticmethod
    def two_workloads(**extra):
        body = payload(**extra)
        body["workloads"].append(dict(body["workloads"][0], seed=2))
        return body

    def test_all_cached_job_builds_nothing_and_replays_nothing(
        self, tmp_path, clock, counts
    ):
        manager = manager_for(tmp_path, clock)
        first, _ = manager.submit(self.two_workloads(policies=["lru", "random"]))
        manager.run_once()
        assert first.state == DONE
        assert len(counts["builds"]) == 2 and counts["replays"] == 1

        # A default config field spelled out: a new job over the same
        # cell digests.
        body = self.two_workloads(policies=["lru", "random"])
        body["config"]["warmup_fraction"] = FrontEndConfig().warmup_fraction
        counts["builds"].clear()
        counts["replays"] = 0
        second, created = manager.submit(body)
        assert created and second.job_id != first.job_id
        manager.run_once()
        assert second.state == DONE
        assert counts == {"builds": [], "replays": 0}
        document = manager.store.get_result(second.job_id)
        assert document["stats"]["computed"] == 0
        assert document["stats"]["cache_hits"] == 4
        assert document["grid_signature"] == first.grid_signature

    def test_one_missing_cell_builds_only_its_workload(
        self, tmp_path, clock, counts
    ):
        manager = manager_for(tmp_path, clock)
        manager.submit(payload())
        manager.run_once()
        counts["builds"].clear()
        counts["replays"] = 0

        record, _ = manager.submit(self.two_workloads())
        manager.run_once()
        assert record.state == DONE
        (missing,) = JobSpec.from_payload(self.two_workloads()).build_workloads()[1:]
        assert counts["builds"] == [
            derive_seed(2, "program", missing.name)
        ]
        assert counts["replays"] == 1
        document = manager.store.get_result(record.job_id)
        assert document["stats"]["computed"] == 1
        assert document["stats"]["cache_hits"] == 1

        direct = SweepScheduler(
            tmp_path / "direct", FrontEndConfig(**TINY_CONFIG)
        ).run([missing], ["lru"])
        (cell,) = [c for c in cells_of(document) if c["workload"] == missing.name]
        assert cell == cell_signature(direct.cells[0])

    def test_jobs_memoize_warm_ups(self, tmp_path, clock):
        # Two jobs that differ only in measurement length share one
        # warm-up: the first writes the snapshot, the second resumes it.
        manager = manager_for(tmp_path, clock)
        documents = []
        for limit in (6000, 9000):
            body = payload(engine="fast")
            body["config"]["max_instructions"] = limit
            record, _ = manager.submit(body)
            manager.run_once()
            assert record.state == DONE
            documents.append(manager.store.get_result(record.job_id))
        assert documents[0]["stats"]["snapshot_writes"] == 1
        assert documents[1]["stats"]["snapshot_hits"] == 1
        (workload,) = JobSpec.from_payload(payload()).build_workloads()
        for limit, document in zip((6000, 9000), documents):
            config = FrontEndConfig(**TINY_CONFIG, max_instructions=limit)
            expected = run_cell(workload, "lru", config, engine="fast")
            assert cells_of(document) == [cell_signature(expected)]


# ---------------------------------------------------------------------------
# Drain and recovery
# ---------------------------------------------------------------------------
class TestDrainAndRecovery:
    def test_drain_checkpoints_and_fresh_manager_resumes_from_cache(
        self, tmp_path, clock
    ):
        manager = manager_for(tmp_path, clock)
        faults = ServiceFaultPlan(stall_cells=1, stall=manager.begin_drain)
        manager.faults = faults
        record, _ = manager.submit(payload(policies=["lru", "random"]))
        manager.run_once()
        assert record.state == QUEUED
        assert record.drained

        resumed = manager_for(tmp_path, clock)
        revived = resumed.jobs[record.job_id]
        assert revived.state == QUEUED and revived.drained
        assert resumed.run_once()
        assert revived.state == DONE
        # The checkpointed cell came back as a cache hit: exactly one
        # "computed" journal entry per digest across both runs.
        events = CellJournal.read(resumed.cache.journal_path)
        computed = [e["digest"] for e in events if e["event"] == "computed"]
        assert len(computed) == len(set(computed)) == 2

    def test_interrupted_running_job_is_requeued_on_recovery(
        self, tmp_path, clock
    ):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        spec_payload = record.spec.payload()
        # Simulate a crash after "started": journal the transition but
        # never run the job.
        manager.store.append("started", record.job_id, attempt=0, at=1.0)
        manager.store.close()

        reborn = manager_for(tmp_path, clock)
        revived = reborn.jobs[record.job_id]
        assert revived.state == QUEUED
        assert revived.requeues == 1
        assert reborn.recovered_requeued == 1
        assert revived.spec.payload() == spec_payload
        assert reborn.run_once()
        assert revived.state == DONE

    def test_done_without_result_file_recomputes(self, tmp_path, clock):
        manager = manager_for(tmp_path, clock)
        record, _ = manager.submit(payload())
        manager.run_once()
        manager.store.close()
        manager.store.result_path(record.job_id).unlink()

        reborn = manager_for(tmp_path, clock)
        revived = reborn.jobs[record.job_id]
        assert revived.state == QUEUED
        assert reborn.run_once()
        assert revived.state == DONE
        assert reborn.store.get_result(record.job_id) is not None

    def test_torn_submit_line_forgets_the_job(self, tmp_path, clock):
        faults = ServiceFaultPlan(torn_submits=1)
        manager = manager_for(tmp_path, clock, faults=faults)
        record, _ = manager.submit(payload())
        assert faults.submits_torn == 1
        manager.store.close()
        # The durable line was torn mid-append; a restart replays to a
        # world where the submission never happened…
        reborn = manager_for(tmp_path, clock)
        assert record.job_id not in reborn.jobs
        # …and the client's idempotent re-submission lands the same id.
        again, created = reborn.submit(payload())
        assert created and again.job_id == record.job_id


# ---------------------------------------------------------------------------
# ServiceFaultPlan mechanics
# ---------------------------------------------------------------------------
class TestServiceFaultPlan:
    def test_heartbeat_drops_are_one_shot(self):
        plan = ServiceFaultPlan(drop_heartbeats=2)
        assert [plan.take_heartbeat() for _ in range(4)] == [
            False, False, True, True
        ]
        assert plan.heartbeats_seen == 4
        assert plan.heartbeats_dropped == 2

    def test_stall_fires_for_first_n_cells(self):
        hits = []
        plan = ServiceFaultPlan(stall_cells=2, stall=lambda: hits.append(1))
        for _ in range(4):
            plan.before_job_cell("j1")
        assert len(hits) == 2
        assert plan.cells_stalled == 2

    def test_tear_targets_only_submit_lines(self):
        plan = ServiceFaultPlan(torn_submits=1)
        assert not plan.tear_journal("started")
        assert plan.tear_journal("submitted")
        assert not plan.tear_journal("submitted")
        assert plan.submits_torn == 1
