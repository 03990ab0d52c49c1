"""The job state machine: admission, execution, recovery, drain.

:class:`JobManager` owns everything between the HTTP layer and the
sweep scheduler.  It is deliberately synchronous and thread-safe rather
than threaded itself: workers (daemon threads, or a test calling
:meth:`run_once` inline) pull jobs through :meth:`claim_next` /
:meth:`execute`, so every robustness path — deadline expiry, retry
backoff, drain checkpointing, lease reclaim — runs deterministically
under a :class:`~repro.service.clock.ManualClock` with no real sleeps.

Robustness invariants:

- **Journal-first transitions.**  Every state change is appended to the
  :class:`~repro.service.jobs.JobStore` journal before the in-memory
  record moves, so a ``kill -9`` at any instant replays to a coherent
  state: queued jobs re-queue, running jobs' leases are reclaimed and
  re-queued, finished jobs serve their durable results.
- **Results before ``done``.**  A job's result document is atomically
  persisted before its ``done`` event is journaled; a crash between the
  two re-runs a sweep that is 100% cache hits (zero recomputation),
  converging on the identical ``grid_signature``.
- **Admission is bounded.**  Beyond ``max_queue_depth`` queued jobs,
  submission raises :class:`QueueFullError` (HTTP 429 + Retry-After);
  during drain it raises :class:`DrainingError` (HTTP 503).
- **Drain checkpoints at cell boundaries.**  :meth:`begin_drain` makes
  in-flight jobs raise out of the sweep at the next completed cell;
  the cells already computed are in the content-addressed cache, the
  job re-queues with ``reason="drain"``, and a later run (this process
  or the next) resumes from cache.
- **Waiters hear every change.**  Each state transition, each flushed
  ``job.cell`` progress event and the start of a drain notify one
  condition on the manager's lock, so :meth:`wait_settled` and
  :meth:`wait_progress` (the daemon's ``?wait=`` long-polls) answer the
  moment a job settles instead of on a client's next poll.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.cellcache import CellCache
from repro.experiments.content import grid_signature
from repro.experiments.journal import LeaseManager
from repro.experiments.runner import CellResult, GridResult
from repro.experiments.scheduler import SchedulerConfig, SweepScheduler
from repro.experiments.supervisor import RetryPolicy
from repro.obs import NULL_OBS, Observability, get_logger
from repro.obs.events import EventTracer
from repro.service.clock import SYSTEM_CLOCK, ServiceClock
from repro.service.jobs import (
    CANCELLED,
    DONE,
    EXPIRED,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    JobStore,
    JobValidationError,
)

__all__ = [
    "AdmissionError",
    "DrainingError",
    "JobManager",
    "QueueFullError",
    "ServiceConfig",
    "UnknownJobError",
]

_LOG = get_logger("service.manager")


class AdmissionError(RuntimeError):
    """A submission was refused; ``retry_after`` advises when to retry."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class QueueFullError(AdmissionError):
    """The bounded queue is full (HTTP 429)."""


class DrainingError(AdmissionError):
    """The daemon is draining and no longer admits work (HTTP 503)."""


class UnknownJobError(KeyError):
    """No job matches the requested id (HTTP 404)."""


class _JobInterrupted(Exception):
    """Raised out of a sweep at a cell boundary (drain/cancel/deadline)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Service-level knobs (the per-job spec carries the rest)."""

    workers: int = 2
    max_queue_depth: int = 16
    default_max_retries: int = 1
    default_deadline_seconds: float | None = None
    #: Job-level backoff between failed attempts (cell-level retries
    #: inside a sweep have their own policy in the scheduler).
    retry: RetryPolicy = RetryPolicy(
        max_retries=1, backoff_base_seconds=0.25, jitter_fraction=0.1
    )
    lease_expiry_seconds: float = 30.0
    heartbeat_interval_seconds: float = 2.0
    #: Advisory Retry-After seconds on 429/503 rejections.
    retry_after_seconds: float = 2.0
    snapshots: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")


class JobManager:
    """Thread-safe job queue + executor over one service data directory."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        config: ServiceConfig | None = None,
        clock: ServiceClock = SYSTEM_CLOCK,
        faults=None,
        obs: Observability = NULL_OBS,
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.config = config or ServiceConfig()
        self.clock = clock
        self.faults = faults
        self.obs = obs
        tear = faults.tear_journal if faults is not None else None
        self.store = JobStore(self.data_dir, tear_line=tear)
        self.cache = CellCache(self.data_dir / "cache")
        self.leases = LeaseManager(
            self.data_dir / "job-leases",
            expiry_seconds=self.config.lease_expiry_seconds,
            clock=clock.wall,
        )
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        #: Notified on every job state transition, progress flush and
        #: drain; long-polling status and progress requests wait on it.
        self._changed = threading.Condition(self._lock)
        self.jobs: dict[str, JobRecord] = {}
        #: (ready_at on the monotonic clock, job_id) — a plain list
        #: scanned on claim; queues are tens of entries, not thousands.
        self._ready: list[tuple[float, str]] = []
        self._draining = False
        self._last_heartbeat = 0.0
        # Admission / recovery counters for /stats.
        self.accepted = 0
        self.deduplicated = 0
        self.resubmitted = 0
        self.rejected_full = 0
        self.rejected_draining = 0
        self.recovered_requeued = 0
        self.recover()

    # -- recovery -------------------------------------------------------
    def recover(self) -> None:
        """Replay the journal; re-queue interrupted work.

        Jobs journaled as running belong to a previous incarnation:
        their leases are reclaimed through :class:`LeaseManager` (the
        dead-pid fast path breaks them immediately on the same host)
        and the jobs re-enter the queue.  A lease held by a *live*
        owner — another daemon sharing the directory — is respected.
        """
        with self._lock:
            self.jobs = self.store.replay()
            now = self.clock.monotonic()
            for job_id in sorted(self.jobs):
                record = self.jobs[job_id]
                if record.state == RUNNING:
                    lease = self.leases.claim(job_id)
                    if lease is None:
                        continue  # a live owner elsewhere still runs it
                    self.leases.release(job_id)
                    self.store.append("requeued", job_id, reason="recovered")
                    record.state = QUEUED
                    record.requeues += 1
                    self.recovered_requeued += 1
                    _LOG.warning("recovered interrupted job %s (re-queued)",
                                 job_id)
                if record.state == QUEUED:
                    self._push_ready(job_id, now)
                elif record.state == DONE and self.store.get_result(job_id) is None:
                    # Durable-write ordering makes this unreachable from a
                    # crash; it means result files were deleted out from
                    # under us.  Recompute (pure cache hits if the cells
                    # survived) rather than serve a 404 forever.
                    self.store.append("requeued", job_id, reason="result-missing")
                    record.state = QUEUED
                    record.requeues += 1
                    record.result_available = False
                    self._push_ready(job_id, now)

    # -- admission ------------------------------------------------------
    def submit(self, payload: object) -> tuple[JobRecord, bool]:
        """Admit one job; returns ``(record, created)``.

        Idempotent by content: a payload normalizing to an existing
        live-or-done job returns that record with ``created=False``.  A
        spec whose previous run ended failed/cancelled/expired re-queues
        fresh.  Raises :class:`JobValidationError`,
        :class:`QueueFullError`, or :class:`DrainingError`.
        """
        spec = JobSpec.from_payload(payload)
        deadline = payload.get("deadline_seconds",
                               self.config.default_deadline_seconds)
        if deadline is not None and (not isinstance(deadline, (int, float))
                                     or isinstance(deadline, bool)
                                     or deadline <= 0):
            raise JobValidationError("deadline_seconds must be a positive number")
        retries = payload.get("max_retries", self.config.default_max_retries)
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise JobValidationError("max_retries must be a non-negative integer")
        job_id = spec.fingerprint()
        with self._lock:
            existing = self.jobs.get(job_id)
            if existing is not None and existing.state not in (
                FAILED, CANCELLED, EXPIRED,
            ):
                self.deduplicated += 1
                self.obs.inc("service.submissions_deduplicated")
                return existing, False
            if self._draining:
                self.rejected_draining += 1
                self.obs.inc("service.submissions_rejected_draining")
                raise DrainingError("service is draining",
                                    self.config.retry_after_seconds)
            if len(self._ready) >= self.config.max_queue_depth:
                self.rejected_full += 1
                self.obs.inc("service.submissions_rejected_full")
                raise QueueFullError(
                    f"queue full ({self.config.max_queue_depth} jobs)",
                    self.config.retry_after_seconds,
                )
            record = JobRecord(
                job_id=job_id, spec=spec, state=QUEUED,
                submitted_at=self.clock.wall(),
                deadline_seconds=(float(deadline) if deadline is not None
                                  else None),
                max_retries=retries,
            )
            self.store.append(
                "submitted", job_id, spec=spec.payload(),
                submitted_at=record.submitted_at,
                deadline_seconds=record.deadline_seconds,
                max_retries=record.max_retries,
            )
            if existing is not None:
                self.resubmitted += 1
            else:
                self.accepted += 1
            self.obs.inc("service.submissions_accepted")
            self.jobs[job_id] = record
            self._push_ready(job_id, self.clock.monotonic())
            self._work.notify()
            return record, True

    def get(self, job_id: str) -> JobRecord:
        """Exact id, or a unique prefix of one (like git revisions)."""
        with self._lock:
            record = self.jobs.get(job_id)
            if record is not None:
                return record
            matches = [j for j in sorted(self.jobs) if j.startswith(job_id)]
            if len(matches) == 1:
                return self.jobs[matches[0]]
            raise UnknownJobError(job_id)

    def list_jobs(self) -> list[dict]:
        with self._lock:
            ordered = sorted(self.jobs.values(),
                             key=lambda r: (r.submitted_at, r.job_id))
            return [record.summary() for record in ordered]

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued jobs immediately, running ones at the
        next cell boundary; terminal jobs are a no-op."""
        with self._lock:
            record = self.get(job_id)
            if record.state in TERMINAL_STATES:
                return record
            if record.state == RUNNING:
                record.cancel_requested = True
                return record
            self._drop_ready(record.job_id)
            self.store.append("cancelled", record.job_id,
                              at=self.clock.wall())
            record.state = CANCELLED
            record.finished_at = self.clock.wall()
            self.obs.inc("service.jobs_cancelled")
            self._changed.notify_all()
            return record

    # -- queue mechanics ------------------------------------------------
    def _push_ready(self, job_id: str, ready_at: float) -> None:
        self._ready.append((ready_at, job_id))

    def _drop_ready(self, job_id: str) -> None:
        self._ready = [(t, j) for t, j in self._ready if j != job_id]

    def claim_next(self) -> JobRecord | None:
        """Pop the next runnable job, journaling its ``started`` event.

        Lazily enforces deadlines: a queued job past its deadline is
        expired here rather than run.
        """
        with self._lock:
            now_mono = self.clock.monotonic()
            now_wall = self.clock.wall()
            remaining: list[tuple[float, str]] = []
            claimed: JobRecord | None = None
            expired = False
            for ready_at, job_id in sorted(self._ready):
                record = self.jobs.get(job_id)
                if claimed is not None or record is None or record.state != QUEUED:
                    if record is not None and record.state == QUEUED:
                        remaining.append((ready_at, job_id))
                    continue
                if ready_at > now_mono:
                    remaining.append((ready_at, job_id))
                    continue
                deadline = record.deadline_at
                if deadline is not None and now_wall > deadline:
                    self.store.append(EXPIRED, job_id, at=now_wall,
                                      error="deadline exceeded before start")
                    record.state = EXPIRED
                    record.error = "deadline exceeded before start"
                    record.finished_at = now_wall
                    self.obs.inc("service.jobs_expired")
                    expired = True
                    continue
                if self.leases.claim(job_id) is None:
                    remaining.append((now_mono + 1.0, job_id))
                    continue
                record.attempts += 1
                record.state = RUNNING
                record.started_at = now_wall
                self.store.append("started", job_id,
                                  attempt=record.attempts - 1, at=now_wall)
                claimed = record
            self._ready = remaining
            if claimed is not None or expired:
                self._changed.notify_all()
            return claimed

    def next_ready_delay(self) -> float | None:
        """Seconds until the earliest queued job is runnable (None: empty)."""
        with self._lock:
            if not self._ready:
                return None
            earliest = min(ready_at for ready_at, _ in self._ready)
            return max(0.0, earliest - self.clock.monotonic())

    # -- execution ------------------------------------------------------
    def execute(self, record: JobRecord) -> None:
        """Run one claimed job to its next state transition."""
        job_id = record.job_id
        spec = record.spec
        tracer = EventTracer.open(self.store.events_path(job_id))
        # The progress stream rides the obs tracer, but only job-level
        # events: the per-eviction simulation firehose would bury the
        # cell milestones a watcher polls for.
        obs = Observability(tracer=tracer)
        scheduler = SweepScheduler(
            self.cache,
            spec.build_config(),
            scheduler=SchedulerConfig(
                # Stable per-(job, process) owner: retries and drain
                # resumes inside one daemon re-enter their own cell
                # leases; a successor daemon's different pid lets the
                # dead-owner fast path break them.
                owner=f"job:{job_id}:{os.getpid()}",
                lease_expiry_seconds=self.config.lease_expiry_seconds,
                heartbeat_interval_seconds=self.config.heartbeat_interval_seconds,
                snapshots=self.config.snapshots,
            ),
            # Counters nobody reads would cost the job its warm-up
            # snapshots (memoization requires observability off).
            obs=NULL_OBS,
            engine=spec.engine,
            verify=spec.verify,
            clock=self.clock.wall,
            sleep=self.clock.sleep,
            monotonic=self.clock.monotonic,
        )
        done = 0
        total = len(spec.workloads) * len(spec.policies)
        obs.event("job.start", job=job_id, attempt=record.attempts - 1,
                  total=total)
        tracer.flush()

        def progress(cell: CellResult) -> None:
            nonlocal done
            done += 1
            if self.faults is not None:
                self.faults.before_job_cell(job_id)
            obs.event(
                "job.cell", job=job_id, policy=cell.policy,
                workload=cell.workload, done=done, total=total,
                icache_mpki=cell.icache_mpki, degraded=cell.degraded,
            )
            tracer.flush()
            self._maybe_heartbeat()
            with self._lock:
                self._changed.notify_all()
                if record.cancel_requested:
                    raise _JobInterrupted(CANCELLED)
                if self._draining:
                    raise _JobInterrupted("drain")
            deadline = record.deadline_at
            if deadline is not None and self.clock.wall() > deadline:
                raise _JobInterrupted(EXPIRED)

        try:
            try:
                grid = scheduler.run(spec.build_workloads(),
                                     list(spec.policies), progress=progress)
            finally:
                # The scheduler only releases cell leases on the clean
                # path; an interrupt must not strand them for the whole
                # expiry window.
                scheduler.leases.release_all()
        except _JobInterrupted as stop:
            self._on_interrupted(record, stop.reason)
        except Exception as exc:  # noqa: BLE001 -- any failure is an attempt
            self._on_attempt_failed(record, exc)
        else:
            self._on_finished(record, grid, scheduler)
        finally:
            self.leases.release(job_id)
            tracer.flush()
            tracer.close()

    def _maybe_heartbeat(self) -> None:
        now = self.clock.monotonic()
        if now - self._last_heartbeat < self.config.heartbeat_interval_seconds:
            return
        self._last_heartbeat = now
        if self.faults is not None and not self.faults.take_heartbeat():
            self.obs.inc("service.heartbeats_dropped")
            return
        self.leases.heartbeat()
        self.obs.inc("service.heartbeats")

    def _on_interrupted(self, record: JobRecord, reason: str) -> None:
        now = self.clock.wall()
        with self._lock:
            if reason == "drain":
                self.store.append("requeued", record.job_id, reason="drain")
                record.state = QUEUED
                record.requeues += 1
                record.drained = True
                self._push_ready(record.job_id, self.clock.monotonic())
                self.obs.inc("service.jobs_drain_checkpointed")
            elif reason == CANCELLED:
                self.store.append(CANCELLED, record.job_id, at=now)
                record.state = CANCELLED
                record.finished_at = now
                self.obs.inc("service.jobs_cancelled")
            else:
                self.store.append(EXPIRED, record.job_id, at=now,
                                  error="deadline exceeded")
                record.state = EXPIRED
                record.error = "deadline exceeded"
                record.finished_at = now
                self.obs.inc("service.jobs_expired")
            self._changed.notify_all()

    def _on_attempt_failed(self, record: JobRecord, exc: Exception) -> None:
        now = self.clock.wall()
        attempt = record.attempts - 1
        with self._lock:
            self.store.append(
                "attempt_failed", record.job_id, attempt=attempt,
                error=str(exc), kind=type(exc).__name__,
            )
            record.error = str(exc)
            record.error_kind = type(exc).__name__
            if record.attempts <= record.max_retries:
                delay = self.config.retry.backoff_seconds(
                    "job", record.job_id, attempt
                )
                self.store.append("requeued", record.job_id, reason="retry",
                                  backoff_seconds=delay)
                record.state = QUEUED
                record.requeues += 1
                self._push_ready(record.job_id,
                                 self.clock.monotonic() + delay)
                self.obs.inc("service.jobs_retried")
            else:
                self.store.append(FAILED, record.job_id, at=now,
                                  error=str(exc))
                record.state = FAILED
                record.finished_at = now
                self.obs.inc("service.jobs_failed")
            self._changed.notify_all()

    def _on_finished(self, record: JobRecord, grid: GridResult,
                     scheduler: SweepScheduler) -> None:
        now = self.clock.wall()
        signature = grid_signature(grid)
        degraded = sum(1 for cell in grid.cells if cell.degraded)
        partial = bool(grid.failed)
        document = {
            "schema": 1,
            "job": record.job_id,
            "state": DONE,
            "grid_signature": signature,
            "partial": partial,
            "exit_code": 2 if partial else 0,
            "degraded_cells": degraded,
            "stats": scheduler.stats.as_dict(),
            "cells": [dataclasses.asdict(cell) for cell in grid.cells],
            "failed": [dataclasses.asdict(failure) for failure in grid.failed],
            "finished_at": now,
        }
        # Result first, then the journal line: a replayed "done" always
        # has a durable document behind it.
        self.store.put_result(record.job_id, document)
        with self._lock:
            self.store.append(
                "done", record.job_id, at=now, grid_signature=signature,
                partial=partial, degraded_cells=degraded,
            )
            record.state = DONE
            record.finished_at = now
            record.partial = partial
            record.degraded_cells = degraded
            record.grid_signature = signature
            record.result_available = True
            self.obs.inc("service.jobs_done")
            self._changed.notify_all()

    def run_once(self) -> bool:
        """Claim and execute at most one job (the worker-loop body)."""
        record = self.claim_next()
        if record is None:
            return False
        self.execute(record)
        return True

    def wait_for_work(self, timeout: float) -> None:
        """Block until new work may be available (or ``timeout``)."""
        with self._work:
            if self._ready or self._draining:
                return
            self._work.wait(timeout)

    # -- long polls -----------------------------------------------------
    def wait_settled(self, job_id: str, timeout: float) -> JobRecord:
        """The job's record once it is terminal, the manager drains, or
        ``timeout`` seconds pass, whichever comes first."""
        with self._changed:
            record = self.get(job_id)
            self._changed.wait_for(
                lambda: record.state in TERMINAL_STATES or self._draining,
                timeout,
            )
            return record

    def wait_progress(self, job_id: str, offset: int,
                      timeout: float) -> JobRecord:
        """Like :meth:`wait_settled`, but also released once the job's
        progress stream is no longer ``offset`` bytes long (it grew, or
        a retry re-opened it)."""
        with self._changed:
            record = self.get(job_id)
            path = self.store.events_path(record.job_id)

            def moved() -> bool:
                try:
                    size = path.stat().st_size
                except FileNotFoundError:
                    size = 0
                return size != offset

            self._changed.wait_for(
                lambda: (record.state in TERMINAL_STATES or self._draining
                         or moved()),
                timeout,
            )
            return record

    # -- drain ----------------------------------------------------------
    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting; in-flight jobs checkpoint at the next cell."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
            self._work.notify_all()
            self._changed.notify_all()
        _LOG.warning("drain requested: admissions closed, "
                     "checkpointing in-flight jobs")

    def idle(self) -> bool:
        """True when nothing is running (drain may finish)."""
        with self._lock:
            return not any(r.state == RUNNING for r in self.jobs.values())

    def close(self) -> None:
        self.store.close()

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            by_state: dict[str, int] = {}
            queue_wait: list[float] = []
            run: list[float] = []
            for record in self.jobs.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
                if (record.state in TERMINAL_STATES
                        and record.started_at is not None
                        and record.finished_at is not None):
                    queue_wait.append(record.started_at - record.submitted_at)
                    run.append(record.finished_at - record.started_at)
            return {
                "jobs": by_state,
                "queue_depth": len(self._ready),
                "max_queue_depth": self.config.max_queue_depth,
                "draining": self._draining,
                "accepted": self.accepted,
                "deduplicated": self.deduplicated,
                "resubmitted": self.resubmitted,
                "rejected_full": self.rejected_full,
                "rejected_draining": self.rejected_draining,
                "recovered_requeued": self.recovered_requeued,
                "cache_root": str(self.cache.root),
                # Stage latencies of the jobs that ran to a terminal
                # state, from their journaled wall-clock stamps.
                "latency_ms": {
                    "finished_jobs": len(run),
                    "queue_wait": _percentiles_ms(queue_wait),
                    "run": _percentiles_ms(run),
                },
            }


def _percentiles_ms(seconds: list[float]) -> dict:
    """Nearest-rank p50 and p90 of ``seconds``, in milliseconds."""
    ordered = sorted(seconds)

    def rank(q: float) -> float | None:
        if not ordered:
            return None
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1000.0

    return {"p50": rank(0.5), "p90": rank(0.9)}
