"""Durable job state for the simulation service.

Three pieces, mirroring the cell layer one level up:

:class:`JobSpec` — a validated, canonicalized sweep request.  Identity
is content-addressed exactly like a cell's: the job id *is*
``canonical_fingerprint`` of the normalized request (workloads,
policies, config overrides, engine, verify), so re-submitting the same
sweep — whitespace, key order, and default-value spelling immaterial —
lands on the same job.  Deadline and retry budget ride along but stay
out of the fingerprint: they change how a job is run, not what it
computes.

:class:`JobRecord` — the mutable per-job state machine
(``queued → running → done | failed | cancelled | expired``) the
manager drives and the journal reconstructs.

:class:`JobStore` — the durable side: a write-ahead checksummed JSONL
journal in the :class:`~repro.experiments.journal.CellJournal` idiom
(fsync per line, torn tails detected and skipped on replay), plus
atomic result documents under ``results/`` and per-job progress event
streams under ``events/``.  The crash-safety ordering contract is the
cache's, one level up: a job's result document is durably written
*before* its ``done`` event is journaled, so a replayed ``done`` always
has a result to serve and a crash between the two merely re-runs a
sweep whose cells are all cache hits.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.experiments.cellcache import atomic_write_json, read_checked_json
from repro.experiments.journal import JOURNAL_SCHEMA, CellJournal
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import ENGINES
from repro.policies.registry import available_policies
from repro.sentinel.digest import canonical_fingerprint
from repro.workloads.spec import Category
from repro.workloads.suite import Workload, workload_spec
# Unused here; perfbench/tracing.py wraps this name as a trace point.
from repro.workloads.suite import make_workload  # noqa: F401

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "JobValidationError",
]

JOB_SCHEMA = 1

#: Lifecycle states (the manager is the only writer of transitions).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
EXPIRED = "expired"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, EXPIRED)
#: States a job never leaves on its own.  ``done`` stays terminal under
#: re-submission (the result is served from disk); the unsuccessful
#: three re-enter the queue when the same spec is submitted again.
TERMINAL_STATES = (DONE, FAILED, CANCELLED, EXPIRED)

_VERIFY_MODES = ("off", "sampled", "full")


class JobValidationError(ValueError):
    """A submitted job payload failed validation (maps to HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobValidationError(message)


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One validated sweep request; hashable content identity.

    ``workloads`` holds normalized descriptors (name, category value,
    seed, trace/footprint scale) rather than :class:`Workload` objects:
    descriptors journal as plain JSON, and :meth:`build_workloads` turns
    them into identity-only workloads on whichever process executes the
    job.  A workload's program is built only when one of its cells is
    computed, so a job whose cells are all cached builds nothing.
    """

    workloads: tuple[dict, ...]
    policies: tuple[str, ...]
    config_overrides: dict = field(default_factory=dict)
    engine: str = "reference"
    verify: str = "off"

    # -- construction ---------------------------------------------------
    @classmethod
    def from_payload(cls, payload: object) -> "JobSpec":
        """Validate and normalize a submitted payload (raises 400-shaped
        :class:`JobValidationError` on any problem)."""
        _require(isinstance(payload, dict), "job payload must be a JSON object")
        known = {"schema", "workloads", "policies", "config", "engine",
                 "verify", "deadline_seconds", "max_retries"}
        for key in payload:
            _require(key in known, f"unknown job field {key!r}")

        raw_workloads = payload.get("workloads")
        _require(isinstance(raw_workloads, list) and raw_workloads,
                 "workloads must be a non-empty list")
        workloads = tuple(cls._normalize_workload(w) for w in raw_workloads)

        raw_policies = payload.get("policies")
        _require(isinstance(raw_policies, list) and raw_policies,
                 "policies must be a non-empty list")
        valid_policies = available_policies()
        for name in raw_policies:
            _require(isinstance(name, str) and name in valid_policies,
                     f"unknown policy {name!r} (expected one of "
                     f"{', '.join(valid_policies)})")
        policies = tuple(raw_policies)

        overrides = payload.get("config", {})
        _require(isinstance(overrides, dict), "config must be a JSON object")
        cls._build_config(overrides)  # validates field names and values

        engine = payload.get("engine", "reference")
        _require(engine in ENGINES,
                 f"unknown engine {engine!r} (expected one of "
                 f"{', '.join(sorted(ENGINES))})")
        verify = payload.get("verify", "off")
        _require(verify in _VERIFY_MODES,
                 f"verify must be one of {', '.join(_VERIFY_MODES)}")
        return cls(workloads=workloads, policies=policies,
                   config_overrides=dict(overrides), engine=engine,
                   verify=verify)

    @staticmethod
    def _normalize_workload(raw: object) -> dict:
        _require(isinstance(raw, dict), "each workload must be a JSON object")
        known = {"name", "category", "seed", "trace_scale", "footprint_scale"}
        for key in raw:
            _require(key in known, f"unknown workload field {key!r}")
        try:
            category = Category(str(raw.get("category", "")).replace("_", "-"))
        except ValueError:
            raise JobValidationError(
                f"unknown workload category {raw.get('category')!r} "
                f"(expected one of {', '.join(c.value for c in Category)})"
            ) from None
        seed = raw.get("seed")
        _require(isinstance(seed, int) and not isinstance(seed, bool),
                 "workload seed must be an integer")
        trace_scale = raw.get("trace_scale", 1.0)
        footprint_scale = raw.get("footprint_scale", 1.0)
        for label, value in (("trace_scale", trace_scale),
                             ("footprint_scale", footprint_scale)):
            _require(isinstance(value, (int, float)) and value > 0,
                     f"workload {label} must be a positive number")
        name = raw.get("name") or f"{category.value}-{seed}"
        _require(isinstance(name, str), "workload name must be a string")
        return {
            "name": name,
            "category": category.value,
            "seed": seed,
            "trace_scale": float(trace_scale),
            "footprint_scale": float(footprint_scale),
        }

    @staticmethod
    def _build_config(overrides: dict) -> FrontEndConfig:
        for key in overrides:
            _require(isinstance(key, str) and not key.startswith("_"),
                     f"bad config field {key!r}")
        try:
            return FrontEndConfig(**overrides)
        except (TypeError, ValueError) as exc:
            raise JobValidationError(f"bad config overrides: {exc}") from None

    # -- identity -------------------------------------------------------
    def payload(self) -> dict:
        """The canonical JSON form (journaled, fingerprinted, echoed)."""
        return {
            "schema": JOB_SCHEMA,
            "workloads": [dict(w) for w in self.workloads],
            "policies": list(self.policies),
            "config": dict(self.config_overrides),
            "engine": self.engine,
            "verify": self.verify,
        }

    def fingerprint(self) -> str:
        """The job id: content address of the normalized request."""
        return canonical_fingerprint({"kind": "repro.service.job",
                                      **self.payload()}, length=16)

    # -- rebuilding the simulation inputs ------------------------------
    def build_config(self) -> FrontEndConfig:
        return self._build_config(self.config_overrides)

    def build_workloads(self) -> list[Workload]:
        """Identity-only workloads (programs built on first use)."""
        return [
            Workload(
                name=w["name"],
                spec=workload_spec(
                    w["name"], Category(w["category"]), seed=w["seed"],
                    trace_scale=w["trace_scale"],
                    footprint_scale=w["footprint_scale"],
                ),
                seed=w["seed"],
            )
            for w in self.workloads
        ]


@dataclass(slots=True)
class JobRecord:
    """Mutable per-job state; every transition is journaled first."""

    job_id: str
    spec: JobSpec
    state: str = QUEUED
    submitted_at: float = 0.0
    deadline_seconds: float | None = None
    max_retries: int = 0
    attempts: int = 0
    requeues: int = 0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    error_kind: str | None = None
    cancel_requested: bool = False
    #: True once a drain checkpointed this job mid-run at least once.
    drained: bool = False
    partial: bool = False
    degraded_cells: int = 0
    grid_signature: str | None = None
    result_available: bool = False

    @property
    def deadline_at(self) -> float | None:
        if self.deadline_seconds is None:
            return None
        return self.submitted_at + self.deadline_seconds

    def summary(self) -> dict:
        """The status document served over HTTP and printed by the CLI."""
        return {
            "job": self.job_id,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "deadline_seconds": self.deadline_seconds,
            "max_retries": self.max_retries,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "error_kind": self.error_kind,
            "drained": self.drained,
            "partial": self.partial,
            "degraded_cells": self.degraded_cells,
            "grid_signature": self.grid_signature,
            "result_available": self.result_available,
            "spec": self.spec.payload(),
        }


class JobStore:
    """The durable layer under the manager: journal, results, events.

    Journal lines use the exact :class:`CellJournal` wire format (same
    schema tag, same per-line checksum over the payload), so
    :meth:`CellJournal.read` replays them and torn tails are skipped
    with the same discipline the cell layer already tests.  Appends are
    written here rather than through :class:`CellJournal` so the fault
    plan can tear a submit line deliberately — the recovery drill for
    the one corruption an append-only file can suffer.
    """

    def __init__(self, root: str | Path, *,
                 tear_line: Callable[[str], bool] | None = None):
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.events_dir = self.root / "events"
        for directory in (self.root, self.results_dir, self.events_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / "jobs.jsonl"
        #: Fault hook: given the event kind, return True to tear this
        #: line's tail (simulating a crash mid-append).
        self.tear_line = tear_line
        self._handle = None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- journal --------------------------------------------------------
    def append(self, event: str, job_id: str, **fields) -> None:
        """Durably append one job event (fsynced before returning)."""
        payload = {"event": event, "job": job_id, **fields}
        line = {
            "schema": JOURNAL_SCHEMA,
            "checksum": canonical_fingerprint(payload, length=16),
            **payload,
        }
        text = json.dumps(line, sort_keys=True) + "\n"
        if self.tear_line is not None and self.tear_line(event):
            text = text[: max(1, len(text) // 2)]
        if self._handle is None:
            self._handle = open(self.journal_path, "a", encoding="utf-8")
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def events(self) -> list[dict]:
        """All intact journal events, oldest first (torn lines skipped)."""
        return CellJournal.read(self.journal_path)

    def replay(self) -> dict[str, JobRecord]:
        """Fold the journal back into per-job records.

        A later ``submitted`` for a job in a terminal *unsuccessful*
        state replaces the record (that is how re-submission after
        failure re-queues); while non-terminal, duplicates are ignored.
        """
        records: dict[str, JobRecord] = {}
        for event in self.events():
            job_id = event.get("job")
            kind = event.get("event")
            if not isinstance(job_id, str) or not isinstance(kind, str):
                continue
            if kind == "submitted":
                existing = records.get(job_id)
                if existing is not None and existing.state not in TERMINAL_STATES:
                    continue
                try:
                    spec = JobSpec.from_payload(event.get("spec"))
                except JobValidationError:
                    continue
                records[job_id] = JobRecord(
                    job_id=job_id, spec=spec, state=QUEUED,
                    submitted_at=float(event.get("submitted_at", 0.0)),
                    deadline_seconds=event.get("deadline_seconds"),
                    max_retries=int(event.get("max_retries", 0)),
                )
                continue
            record = records.get(job_id)
            if record is None:
                continue
            if kind == "started":
                record.state = RUNNING
                record.attempts = max(record.attempts,
                                      int(event.get("attempt", 0)) + 1)
                record.started_at = event.get("at")
            elif kind == "attempt_failed":
                record.error = event.get("error")
                record.error_kind = event.get("kind")
                record.state = QUEUED
            elif kind == "requeued":
                record.state = QUEUED
                record.requeues += 1
                if event.get("reason") == "drain":
                    record.drained = True
            elif kind == "done":
                record.state = DONE
                record.partial = bool(event.get("partial"))
                record.degraded_cells = int(event.get("degraded_cells", 0))
                record.grid_signature = event.get("grid_signature")
                record.finished_at = event.get("at")
                record.result_available = True
            elif kind in (FAILED, CANCELLED, EXPIRED):
                record.state = kind
                record.error = event.get("error", record.error)
                record.finished_at = event.get("at")
        return records

    # -- results --------------------------------------------------------
    def result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def put_result(self, job_id: str, payload: dict) -> None:
        """Durably persist a job's result document (atomic replace)."""
        atomic_write_json(self.result_path(job_id), payload)

    def get_result(self, job_id: str) -> dict | None:
        path = self.result_path(job_id)
        if not path.exists():
            return None
        document = read_checked_json(path)
        return document if isinstance(document, dict) else None

    # -- progress event streams ----------------------------------------
    def events_path(self, job_id: str) -> Path:
        return self.events_dir / f"{job_id}.jsonl"

    def read_progress(self, job_id: str, offset: int = 0) -> tuple[list[dict], int]:
        """Tail a job's progress stream from byte ``offset``.

        Returns the parsed events plus the next offset to poll from.
        If the stream shrank (a retry re-opened it), reading restarts
        from the top so a watcher never wedges on a stale offset.
        """
        path = self.events_path(job_id)
        if not path.exists():
            return [], 0
        data = path.read_bytes()
        if offset > len(data) or offset < 0:
            offset = 0
        chunk = data[offset:]
        # Only complete lines: a partially flushed tail is left for the
        # next poll rather than parsed as garbage.
        end = chunk.rfind(b"\n")
        if end < 0:
            return [], offset
        events = []
        for raw in chunk[: end + 1].splitlines():
            try:
                line = json.loads(raw.decode("utf-8", errors="replace"))
            except json.JSONDecodeError:
                continue
            if isinstance(line, dict):
                events.append(line)
        return events, offset + end + 1
