"""Warm-up memoization: run cells from pickled warmed engine state.

The paper's methodology warms every cell for ``min(half the trace,
warmup cap)`` instructions before measuring, and a sweep varies the
*policy configuration* far more often than the warm-up inputs — so
sweeps constantly replay identical warm-up prefixes.  This module
memoizes the warmed state: the first run of a (workload, policy,
config-sans-measurement-length, engine) combination pickles the engine
plus its loop state at the warm-up boundary into a
:class:`~repro.experiments.cellcache.SnapshotStore`; later runs sharing
the :func:`~repro.experiments.content.warmup_digest` deserialize it and
simulate only the measurement window.

Bit-identity is inherited from the sentinel's windowing contract:
:meth:`FrontEnd._run_window` already supports stopping and resuming a
run at an arbitrary record boundary via ``_RunState`` (that is how the
runtime verifier executes), and the fast engine's delta-sync (`
_sync_kernels`` before the snapshot, ``_reload_kernels`` after resume)
is the same round-trip it performs at warm-up and end of every run.
The resumed stream is reconstructed by skipping exactly
``branches_seen`` records — both engines consume precisely one record
per fetch chunk, with no read-ahead.

Eligibility is deliberately narrow: observability must be disabled
(pickled engines cannot carry live tracer handles), verification off
(the sentinel drives its own windows), and interval telemetry off (a
resumed run would miss the warm-up samples).  Ineligible cells fall
back to the plain :func:`~repro.experiments.runner.run_cell` — a
snapshot is an optimization, never a behavior change, and every code
path returns results bit-identical to an unmemoized run.
"""

from __future__ import annotations

import itertools
import time

from repro.experiments.content import warmup_digest
from repro.experiments.runner import CellResult, _collect_cell, run_cell
from repro.frontend.engine import _RunState, build_frontend
from repro.frontend.options import RunOptions
from repro.obs import NULL_OBS, Observability
from repro.workloads.suite import Workload

__all__ = ["run_cell_snapshotted", "snapshot_eligible"]

#: Notes returned alongside the cell, for scheduler counters.
NOTE_HIT = "snapshot-hit"
NOTE_WRITE = "snapshot-write"
NOTE_SKIP = "snapshot-skip"
NOTE_PLAIN = "plain"


def snapshot_eligible(
    warmup: int,
    limit: int | None,
    *,
    obs: Observability,
    verify: str,
    telemetry,
) -> bool:
    """Whether warm-up memoization may be used for this run."""
    return (
        not obs.enabled
        and verify == "off"
        and telemetry is None
        and warmup > 0
        and (limit is None or limit > warmup)
    )


def _is_fast(frontend) -> bool:
    # Duck-typed rather than isinstance so the kernel package stays a
    # lazy import (mirrors build_frontend's own structure).
    return hasattr(frontend, "_reload_kernels")


def run_cell_snapshotted(
    workload: Workload,
    policy: str,
    config,
    snapshots,
    *,
    obs: Observability = NULL_OBS,
    engine: str = "reference",
    verify: str = "off",
    telemetry=None,
) -> tuple[CellResult, str]:
    """``run_cell`` with warm-up memoization; returns ``(cell, note)``.

    ``note`` is one of ``"snapshot-hit"`` (measurement window only was
    simulated), ``"snapshot-write"`` (full run, warmed state persisted
    for successors), ``"snapshot-skip"`` (full run, state was not
    persistable), or ``"plain"`` (memoization ineligible; delegated to
    the ordinary runner).
    """
    cell_config = config.with_overrides(icache_policy=policy, btb_policy=policy)
    options = RunOptions.from_config_warmup(
        cell_config, workload.instruction_count()
    )
    warmup, limit = options.warmup_instructions, options.max_instructions
    if snapshots is None or not snapshot_eligible(
        warmup, limit, obs=obs, verify=verify, telemetry=telemetry
    ):
        cell = run_cell(
            workload, policy, config, obs=obs, engine=engine,
            verify=verify, telemetry=telemetry,
        )
        return cell, NOTE_PLAIN

    digest = warmup_digest(workload, policy, cell_config, warmup, engine=engine)

    setup_started = time.perf_counter()
    state = snapshots.load(digest)
    if state is not None:
        frontend, rs = state
        # The pickle round-trip may break numpy view aliasing inside the
        # kernels; reload rebuilds them from the (synced, authoritative)
        # reference objects — the same round-trip every fast run performs.
        if _is_fast(frontend):
            frontend._reload_kernels()
        rs.instruction_limit = limit
        rs.done = False
        records = itertools.islice(workload.records(), rs.branches_seen, None)
        setup_seconds = time.perf_counter() - setup_started

        simulate_started = time.perf_counter()
        rs.phase_span = frontend.obs.start_span("measured")
        frontend._run_window(records, rs)
        result = frontend._finish_run(rs)
        simulate_seconds = time.perf_counter() - simulate_started
        cell = _collect_cell(
            policy, workload, result, frontend, setup_seconds, simulate_seconds
        )
        return cell, NOTE_HIT

    # Miss: run the warm-up as its own window, persist the warmed state,
    # then continue the measurement window on the same record stream.
    frontend = build_frontend(cell_config, obs=obs, engine=engine)
    frontend._setup_telemetry(options)
    is_fast = _is_fast(frontend)
    if is_fast:
        frontend._reload_kernels()
    records = workload.records()
    setup_seconds = time.perf_counter() - setup_started

    simulate_started = time.perf_counter()
    rs = _RunState(warmup_boundary=warmup, instruction_limit=warmup)
    rs.phase_span = frontend.obs.start_span("warm-up")
    frontend._run_window(records, rs)
    if is_fast:
        frontend._sync_kernels()
    span = rs.phase_span
    rs.phase_span = None  # a live span must not enter the pickle
    wrote = snapshots.save(digest, (frontend, rs))
    rs.phase_span = span
    rs.instruction_limit = limit
    rs.done = False
    # Same iterator: the fetch stream consumed exactly rs.branches_seen
    # records, so the next window continues where the warm-up stopped.
    frontend._run_window(records, rs)
    result = frontend._finish_run(rs)
    simulate_seconds = time.perf_counter() - simulate_started
    cell = _collect_cell(
        policy, workload, result, frontend, setup_seconds, simulate_seconds
    )
    return cell, NOTE_WRITE if wrote else NOTE_SKIP
