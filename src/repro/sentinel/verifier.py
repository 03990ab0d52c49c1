"""The runtime verifier: shadow execution, localization, and failover.

Driven by :meth:`repro.kernel.engine.FastFrontEnd.run` when
``RunOptions.verify`` is not ``"off"``.  The record stream is consumed in
windows of ``verify_window`` branch records.  At verification barriers
(every window in ``"full"`` mode; the first window, every
``verify_interval``-th window, the window after the warm-up crossing,
and the last window in ``"sampled"`` mode) the verifier:

1. syncs the kernels and deep-copies the synced front-end structures
   (the *snapshot*);
2. runs the fast engine over the window;
3. replays the same window on a shadow reference engine built from a
   copy of the snapshot;
4. compares canonical state digests and running counters.

On a mismatch it bisects the window record-by-record on two fresh shadow
engines to find the first divergent access, writes a repro bundle, and
either raises :class:`~repro.sentinel.errors.DivergenceError` or — with
``failover=True`` — rebuilds the reference engine from the snapshot,
replays the window, and finishes the whole run on the reference path
(``degraded=True`` in the result).  A kernel exception in *any* window
takes the same failover path from the most recent snapshot.

Known limitation: in ``"sampled"`` mode a divergence inside an
*unverified* window is only caught at the next barrier, and the replayed
snapshot may already carry the corruption; ``"full"`` mode bounds the
blast radius to one window.
"""

from __future__ import annotations

import copy
from dataclasses import replace as dc_replace
from itertools import chain, islice

from repro.obs import NULL_OBS
from repro.sentinel.digest import diff_digest, digest_fingerprint, frontend_digest
from repro.sentinel.errors import DivergenceError
from repro.sentinel.faults import arm_kernel_fault

__all__ = ["run_verified", "EngineSnapshot"]

# The per-structure counters both engines keep in ``obs``: the kernels add
# them at sync, the reference structures per access.
_STRUCTURE_COUNTERS = tuple(
    f"{scope}.{name}"
    for scope in ("icache", "btb")
    for name in ("hits", "misses", "bypasses", "evictions", "dead_evictions")
) + ("btb.target_mispredictions",)


class EngineSnapshot:
    """A deep copy of a front end's synced structures plus run state."""

    __slots__ = ("parts", "wrong_path_accesses", "rs")

    def __init__(self, parts, wrong_path_accesses, rs):
        self.parts = parts
        self.wrong_path_accesses = wrong_path_accesses
        self.rs = rs


def _seed_memo(memo: dict, parts, obs) -> None:
    """Share immutable/append-only helpers instead of deep-copying them.

    Observability handles are swapped for the no-op instance (a shadow
    engine must not emit into the live run's metrics), and the prediction
    banks' signature->indices memos are shared: they are memoized
    pure-function results, identical for every copy.
    """
    memo[id(obs)] = NULL_OBS
    memo[id(NULL_OBS)] = NULL_OBS
    icache, btb, _direction, _ras, ghrp = parts
    banks = [getattr(icache.policy, "tables", None), getattr(btb.policy, "tables", None)]
    if ghrp is not None:
        banks.append(ghrp.tables)
    for policy in (icache.policy, btb.policy):
        predictor = getattr(policy, "predictor", None)
        if predictor is not None:
            banks.append(predictor.tables)
    for bank in banks:
        cache = getattr(bank, "_index_cache", None)
        if cache is not None:
            memo[id(cache)] = cache


def take_snapshot(frontend, rs) -> EngineSnapshot:
    """Deep-copy the front end's structures; kernels must be synced."""
    parts = (
        frontend.icache,
        frontend.btb,
        frontend.direction,
        frontend.ras,
        frontend.ghrp,
    )
    memo: dict = {}
    _seed_memo(memo, parts, frontend.obs)
    copied = copy.deepcopy(parts, memo)
    snap_rs = copy.copy(rs)
    snap_rs.phase_span = None
    return EngineSnapshot(copied, frontend.wrong_path_accesses, snap_rs)


def clone_snapshot(snapshot: EngineSnapshot) -> EngineSnapshot:
    memo: dict = {}
    _seed_memo(memo, snapshot.parts, NULL_OBS)
    copied = copy.deepcopy(snapshot.parts, memo)
    return EngineSnapshot(
        copied, snapshot.wrong_path_accesses, copy.copy(snapshot.rs)
    )


def _build_engine(engine_cls, snapshot, *, wrong_path_depth, obs):
    icache, btb, direction, ras, ghrp = snapshot.parts
    engine = engine_cls(
        icache=icache,
        btb=btb,
        direction=direction,
        ras=ras,
        ghrp=ghrp,
        wrong_path_depth=wrong_path_depth,
        obs=obs,
    )
    engine.wrong_path_accesses = snapshot.wrong_path_accesses
    return engine


def _build_reference(snapshot, *, wrong_path_depth, obs):
    from repro.frontend.engine import FrontEnd

    return _build_engine(
        FrontEnd, snapshot, wrong_path_depth=wrong_path_depth, obs=obs
    )


def _counters_diff(rs, srs) -> list[str]:
    diffs = []
    for attr in ("instructions_seen", "branches_seen"):
        mine, theirs = getattr(rs, attr), getattr(srs, attr)
        if mine != theirs:
            diffs.append(f"counters.{attr}: expected {theirs!r}, got {mine!r}")
    return diffs


def _kernel_fingerprints(frontend) -> dict[str, str]:
    fingerprints = {
        "icache": digest_fingerprint(frontend._icache_kernel.state_digest()),
        "btb": digest_fingerprint(frontend._btb_kernel.state_digest()),
    }
    if frontend._direction_kernel is not None:
        fingerprints["direction"] = digest_fingerprint(
            frontend._direction_kernel.state_digest()
        )
    return fingerprints


def _localize(frontend, snapshot, window, arm, arm_count_before):
    """Bisect a divergent window record-by-record on two shadow engines.

    The fast shadow runs each one-record window through the same batch
    loop as the live run (with the fault, if any, rebased onto it).
    Returns ``(offset, field_diff)`` with ``offset`` the 0-based index of
    the first record after which the engines disagree, or ``(None, [])``
    when the window replays clean (e.g. the divergence predates the
    window in sampled mode).
    """
    fast_snap = clone_snapshot(snapshot)
    ref_snap = clone_snapshot(snapshot)
    shadow_fast = _build_engine(
        type(frontend),
        fast_snap,
        wrong_path_depth=frontend.wrong_path_depth,
        obs=NULL_OBS,
    )
    shadow_fast._reload_kernels()
    if arm is not None:
        remaining = arm.fault.access_index - arm_count_before
        if remaining >= 1:
            arm_kernel_fault(
                shadow_fast, dc_replace(arm.fault, access_index=remaining)
            )
    shadow_ref = _build_reference(
        ref_snap, wrong_path_depth=frontend.wrong_path_depth, obs=NULL_OBS
    )
    frs, rrs = fast_snap.rs, ref_snap.rs
    for offset, record in enumerate(window):
        shadow_fast._run_window([record], frs)
        shadow_fast._sync_kernels()
        shadow_ref._run_window([record], rrs)
        expected = frontend_digest(shadow_ref)
        actual = frontend_digest(shadow_fast)
        if expected != actual or frs.branches_seen != rrs.branches_seen \
                or frs.instructions_seen != rrs.instructions_seen:
            return offset, diff_digest(expected, actual) + _counters_diff(frs, rrs)
        if frs.done:
            break
    return None, []


def _write_bundle_safely(frontend, options, **kwargs) -> str | None:
    if options.repro_bundle_dir is None:
        return None
    from repro.obs import get_logger
    from repro.sentinel.bundle import write_bundle

    try:
        return write_bundle(
            bundle_dir=options.repro_bundle_dir, options=options, **kwargs
        )
    except OSError as error:
        # Bundle writing is best-effort: a full disk must not turn a
        # recoverable divergence into a hard failure.
        get_logger("sentinel").warning("could not write repro bundle: %s", error)
        return None


class _Verifier:
    """One verified run: windowing state plus the failure paths."""

    def __init__(self, frontend, options, rs):
        self.frontend = frontend
        self.options = options
        self.rs = rs
        self.obs = frontend.obs
        self.arm = (
            arm_kernel_fault(frontend, options.inject_kernel_fault)
            if options.inject_kernel_fault is not None
            else None
        )
        self.snapshot: EngineSnapshot | None = None
        self.replayed_since_snapshot: list = []
        self.arm_count_at_snapshot = 0
        # The structures' obs counters at the snapshot (obs enabled only).
        self.counters_at_snapshot: dict[str, int] = {}

    # -- barrier bookkeeping -------------------------------------------
    def begin_barrier(self) -> None:
        self.frontend._sync_kernels()
        self.snapshot = take_snapshot(self.frontend, self.rs)
        self.replayed_since_snapshot = []
        self.arm_count_at_snapshot = self.arm.count if self.arm else 0
        obs = self.obs
        if obs.enabled:
            counter = obs.metrics.counter
            self.counters_at_snapshot = {
                name: counter(name) for name in _STRUCTURE_COUNTERS
            }
            obs.inc("sentinel.windows_verified")

    # -- divergence ----------------------------------------------------
    def check_barrier(self) -> DivergenceError | None:
        """Shadow-replay everything since the snapshot and compare state.

        At a normal barrier that is exactly one window; when the run
        stops mid-stream (instruction limit) in an unverified window,
        the accumulated windows give the end-of-run barrier the ISSUE
        requires without a fresh snapshot.
        """
        frontend, rs, snapshot = self.frontend, self.rs, self.snapshot
        window = [
            record
            for replayed in self.replayed_since_snapshot
            for record in replayed
        ]
        frontend._sync_kernels()
        shadow_snap = clone_snapshot(snapshot)
        shadow = _build_reference(
            shadow_snap, wrong_path_depth=frontend.wrong_path_depth, obs=NULL_OBS
        )
        srs = shadow_snap.rs
        shadow._run_window(window, srs)
        expected = frontend_digest(shadow)
        actual = frontend_digest(frontend)
        counter_diff = _counters_diff(rs, srs)
        if expected == actual and not counter_diff:
            return None

        offset, field_diff = _localize(
            frontend, snapshot, window, self.arm, self.arm_count_at_snapshot
        )
        if not field_diff:
            field_diff = diff_digest(expected, actual) + counter_diff
        access_index = (
            snapshot.rs.branches_seen + offset + 1
            if offset is not None
            else None
        )
        window_bounds = (snapshot.rs.branches_seen, rs.branches_seen)
        expected_fp = digest_fingerprint(expected)
        actual_fp = digest_fingerprint(actual)
        bundle_path = _write_bundle_safely(
            frontend,
            self.options,
            kind="divergence",
            error_type="DivergenceError",
            error_message=(
                "fast-path state diverged from the reference engine"
            ),
            access_index=access_index,
            field_diff=list(field_diff),
            window_records=window,
            window_bounds=window_bounds,
            digests={"expected": expected_fp, "actual": actual_fp},
            kernel_digests=_kernel_fingerprints(frontend),
        )
        if self.obs.enabled:
            self.obs.inc("sentinel.divergences")
            self.obs.event(
                "divergence_detected",
                access_index=access_index,
                window_start=window_bounds[0],
                window_end=window_bounds[1],
                bundle=bundle_path,
            )
        summary = "; ".join(field_diff[:3]) or "state digests differ"
        return DivergenceError(
            f"fast engine diverged from the reference engine in window "
            f"[{window_bounds[0]}, {window_bounds[1]}): {summary}",
            access_index=access_index,
            field_diff=tuple(field_diff),
            window=window_bounds,
            bundle_path=bundle_path,
            expected_fingerprint=expected_fp,
            actual_fingerprint=actual_fp,
        )

    # -- crash capture -------------------------------------------------
    def capture_crash(self, error, window) -> str | None:
        snapshot = self.snapshot
        window_bounds = (
            snapshot.rs.branches_seen if snapshot else 0,
            self.rs.branches_seen,
        )
        # No sync: the kernels may be mid-update; state_digest() reads
        # live state without flushing.
        return _write_bundle_safely(
            self.frontend,
            self.options,
            kind="kernel-crash",
            error_type=type(error).__name__,
            error_message=str(error),
            access_index=self.arm.count if self.arm else None,
            field_diff=[],
            window_records=window,
            window_bounds=window_bounds,
            digests={},
            kernel_digests=_kernel_fingerprints(self.frontend),
        )

    # -- failover ------------------------------------------------------
    def failover(self, windows, rest, *, cause: str, error) -> object:
        """Finish the run on the reference engine from the snapshot.

        ``windows`` are the record lists executed since the snapshot (to
        replay); ``rest`` is the untouched remainder of the stream.
        """
        frontend, obs = self.frontend, self.obs
        frontend._fault_arm = None
        takeover = _build_reference(
            self.snapshot,
            wrong_path_depth=frontend.wrong_path_depth,
            obs=obs,
        )
        if obs.enabled:
            # The takeover replays everything since the snapshot: roll the
            # structure counters back to their barrier values and let its
            # structures count from there, as the fast kernels did.
            for name, value in self.counters_at_snapshot.items():
                excess = obs.metrics.counter(name) - value
                if excess:
                    obs.inc(name, -excess)
            takeover.icache.obs = obs
            takeover.btb.obs = obs
            takeover.btb._cache.obs = obs
        trs = self.snapshot.rs
        trs.phase_span = self.rs.phase_span  # keep the live span open
        obs.inc("sentinel.failovers")
        obs.inc("sentinel.degraded_runs")
        if obs.enabled:
            obs.event(
                "engine_failover",
                cause=cause,
                error=type(error).__name__,
                at_branch=trs.branches_seen,
                bundle=getattr(error, "bundle_path", None),
            )
        if frontend.telemetry is not None:
            # Hand the interval recorder to the takeover engine so
            # sampling (and the final flush in _finish_run) follows the
            # structures that actually finish the run.
            takeover.telemetry = frontend.telemetry
            takeover.telemetry.rebind(takeover)
        takeover._run_window(chain(chain.from_iterable(windows), rest), trs)
        takeover.degraded = True
        # Re-point the fast front end at the structures that actually
        # finished the run, so post-run reads (grid cell collection, the
        # differential harness) see consistent state.
        frontend.icache = takeover.icache
        frontend.btb = takeover.btb
        frontend.direction = takeover.direction
        frontend.ras = takeover.ras
        frontend.ghrp = takeover.ghrp
        frontend.wrong_path_accesses = takeover.wrong_path_accesses
        frontend.degraded = True
        return takeover._finish_run(trs)


def run_verified(frontend, records, rs, options):
    """Drive a verified fast-path run; see the module docstring."""
    verifier = _Verifier(frontend, options, rs)
    window_size = options.verify_window
    full = options.verify == "full"
    interval = options.verify_interval
    stream = iter(records)
    window = list(islice(stream, window_size))
    pending = list(islice(stream, window_size))
    index = 0
    force_barrier = False

    while window:
        last = not pending
        barrier = full or last or force_barrier or index % interval == 0
        force_barrier = False
        was_warm = rs.icache_warm is not None
        if barrier:
            verifier.begin_barrier()
        verifier.replayed_since_snapshot.append(window)
        try:
            frontend._run_window(window, rs)
        except Exception as error:  # noqa: BLE001 - any kernel crash fails over
            bundle_path = verifier.capture_crash(error, window)
            try:
                error.bundle_path = bundle_path
            except AttributeError:  # pragma: no cover - slotted exceptions
                pass
            if not options.failover:
                raise
            return verifier.failover(
                verifier.replayed_since_snapshot,
                chain(pending, stream),
                cause="kernel-exception",
                error=error,
            )
        if barrier or rs.done:
            divergence = verifier.check_barrier()
            if divergence is not None:
                if not options.failover:
                    raise divergence
                return verifier.failover(
                    verifier.replayed_since_snapshot,
                    chain(pending, stream),
                    cause="divergence",
                    error=divergence,
                )
        elif not was_warm and rs.icache_warm is not None:
            # The warm-up boundary fell in an unverified window; verify
            # the next one (the ISSUE's warm-up barrier).
            force_barrier = True
        if rs.done:
            break
        window = pending
        pending = list(islice(stream, window_size))
        index += 1

    frontend._fault_arm = None
    return frontend._finish_run(rs)
