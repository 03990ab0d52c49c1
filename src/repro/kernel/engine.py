"""The batched front-end engine.

:class:`FastFrontEnd` subclasses the reference :class:`~repro.frontend.
engine.FrontEnd` — same constructor, same ``run`` signature, same
``SimulationResult`` — but replaces the per-access call chain with cache
kernels.  Every simulation decision is replicated exactly (the
differential suite asserts bit-identical statistics *and* internal
state), including the warm-up boundary and the metrics the reference
engine counts.

One loop executes every window: :meth:`FastFrontEnd._run_window`
tokenizes it (:mod:`repro.kernel.tokenizer`), binds each kernel's chunk
executor via the :class:`~repro.kernel.base.BatchKernel` protocol, and
:meth:`FastFrontEnd._run_window_batch` runs whole chunks of records per
structure between engine events.  Chunk boundaries land exactly on the
records where the reference engine fires the warm-up snapshot, a
telemetry sample, or the instruction limit, plus the record performing
an armed :class:`~repro.sentinel.faults.KernelFault`'s access; every
``_sync_kernels`` barrier flushes the open window first, so sentinels,
telemetry intervals, and warm-up snapshots observe identical state at
identical points.

Metrics-only observability (``obs.enabled`` with no event tracer) runs
on the same loop: kernels add their delta counters to ``obs`` at
``sync()``, and the warm-up barrier runs the reference engine's obs
block.  Per-access event tracing is reference-only.

The fast path is all-or-nothing per front end and decided once, at build
time: :func:`fast_path_unsupported_reason` is the single gate, consulted
by :func:`repro.frontend.engine.build_frontend`.  Anything the batch loop
does not replay (wrong-path fetch, event tracing, efficiency tracking,
unregistered policies, predictor shapes the executors do not unroll)
runs on the reference engine, and the reason is recorded as
``fast_path_fallback_reason``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.branch.perceptron import HashedPerceptronPredictor
from repro.frontend.engine import FrontEnd, _RunState
from repro.frontend.options import RunOptions, resolve_run_options
from repro.frontend.results import SimulationResult
from repro.kernel.base import BTBKernel, KernelContext, WindowPlan, batch_kernel_for
from repro.kernel.direction import HashedPerceptronKernel
from repro.kernel.tokenizer import TraceTokens, tokenize_trace
from repro.obs import NULL_OBS
from repro.policies.ghrp_policy import GHRPBTBPolicy, GHRPPolicy
from repro.traces.record import BranchRecord
from repro.traces.reconstruct import _MAX_SEQUENTIAL_GAP

__all__ = ["FastFrontEnd", "fast_path_unsupported_reason"]


def fast_path_unsupported_reason(
    icache,
    btb,
    direction,
    *,
    wrong_path_depth: int = 0,
    obs=NULL_OBS,
) -> str | None:
    """Why this configuration cannot run on the kernel engine (None = it can).

    The fast path requires a :func:`~repro.kernel.base.batch_kernel`
    registration for every policy's exact class — registering the kernel
    *is* the opt-in — and a policy shape that kernel's executors replay
    (:meth:`~repro.kernel.base.CacheKernel.unsupported_reason`).  The
    direction predictor must be the stock hashed perceptron (a subclass
    may override what the kernel replays) with history registers that fit
    the kernel's uint64 chains.  Efficiency tracking, wrong-path fetch,
    and per-access event tracing are reference-only features.
    """
    if type(direction) is not HashedPerceptronPredictor:
        return f"direction predictor {type(direction).__name__} has no kernel"
    if direction.history_bits > 64 or direction.path_bits > 64:
        return "perceptron history registers wider than 64 bits"
    if wrong_path_depth > 0:
        return "wrong-path simulation requires the reference engine"
    if obs.tracer is not None:
        return "event tracing requires the reference engine"
    if icache.efficiency is not None or btb.efficiency is not None:
        return "efficiency tracking requires the reference engine"
    for label, policy in (("icache", icache.policy), ("btb", btb.policy)):
        kernel_cls = batch_kernel_for(policy)
        if kernel_cls is None:
            return f"{label} policy {policy.name!r} has no registered batch kernel"
        reason = kernel_cls.unsupported_reason(policy, label)
        if reason is not None:
            return f"{label} policy {policy.name!r}: {reason}"
    icache_policy, btb_policy = icache.policy, btb.policy
    if isinstance(btb_policy, GHRPBTBPolicy):
        if btb_policy.standalone:
            if (
                isinstance(icache_policy, GHRPPolicy)
                and icache_policy.predictor is btb_policy.predictor
            ):
                # Two history streams advancing one register interleave
                # per record; no per-structure chunking preserves that.
                return "standalone GHRP BTB shares its predictor with the GHRP I-cache"
        elif btb_policy.icache_policy is not icache_policy:
            return "coupled GHRP BTB policy is not coupled to this front end's I-cache"
    return None


class FastFrontEnd(FrontEnd):
    """The reference front end with kernels fused into the hot loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        reason = fast_path_unsupported_reason(
            self.icache,
            self.btb,
            self.direction,
            wrong_path_depth=self.wrong_path_depth,
            obs=self.obs,
        )
        if reason is not None:
            raise ValueError(f"fast engine unsupported: {reason}")
        context = KernelContext()
        self._context = context
        icache_policy = self.icache.policy
        self._icache_kernel = batch_kernel_for(icache_policy).build(
            self.icache, icache_policy, context
        )
        btb_cache = self.btb._cache
        inner = batch_kernel_for(btb_cache.policy).build(
            btb_cache, btb_cache.policy, context
        )
        self._btb_kernel = BTBKernel(self.btb, inner)
        self._direction_kernel = HashedPerceptronKernel(self.direction)
        # The armed KernelFault of the current run (repro.sentinel.faults).
        self._fault_arm = None

    # ------------------------------------------------------------------
    # Kernel synchronization
    # ------------------------------------------------------------------
    def _reload_kernels(self) -> None:
        self._icache_kernel.reload()
        self._btb_kernel.reload()
        self._direction_kernel.reload()
        self._context.reload()

    def _sync_kernels(self) -> None:
        self._icache_kernel.sync()
        self._btb_kernel.sync()
        self._direction_kernel.sync()
        self._context.sync()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        records: Iterable[BranchRecord],
        options: RunOptions | None = None,
        *,
        warmup_instructions: int | None = None,
        max_instructions: int | None = None,
    ) -> SimulationResult:
        """Batched twin of :meth:`FrontEnd.run` (same results, same metrics)."""
        options = resolve_run_options(options, warmup_instructions, max_instructions)
        self._setup_telemetry(options)
        self._reload_kernels()
        self._fault_arm = None
        rs = _RunState(
            warmup_boundary=options.warmup_instructions,
            instruction_limit=options.max_instructions,
        )
        rs.phase_span = self.obs.start_span("warm-up")
        if options.verify == "off":
            if options.inject_kernel_fault is not None:
                from repro.sentinel.faults import arm_kernel_fault

                # Armed but unverified: the corruption runs to completion
                # silently — exactly the failure mode the sentinel layer
                # exists to catch (and what its tests demonstrate).
                arm_kernel_fault(self, options.inject_kernel_fault)
            self._run_window(records, rs)
            return self._finish_run(rs)
        from repro.sentinel.verifier import run_verified

        return run_verified(self, records, rs, options)

    def _run_window(self, records: Iterable[BranchRecord], rs: _RunState) -> None:
        """Execute one window of ``records``, continuing from ``rs``.

        ``records`` may be a raw iterable or an already-tokenized
        :class:`~repro.kernel.tokenizer.TraceTokens` (which is reused
        directly when its fetch-stream seed matches the carried
        ``rs.next_start``); anything else is tokenized here.
        """
        tokens = None
        if isinstance(records, TraceTokens):
            if records.seed_next_start == rs.next_start:
                tokens = records
            else:
                records = records.records
        if tokens is None:
            if not isinstance(records, list):
                records = (
                    self._pull_window(records, rs)
                    if rs.instruction_limit is not None
                    else list(records)
                )
            tokens = tokenize_trace(records, rs.next_start)
        if tokens.n > 0:
            self._run_window_batch(tokens, rs)

    def _pull_window(self, records, rs: _RunState) -> list:
        """Consume exactly the records this limited window will execute.

        Both engines share a no-read-ahead contract: a window stopping at
        the instruction limit leaves every later record in the caller's
        iterator (the snapshot layer resumes the *same* iterator for the
        measurement window).  Materializing a lazy stream wholesale would
        strand the remainder, so replay the fetch-stream instruction
        count record-by-record and stop pulling at the limit — like the
        reference engine, the record that crosses the limit is still
        executed.
        """
        remaining = rs.instruction_limit - rs.instructions_seen
        next_start = -1 if rs.next_start is None else rs.next_start
        max_gap = _MAX_SEQUENTIAL_GAP
        seen = 0
        out: list = []
        append = out.append
        for record in records:
            append(record)
            pc = record.pc
            gap = pc - next_start
            if next_start < 0 or gap < 0 or gap > max_gap or gap & 3:
                gap = 0
            seen += (gap >> 2) + 1
            next_start = record.target if record.taken else pc + 4
            if seen >= remaining:
                break
        return out

    def _run_window_batch(self, tokens: TraceTokens, rs: _RunState) -> None:
        """Chunked twin of :meth:`FrontEnd._run_window`.

        Every engine event the reference loop fires *between* records —
        warm-up snapshot, telemetry sample, instruction limit — has a
        precomputable record index, and so does the record performing an
        armed fault's access; the loop executes maximal chunks up to the
        next event, applies the event exactly as the reference loop
        would, and continues.  With no telemetry, no limit, and no armed
        fault the whole window is one chunk per structure.
        """
        n = tokens.n
        plan = WindowPlan(
            tokens, icache_kernel=self._icache_kernel, btb_kernel=self._btb_kernel
        )
        ispan = self._icache_kernel.begin_window(plan)
        bspan = self._btb_kernel.begin_window(plan)
        dspan = self._direction_kernel.begin_window(tokens)
        rspan = self._ras_window(tokens)

        icache, btb = self.icache, self.btb
        obs = self.obs
        telemetry = self.telemetry
        instr_cum = tokens.instr_cum
        warmup_boundary = rs.warmup_boundary
        instruction_limit = rs.instruction_limit
        base_i = rs.instructions_seen
        base_b = rs.branches_seen
        warmed = rs.icache_warm is not None
        warm_rec = (
            n if warmed else tokens.searchsorted_instructions(warmup_boundary - base_i)
        )
        limit_rec = (
            n
            if instruction_limit is None
            else tokens.searchsorted_instructions(instruction_limit - base_i)
        )
        arm = self._fault_arm
        fault_rec = (
            n if arm is None else arm.begin_window(tokens, icache.geometry.block_size)
        )

        executed = n
        r = 0
        while r < n:
            hi = n
            if limit_rec < hi:
                hi = limit_rec + 1
            if not warmed and warm_rec + 1 < hi:
                hi = warm_rec + 1
            if telemetry is not None:
                # First record index where branches_seen reaches the next
                # interval boundary (never before the current record).
                t_rec = telemetry.next_boundary - base_b - 1
                if t_rec < r:
                    t_rec = r
                if t_rec + 1 < hi:
                    hi = t_rec + 1
            if fault_rec < hi:
                hi = fault_rec + 1
            ispan(r, hi)
            bspan(r, hi)
            dspan(r, hi)
            rspan(r, hi)
            cur_i = base_i + instr_cum[hi - 1]
            cur_b = base_b + hi

            if hi == fault_rec + 1:
                # The fault fires after the record performing its access,
                # before that record's engine events (a "raise" fault
                # therefore never reaches them).
                fault_rec = n
                arm.fire()

            if not warmed and cur_i >= warmup_boundary:
                self._sync_kernels()
                icache.stats.instructions = cur_i
                btb.stats.instructions = cur_i
                rs.icache_warm = icache.stats.snapshot()
                rs.btb_warm = btb.stats.snapshot()
                rs.warmed_at = cur_i
                warmed = True
                if obs.enabled:
                    self._observe_warmup(rs)

            if telemetry is not None and cur_b >= telemetry.next_boundary:
                # Flush kernel deltas into the stats objects the recorder
                # reads; sync is idempotent and already runs mid-stream at
                # the warm-up boundary, so this cannot change the result.
                self._sync_kernels()
                telemetry.take_sample(cur_i, cur_b)

            if instruction_limit is not None and cur_i >= instruction_limit:
                rs.done = True
                executed = hi
                break
            r = hi

        last = executed - 1
        rs.instructions_seen = base_i + instr_cum[last]
        rs.branches_seen = base_b + executed
        rs.next_start = (
            tokens.target[last] if tokens.taken[last] else tokens.pc[last] + 4
        )
        if arm is not None:
            arm.end_window(last)
        self._end_batch_window()

    def _ras_window(self, tokens: TraceTokens):
        """Chunk executor for the return-address-stack stream."""
        rop = tokens.rop
        rval = tokens.rval
        ras_end = tokens.ras_end
        push = self.ras.push
        pop_and_check = self.ras.pop_and_check
        cursor = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor
            end = ras_end[hi - 1] if hi > 0 else 0
            for k in range(cursor, end):
                if rop[k]:
                    push(rval[k])
                else:
                    pop_and_check(rval[k])
            cursor = end

        return span

    def _end_batch_window(self) -> None:
        """Flush and unbind all window executors.

        Window closures buffer delta counters; rebinding (next window)
        would strand them, so the batch loop flushes and clears every
        binding before returning.  Flushes are also triggered by ``sync``
        at barriers; both paths zero the buffers, so the combination
        never double-counts.
        """
        btb = self._btb_kernel
        for kernel in (self._icache_kernel, btb, btb.inner, self._direction_kernel):
            flush = kernel._window_flush
            if flush is not None:
                flush()
            kernel._window_flush = None

    def _before_stats_collect(self) -> None:
        self._sync_kernels()
