"""Fast-path kernels for GHRP (Algorithm 1) and its BTB adaptation.

The table counters, the signature→indices memo, and all per-block metadata
(signatures, prediction bits, recency) are aliased from the reference
policy/predictor objects and mutated in place; only the path-history
registers and the training/prediction telemetry live in
:class:`GHRPKernelState` scalars, flushed by ``sync``.  When the I-cache
and BTB share one :class:`~repro.core.ghrp.GHRPPredictor` (the paper's
Section III-E design), both kernels share one state instance via
:meth:`repro.kernel.base.KernelContext.ghrp_state`.

Execution exploits a dataflow fact: with wrong-path simulation off (the
build-time gate sends wrong-path runs to the reference engine), the
speculative and retired path-history registers advance identically —
``spec == retired`` is an invariant here — so the whole history *chain*
— the register value before every access — is a pure function of the
access PC sequence and the window's seed value.  The chain, every access
signature, and every signature's skewed table indices are therefore
precomputed per window in numpy; the chunk loop only reads/writes the
counter tables and per-set metadata.  The coupled BTB (which probes live
I-cache state per branch) runs *fused* with the I-cache executor in one
record-ordered loop, because its predictions depend on the I-cache
contents at that exact record.
"""

from __future__ import annotations

import numpy as _np

from repro.cache.set_assoc import _INVALID_TAG
from repro.core.ghrp import GHRPPredictor
from repro.core.tables import Aggregation
from repro.kernel.base import CacheKernel, KernelContext, WindowPlan, batch_kernel
from repro.policies.ghrp_policy import GHRPBTBPolicy, GHRPPolicy
from repro.util.bits import mask
from repro.util.hashing import skewed_index_columns

__all__ = ["GHRPKernelState", "GHRPCacheKernel", "GHRPBTBKernel"]


def history_chain(values, shift: int, history_bits: int, seed: int, count: int):
    """Path-history register value *before* each of ``count`` updates.

    ``values`` is the uint64 array of update operands (``bits`` in
    ``note_access`` terms); the returned array has ``count + 1`` entries,
    the last being the register value after all updates.  The recurrence
    ``h' = ((h << shift) | bits) & mask`` expands exactly into an OR of
    the last ``ceil(history_bits / shift)`` operands (each shifted and
    masked) plus the shifted-out seed, because ``((x & m) << s) & m ==
    (x << s) & m`` and OR distributes over shifts — so the whole chain
    vectorizes.  Requires ``history_bits <= 64`` (callers gate).
    """
    np = _np
    hmask = mask(history_bits)
    out = np.zeros(count + 1, dtype=np.uint64)
    depth = -(-history_bits // shift)  # ceil
    if count:
        for j in range(depth):
            term = values << np.uint64(shift * j)
            if history_bits < 64:
                term &= np.uint64(hmask)
            if count - j > 0:
                out[j + 1 :] |= term[: count - j]
    for i in range(min(depth + 1, count + 1)):
        contribution = (seed << (shift * i)) & hmask
        if contribution:
            out[i] |= np.uint64(contribution)
    return out


def _shape_reason(predictor: GHRPPredictor) -> str | None:
    """Why the executors cannot replay ``predictor``'s shape (None = they can).

    The precomputed chains and unrolled votes assume 3-table majority
    voting (the paper's configuration) and a history register that fits
    uint64 arithmetic.
    """
    bank = predictor.tables
    if bank.aggregation is not Aggregation.MAJORITY:
        return "sum aggregation (the executors replay majority votes)"
    if bank.num_tables != 3:
        return f"{bank.num_tables} prediction tables (the executors unroll 3)"
    history_bits = predictor.config.history_bits
    if history_bits > 64:
        return f"a {history_bits}-bit history (the chains use uint64 arithmetic)"
    return None


class GHRPKernelState:
    """Scalar GHRP state held by kernels during a fast run.

    ``tables`` aliases the bank's counter rows; signature→indices columns
    come from the process-wide memo (:meth:`signature_columns`).
    ``spec``/``retired`` mirror the path-history registers and are written
    back by :meth:`sync`.
    """

    __slots__ = (
        "predictor",
        "tables",
        "num_tables",
        "index_bits",
        "counter_max",
        "history_shift",
        "history_mask",
        "pc_shift",
        "pc_mask",
        "sig_mask",
        "dead_threshold",
        "bypass_threshold",
        "btb_dead_threshold",
        "btb_bypass_threshold",
        "spec",
        "retired",
        "d_predictions",
        "d_increments",
        "d_decrements",
    )

    def __init__(self, predictor: GHRPPredictor):
        config = predictor.config
        bank = predictor.tables
        self.predictor = predictor
        self.tables = list(bank._tables)  # outer copy, inner rows aliased
        self.num_tables = bank.num_tables
        self.index_bits = bank.index_bits
        self.counter_max = bank.counter_max
        self.history_shift = config.history_shift
        self.history_mask = mask(config.history_bits)
        self.pc_shift = config.pc_shift
        self.pc_mask = mask(config.pc_bits_per_access)
        self.sig_mask = mask(config.signature_bits)
        self.dead_threshold = config.dead_threshold
        self.bypass_threshold = config.bypass_threshold
        self.btb_dead_threshold = config.btb_dead_threshold
        self.btb_bypass_threshold = config.btb_bypass_threshold
        self.spec = predictor.history.speculative
        self.retired = predictor.history.retired
        self.d_predictions = 0
        self.d_increments = 0
        self.d_decrements = 0

    def digest(self) -> dict:
        """Canonical export of the shared predictor state (sentinel hook)."""
        return {
            "tables": self.tables,
            "spec": self.spec,
            "retired": self.retired,
            "delta_predictions": self.d_predictions,
            "delta_increments": self.d_increments,
            "delta_decrements": self.d_decrements,
        }

    def signature_columns(self):
        """Full-space signature → per-table index columns.

        The process-wide :func:`repro.util.hashing.skewed_index_columns`
        memo (bit-identical to ``skewed_indices`` by construction): every
        front end and every unpickled snapshot reuses the same columns, and
        none of them carries a copy.
        """
        return skewed_index_columns(
            self.num_tables, self.index_bits, self.sig_mask.bit_length()
        )

    def pc_chain(self, pcs):
        """History chain over the uint64 operands derived from ``pcs``."""
        np = _np
        pcsh = np.asarray(pcs, dtype=np.int64) >> self.pc_shift
        bits = ((pcsh & self.pc_mask) << 1).astype(np.uint64)
        chain = history_chain(
            bits,
            self.history_shift,
            self.history_mask.bit_length(),
            self.spec,
            len(bits),
        )
        return pcsh, chain

    def commit(self, history: int) -> None:
        """Land a window's path history, truncated to the register width.

        ``spec == retired`` on the kernels: no wrong-path fetch runs on
        them, so both registers always hold the same value.
        """
        history &= self.history_mask
        self.spec = history
        self.retired = history

    # ------------------------------------------------------------------
    # Synchronization with the reference objects
    # ------------------------------------------------------------------
    def reload(self) -> None:
        history = self.predictor.history
        self.spec = history.speculative
        self.retired = history.retired

    def sync(self) -> None:
        history = self.predictor.history
        history.speculative = self.spec
        history.retired = self.retired
        bank = self.predictor.tables
        bank.predictions += self.d_predictions
        bank.increments += self.d_increments
        bank.decrements += self.d_decrements
        self.d_predictions = 0
        self.d_increments = 0
        self.d_decrements = 0


@batch_kernel(GHRPPolicy)
class GHRPCacheKernel(CacheKernel):
    """Flattened GHRP I-cache path (Algorithm 1, lines 1-28)."""

    def __init__(self, cache, policy: GHRPPolicy, state: GHRPKernelState):
        super().__init__(cache)
        self.policy = policy
        self.state = state
        self._signatures = policy._signatures
        self._pred_dead = policy._pred_dead
        self._last_use = policy._last_use
        self._clock = policy._clock
        self._enable_bypass = policy.enable_bypass

    @classmethod
    def build(cls, cache, policy, context: KernelContext):
        return cls(cache, policy, context.ghrp_state(policy.predictor))

    @classmethod
    def unsupported_reason(cls, policy, structure: str) -> str | None:
        return super().unsupported_reason(policy, structure) or _shape_reason(
            policy.predictor
        )

    def state_digest(self) -> dict:
        return {
            **self._base_digest(),
            "signatures": self._signatures,
            "pred_dead": self._pred_dead,
            "last_use": self._last_use,
            "clock": self._clock,
            "predictor": self.state.digest(),
        }

    # ------------------------------------------------------------------
    # Batch executors
    # ------------------------------------------------------------------
    def _icache_arrays(self, tokens):
        """Per-access (spec chain, signature, table-index columns)."""
        state = self.state
        block_size = 1 << self._offset_bits
        _blocks, pcs, _acc_end = tokens.access_view(block_size)
        key = (
            "ghrp-icache",
            block_size,
            state.history_shift,
            state.history_mask,
            state.pc_shift,
            state.pc_mask,
            state.sig_mask,
            state.spec,
        )

        def build():
            np = _np
            pcsh, chain = state.pc_chain(pcs)
            sig = (
                (chain[:-1] ^ pcsh.astype(np.uint64)) & np.uint64(state.sig_mask)
            ).astype(np.int64)
            _cols, cols_np = state.signature_columns()
            idx = tuple(col[sig].tolist() for col in cols_np)
            return chain.tolist(), sig.tolist(), idx

        return tokens.view(key, build)

    def _make_window(self, plan: WindowPlan):
        wrapper = plan.btb_kernel
        inner = wrapper.inner if wrapper is not None else None
        if isinstance(inner, GHRPBTBKernel) and not inner.standalone:
            # The gate guarantees a coupled BTB is coupled to this policy.
            return self._make_fused_window(plan, wrapper, inner)
        return self._make_icache_window(plan)

    def _make_icache_window(self, plan: WindowPlan):
        tokens = plan.tokens
        state = self.state
        block_size = 1 << self._offset_bits
        blocks, _pcs, acc_end = tokens.access_view(block_size)
        _sets, atags = tokens.icache_geometry_view(
            block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        sets = _sets
        spec_l, sig_l, (i0a, i1a, i2a) = self._icache_arrays(tokens)
        (l0, l1, l2), _cols_np = state.signature_columns()
        r0, r1, r2 = state.tables
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        sigs = self._signatures
        dead = self._pred_dead
        last_use = self._last_use
        clock = self._clock
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        dead_thr = state.dead_threshold
        bypass_thr = state.bypass_threshold
        counter_max = state.counter_max
        # Stored signatures are truncated to their Table I width at the
        # store, which is where the flow-table1-width proof reads them.
        sig_mask = state.sig_mask
        enable_bypass = self._enable_bypass
        cursor = 0
        d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0
        d_pred = d_inc = d_dec = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor, d_hits, d_misses, d_bypasses, d_evictions, d_dead
            nonlocal d_pred, d_inc, d_dec
            end = acc_end[hi - 1] if hi > 0 else 0
            i = cursor
            bmget = bm.get
            while i < end:
                block = blocks[i]
                set_index = sets[i]
                wayv = bmget(block, -1)
                if wayv >= 0:
                    sigrow = sigs[set_index]
                    old = sigrow[wayv]
                    if old is not None:
                        a = l0[old]
                        v = r0[a]
                        if v > 0:
                            r0[a] = v - 1
                        a = l1[old]
                        v = r1[a]
                        if v > 0:
                            r1[a] = v - 1
                        a = l2[old]
                        v = r2[a]
                        if v > 0:
                            r2[a] = v - 1
                        d_dec += 1
                    sigrow[wayv] = sig_l[i] & sig_mask
                    d_pred += 1
                    dead[set_index][wayv] = (
                        (r0[i0a[i]] >= dead_thr)
                        + (r1[i1a[i]] >= dead_thr)
                        + (r2[i2a[i]] >= dead_thr)
                    ) > 1
                    tick = clock[set_index] + 1
                    clock[set_index] = tick
                    last_use[set_index][wayv] = tick
                    d_hits += 1
                    i += 1
                    continue
                a0 = i0a[i]
                a1 = i1a[i]
                a2 = i2a[i]
                if enable_bypass:
                    d_pred += 1
                    if (
                        (r0[a0] >= bypass_thr)
                        + (r1[a1] >= bypass_thr)
                        + (r2[a2] >= bypass_thr)
                    ) > 1:
                        d_misses += 1
                        d_bypasses += 1
                        i += 1
                        continue
                row = rows[set_index]
                try:
                    wayv = row.index(_INVALID_TAG)
                except ValueError:
                    dead_row = dead[set_index]
                    try:
                        wayv = dead_row.index(True)
                    except ValueError:
                        recency = last_use[set_index]
                        wayv = recency.index(min(recency))
                    d_evictions += 1
                    if dead_row[wayv]:
                        d_dead += 1
                    sigrow = sigs[set_index]
                    old = sigrow[wayv]
                    if old is not None:
                        a = l0[old]
                        v = r0[a]
                        if v < counter_max:
                            r0[a] = v + 1
                        a = l1[old]
                        v = r1[a]
                        if v < counter_max:
                            r1[a] = v + 1
                        a = l2[old]
                        v = r2[a]
                        if v < counter_max:
                            r2[a] = v + 1
                        d_inc += 1
                    sigrow[wayv] = None
                    dead_row[wayv] = False
                    del bm[(row[wayv] << tag_shift) | (set_index << offset_bits)]
                row[wayv] = atags[i]
                bm[block] = wayv
                sigs[set_index][wayv] = sig_l[i] & sig_mask
                d_pred += 1
                dead[set_index][wayv] = (
                    (r0[a0] >= dead_thr)
                    + (r1[a1] >= dead_thr)
                    + (r2[a2] >= dead_thr)
                ) > 1
                tick = clock[set_index] + 1
                clock[set_index] = tick
                last_use[set_index][wayv] = tick
                d_misses += 1
                i += 1
            cursor = i

        def flush() -> None:
            nonlocal d_hits, d_misses, d_bypasses, d_evictions, d_dead
            nonlocal d_pred, d_inc, d_dec
            self._d_hits += d_hits
            self._d_misses += d_misses
            self._d_bypasses += d_bypasses
            self._d_evictions += d_evictions
            self._d_dead_evictions += d_dead
            state.d_predictions += d_pred
            state.d_increments += d_inc
            state.d_decrements += d_dec
            d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0
            d_pred = d_inc = d_dec = 0
            state.commit(spec_l[cursor])

        return span, flush

    def _make_fused_window(self, plan: WindowPlan, wrapper, inner: "GHRPBTBKernel"):
        """One record-ordered loop over both structures (Section III-E).

        The coupled BTB's dead votes read the I-cache block's *current*
        stored signature, so the two access streams cannot be chunked
        independently; this executor interleaves them exactly as the
        reference engine does (all I-cache blocks of a record, then its
        BTB lookup).  The BTB wrapper binds a no-op span for the window
        (see :meth:`GHRPBTBKernel.begin_btb_window`).
        """
        tokens = plan.tokens
        state = self.state
        state2 = inner.state
        shared = state2 is state
        np = _np

        # --- I-cache side (identical data to the solo executor) ---------
        block_size = 1 << self._offset_bits
        blocks, _pcs, acc_end_l = tokens.access_view(block_size)
        sets, atags = tokens.icache_geometry_view(
            block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        spec_l, sig_l, (i0a, i1a, i2a) = self._icache_arrays(tokens)
        (l0, l1, l2), _cols_np = state.signature_columns()
        r0, r1, r2 = state.tables
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        sigs = self._signatures
        dead = self._pred_dead
        last_use = self._last_use
        clock = self._clock
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        dead_thr = state.dead_threshold
        bypass_thr = state.bypass_threshold
        counter_max = state.counter_max
        # Stored signatures are truncated to their Table I width at the
        # store, which is where the flow-table1-width proof reads them.
        sig_mask = state.sig_mask
        enable_bypass = self._enable_bypass

        # --- BTB side ----------------------------------------------------
        geometry = wrapper.btb.geometry
        bblocks, bsets, btags = tokens.btb_geometry_view(
            geometry.block_size,
            inner._offset_bits,
            inner._index_mask,
            inner._tag_shift,
        )
        btarget = tokens.btarget
        btb_end = tokens.btb_end
        if inner._blockmap is None:
            inner._blockmap = inner._build_blockmap()
        bm2 = inner._blockmap
        rows2 = inner._tags
        dead2 = inner._pred_dead
        lu2 = inner._last_use
        clock2 = inner._clock
        btag_shift = inner._tag_shift
        boffset_bits = inner._offset_bits
        targets = wrapper._targets
        (lb0, lb1, lb2), _bcols_np = state2.signature_columns()
        rb0, rb1, rb2 = state2.tables
        bdt = state2.btb_dead_threshold
        bbp = state2.btb_bypass_threshold
        enable_bypass2 = inner._enable_bypass
        bsig_mask = state2.sig_mask
        # Probe locations in the I-cache for each BTB access.
        bpc_np = np.asarray(tokens.bpc, dtype=np.int64)
        pblk = (bpc_np & ~(block_size - 1)).tolist()
        pset = (((bpc_np & ~(block_size - 1)) >> offset_bits) & self._index_mask).tolist()
        bpcsh = (bpc_np >> state2.pc_shift).tolist()
        if not shared:
            # The coupled BTB never advances its own history, so with a
            # private predictor its fallback signature is a constant-spec
            # function of the branch PC.
            dyn_l = (
                (np.uint64(state2.spec) ^ (bpc_np >> state2.pc_shift).astype(np.uint64))
                & np.uint64(bsig_mask)
            ).astype(np.int64).tolist()
        else:
            dyn_l = None

        rcur = 0
        acur = 0
        bcur = 0
        d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0
        d_pred = d_inc = d_dec = 0
        b_hits = b_misses = b_bypasses = b_evictions = b_dead = 0
        b_pred = 0
        d_tm = 0

        def span(lo: int, hi: int) -> None:
            nonlocal rcur, acur, bcur
            nonlocal d_hits, d_misses, d_bypasses, d_evictions, d_dead
            nonlocal d_pred, d_inc, d_dec
            nonlocal b_hits, b_misses, b_bypasses, b_evictions, b_dead, b_pred
            nonlocal d_tm
            r = rcur
            i = acur
            j = bcur
            if r >= hi:
                return
            bmget = bm.get
            bm2get = bm2.get
            while r < hi:
                ae = acc_end_l[r]
                while i < ae:
                    block = blocks[i]
                    set_index = sets[i]
                    wayv = bmget(block, -1)
                    if wayv >= 0:
                        sigrow = sigs[set_index]
                        old = sigrow[wayv]
                        if old is not None:
                            a = l0[old]
                            v = r0[a]
                            if v > 0:
                                r0[a] = v - 1
                            a = l1[old]
                            v = r1[a]
                            if v > 0:
                                r1[a] = v - 1
                            a = l2[old]
                            v = r2[a]
                            if v > 0:
                                r2[a] = v - 1
                            d_dec += 1
                        sigrow[wayv] = sig_l[i] & sig_mask
                        d_pred += 1
                        dead[set_index][wayv] = (
                            (r0[i0a[i]] >= dead_thr)
                            + (r1[i1a[i]] >= dead_thr)
                            + (r2[i2a[i]] >= dead_thr)
                        ) > 1
                        tick = clock[set_index] + 1
                        clock[set_index] = tick
                        last_use[set_index][wayv] = tick
                        d_hits += 1
                        i += 1
                        continue
                    a0 = i0a[i]
                    a1 = i1a[i]
                    a2 = i2a[i]
                    if enable_bypass:
                        d_pred += 1
                        if (
                            (r0[a0] >= bypass_thr)
                            + (r1[a1] >= bypass_thr)
                            + (r2[a2] >= bypass_thr)
                        ) > 1:
                            d_misses += 1
                            d_bypasses += 1
                            i += 1
                            continue
                    row = rows[set_index]
                    try:
                        wayv = row.index(_INVALID_TAG)
                    except ValueError:
                        dead_row = dead[set_index]
                        try:
                            wayv = dead_row.index(True)
                        except ValueError:
                            recency = last_use[set_index]
                            wayv = recency.index(min(recency))
                        d_evictions += 1
                        if dead_row[wayv]:
                            d_dead += 1
                        sigrow = sigs[set_index]
                        old = sigrow[wayv]
                        if old is not None:
                            a = l0[old]
                            v = r0[a]
                            if v < counter_max:
                                r0[a] = v + 1
                            a = l1[old]
                            v = r1[a]
                            if v < counter_max:
                                r1[a] = v + 1
                            a = l2[old]
                            v = r2[a]
                            if v < counter_max:
                                r2[a] = v + 1
                            d_inc += 1
                        sigrow[wayv] = None
                        dead_row[wayv] = False
                        del bm[(row[wayv] << tag_shift) | (set_index << offset_bits)]
                    row[wayv] = atags[i]
                    bm[block] = wayv
                    sigs[set_index][wayv] = sig_l[i] & sig_mask
                    d_pred += 1
                    dead[set_index][wayv] = (
                        (r0[a0] >= dead_thr)
                        + (r1[a1] >= dead_thr)
                        + (r2[a2] >= dead_thr)
                    ) > 1
                    tick = clock[set_index] + 1
                    clock[set_index] = tick
                    last_use[set_index][wayv] = tick
                    d_misses += 1
                    i += 1

                if btb_end[r] > j:
                    # --- the record's BTB lookup (taken, non-return) -----
                    bset = bsets[j]
                    tgt = btarget[j]
                    iway = bmget(pblk[j], -1)
                    sig = None
                    if iway >= 0:
                        sig = sigs[pset[j]][iway]
                    if sig is None:
                        if shared:
                            sig = (spec_l[i] ^ bpcsh[j]) & bsig_mask
                        else:
                            sig = dyn_l[j]
                    c0 = lb0[sig]
                    c1 = lb1[sig]
                    c2 = lb2[sig]
                    way2 = bm2get(bblocks[j], -1)
                    if way2 >= 0:
                        b_pred += 1
                        dead2[bset][way2] = (
                            (rb0[c0] >= bdt) + (rb1[c1] >= bdt) + (rb2[c2] >= bdt)
                        ) > 1
                        tick = clock2[bset] + 1
                        clock2[bset] = tick
                        lu2[bset][way2] = tick
                        b_hits += 1
                        trow = targets[bset]
                        if trow[way2] != tgt:
                            d_tm += 1
                            trow[way2] = tgt
                    else:
                        bypassed = False
                        if enable_bypass2:
                            b_pred += 1
                            if (
                                (rb0[c0] >= bbp) + (rb1[c1] >= bbp) + (rb2[c2] >= bbp)
                            ) > 1:
                                b_misses += 1
                                b_bypasses += 1
                                bypassed = True
                        if not bypassed:
                            row2 = rows2[bset]
                            try:
                                way2 = row2.index(_INVALID_TAG)
                            except ValueError:
                                dr = dead2[bset]
                                try:
                                    way2 = dr.index(True)
                                except ValueError:
                                    rec = lu2[bset]
                                    way2 = rec.index(min(rec))
                                b_evictions += 1
                                if dr[way2]:
                                    b_dead += 1
                                dr[way2] = False
                                del bm2[
                                    (row2[way2] << btag_shift)
                                    | (bset << boffset_bits)
                                ]
                            row2[way2] = btags[j]
                            bm2[bblocks[j]] = way2
                            b_pred += 1
                            dead2[bset][way2] = (
                                (rb0[c0] >= bdt)
                                + (rb1[c1] >= bdt)
                                + (rb2[c2] >= bdt)
                            ) > 1
                            tick = clock2[bset] + 1
                            clock2[bset] = tick
                            lu2[bset][way2] = tick
                            b_misses += 1
                            targets[bset][way2] = tgt
                    j += 1
                r += 1
            rcur = r
            acur = i
            bcur = j

        def flush() -> None:
            nonlocal d_hits, d_misses, d_bypasses, d_evictions, d_dead
            nonlocal d_pred, d_inc, d_dec
            nonlocal b_hits, b_misses, b_bypasses, b_evictions, b_dead, b_pred
            nonlocal d_tm
            self._d_hits += d_hits
            self._d_misses += d_misses
            self._d_bypasses += d_bypasses
            self._d_evictions += d_evictions
            self._d_dead_evictions += d_dead
            state.d_predictions += d_pred
            state.d_increments += d_inc
            state.d_decrements += d_dec
            inner._d_hits += b_hits
            inner._d_misses += b_misses
            inner._d_bypasses += b_bypasses
            inner._d_evictions += b_evictions
            inner._d_dead_evictions += b_dead
            state2.d_predictions += b_pred
            wrapper._d_target_mispredictions += d_tm
            d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0
            d_pred = d_inc = d_dec = 0
            b_hits = b_misses = b_bypasses = b_evictions = b_dead = 0
            b_pred = 0
            d_tm = 0
            state.commit(spec_l[acur])

        inner._fused_window = True
        return span, flush


@batch_kernel(GHRPBTBPolicy)
class GHRPBTBKernel(CacheKernel):
    """Flattened GHRP BTB path (Section III-E), coupled or standalone.

    Coupled mode reads the I-cache block's stored signature straight from
    the aliased I-cache state (the kernels mutate the same rows, so the
    probe is always coherent) and never trains or advances history.
    Standalone mode owns per-entry signatures and trains like the I-cache
    side, with non-speculative history updates (branch PCs only).
    """

    def __init__(self, cache, policy: GHRPBTBPolicy, state: GHRPKernelState):
        super().__init__(cache)
        self.policy = policy
        self.state = state
        self._pred_dead = policy._pred_dead
        self._last_use = policy._last_use
        self._clock = policy._clock
        self._enable_bypass = policy.enable_bypass
        self.standalone = policy.standalone
        self._signatures = policy._signatures  # empty list in coupled mode
        # Set for one window when the I-cache kernel builds the fused
        # coupled executor (which then runs this kernel's accesses too).
        self._fused_window = False

    @classmethod
    def build(cls, cache, policy, context: KernelContext):
        return cls(cache, policy, context.ghrp_state(policy.predictor))

    @classmethod
    def unsupported_reason(cls, policy, structure: str) -> str | None:
        return super().unsupported_reason(policy, structure) or _shape_reason(
            policy.predictor
        )

    def state_digest(self) -> dict:
        return {
            **self._base_digest(),
            "standalone": self.standalone,
            "signatures": self._signatures,
            "pred_dead": self._pred_dead,
            "last_use": self._last_use,
            "clock": self._clock,
            "predictor": self.state.digest(),
        }

    # ------------------------------------------------------------------
    # Batch executors
    # ------------------------------------------------------------------
    def begin_btb_window(self, plan: WindowPlan, wrapper):
        if self._fused_window:
            # The fused coupled executor (bound by the I-cache kernel for
            # this window) already runs every BTB access in record order.
            self._fused_window = False

            def noop_span(lo: int, hi: int) -> None:
                return None

            return noop_span, None
        if not self.standalone:
            raise RuntimeError(
                "coupled GHRP BTB kernel bound without its fused I-cache executor"
            )
        return self._make_standalone_window(plan, wrapper)

    def _make_standalone_window(self, plan: WindowPlan, wrapper):
        """Standalone-mode executor over the BTB stream.

        Every access advances the (private) path history with the branch
        PC, so the chain precomputes over the BTB stream alone.  Stored
        signatures use the pre-update history, dead votes on hit/fill the
        post-update history (the reference ordering).
        """
        tokens = plan.tokens
        state = self.state
        np = _np
        geometry = wrapper.btb.geometry
        bblocks, bsets, btags = tokens.btb_geometry_view(
            geometry.block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        btarget = tokens.btarget
        btb_end = tokens.btb_end
        key = (
            "ghrp-btb-standalone",
            state.history_shift,
            state.history_mask,
            state.pc_shift,
            state.pc_mask,
            state.sig_mask,
            state.spec,
        )

        def build():
            pcsh, chain = state.pc_chain(tokens.bpc)
            pcsh_u = pcsh.astype(np.uint64)
            sig_mask_u = np.uint64(state.sig_mask)
            sig_pre = ((chain[:-1] ^ pcsh_u) & sig_mask_u).astype(np.int64)
            sig_post = ((chain[1:] ^ pcsh_u) & sig_mask_u).astype(np.int64)
            return chain.tolist(), sig_pre.tolist(), sig_post.tolist()

        spec_l, sig_pre, sig_post = tokens.view(key, build)
        (l0, l1, l2), _cols_np = state.signature_columns()
        r0, r1, r2 = state.tables
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        sigs = self._signatures
        dead = self._pred_dead
        last_use = self._last_use
        clock = self._clock
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        targets = wrapper._targets
        bdt = state.btb_dead_threshold
        bbp = state.btb_bypass_threshold
        counter_max = state.counter_max
        enable_bypass = self._enable_bypass
        cursor = 0
        d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0
        d_pred = d_inc = d_dec = 0
        d_tm = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor, d_hits, d_misses, d_bypasses, d_evictions, d_dead
            nonlocal d_pred, d_inc, d_dec, d_tm
            end = btb_end[hi - 1] if hi > 0 else 0
            j = cursor
            bmget = bm.get
            while j < end:
                block = bblocks[j]
                set_index = bsets[j]
                tgt = btarget[j]
                wayv = bmget(block, -1)
                if wayv >= 0:
                    sigrow = sigs[set_index]
                    old = sigrow[wayv]
                    if old is not None:
                        a = l0[old]
                        v = r0[a]
                        if v > 0:
                            r0[a] = v - 1
                        a = l1[old]
                        v = r1[a]
                        if v > 0:
                            r1[a] = v - 1
                        a = l2[old]
                        v = r2[a]
                        if v > 0:
                            r2[a] = v - 1
                        d_dec += 1
                    sigrow[wayv] = sig_pre[j]
                    sig = sig_post[j]
                    d_pred += 1
                    dead[set_index][wayv] = (
                        (r0[l0[sig]] >= bdt)
                        + (r1[l1[sig]] >= bdt)
                        + (r2[l2[sig]] >= bdt)
                    ) > 1
                    tick = clock[set_index] + 1
                    clock[set_index] = tick
                    last_use[set_index][wayv] = tick
                    d_hits += 1
                    trow = targets[set_index]
                    if trow[wayv] != tgt:
                        d_tm += 1
                        trow[wayv] = tgt
                    j += 1
                    continue
                if enable_bypass:
                    sig = sig_pre[j]
                    d_pred += 1
                    if (
                        (r0[l0[sig]] >= bbp)
                        + (r1[l1[sig]] >= bbp)
                        + (r2[l2[sig]] >= bbp)
                    ) > 1:
                        d_misses += 1
                        d_bypasses += 1
                        j += 1
                        continue
                row = rows[set_index]
                try:
                    wayv = row.index(_INVALID_TAG)
                except ValueError:
                    dead_row = dead[set_index]
                    try:
                        wayv = dead_row.index(True)
                    except ValueError:
                        recency = last_use[set_index]
                        wayv = recency.index(min(recency))
                    d_evictions += 1
                    if dead_row[wayv]:
                        d_dead += 1
                    sigrow = sigs[set_index]
                    old = sigrow[wayv]
                    if old is not None:
                        a = l0[old]
                        v = r0[a]
                        if v < counter_max:
                            r0[a] = v + 1
                        a = l1[old]
                        v = r1[a]
                        if v < counter_max:
                            r1[a] = v + 1
                        a = l2[old]
                        v = r2[a]
                        if v < counter_max:
                            r2[a] = v + 1
                        d_inc += 1
                    sigrow[wayv] = None
                    dead_row[wayv] = False
                    del bm[(row[wayv] << tag_shift) | (set_index << offset_bits)]
                row[wayv] = btags[j]
                bm[block] = wayv
                sigs[set_index][wayv] = sig_pre[j]
                sig = sig_post[j]
                d_pred += 1
                dead[set_index][wayv] = (
                    (r0[l0[sig]] >= bdt)
                    + (r1[l1[sig]] >= bdt)
                    + (r2[l2[sig]] >= bdt)
                ) > 1
                tick = clock[set_index] + 1
                clock[set_index] = tick
                last_use[set_index][wayv] = tick
                d_misses += 1
                targets[set_index][wayv] = tgt
                j += 1
            cursor = j

        def flush() -> None:
            nonlocal d_hits, d_misses, d_bypasses, d_evictions, d_dead
            nonlocal d_pred, d_inc, d_dec, d_tm
            self._d_hits += d_hits
            self._d_misses += d_misses
            self._d_bypasses += d_bypasses
            self._d_evictions += d_evictions
            self._d_dead_evictions += d_dead
            state.d_predictions += d_pred
            state.d_increments += d_inc
            state.d_decrements += d_dec
            wrapper._d_target_mispredictions += d_tm
            d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0
            d_pred = d_inc = d_dec = 0
            d_tm = 0
            state.commit(spec_l[cursor])

        return span, flush
