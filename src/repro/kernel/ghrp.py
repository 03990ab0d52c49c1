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
counter tables and per-set metadata.

One loop body, :meth:`GHRPCacheKernel._bind_stream`, replays the
replacement step on either stream: the I-cache's, and a standalone BTB's
(its own signatures and branch-PC history, with the target array handled
inline).  The BTB kernel is the I-cache kernel with the BTB's inputs.  A
coupled BTB (the paper's design) predicts from the I-cache block's
*current* stored signature, so its lookups cannot be chunked apart from
the I-cache stream: the I-cache executor runs each record's BTB lookup
right after that record's I-cache accesses, as the reference engine
orders them, and the BTB binds an idle span.
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


def _idle_span(lo: int, hi: int) -> None:
    """A coupled BTB's span: the I-cache executor runs its lookups."""


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

    def signature_view(self, tokens, stream_key: tuple, pcs, vote_after_update: bool):
        """``(chain, stored, dead_columns, bypass_columns)`` over one stream.

        Every access of the stream advances the history with its PC:
        ``chain`` holds the register before each access (plus the final
        value), ``stored`` the signature each access stores (pre-update
        history), and the column triples the table indices its dead and
        bypass votes read.  The I-cache votes on the stored signature; a
        standalone BTB votes dead on the post-update history (the
        reference ordering).  Memoized on ``tokens`` under every parameter
        the arrays depend on, the history seed included.
        """
        key = (
            "ghrp-sig",
            *stream_key,
            self.history_shift,
            self.history_mask,
            self.pc_shift,
            self.pc_mask,
            self.sig_mask,
            self.index_bits,
            self.spec,
        )

        def build():
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
            pcsh = pcsh.astype(np.uint64)
            sig_mask = np.uint64(self.sig_mask)
            _cols, cols_np = self.signature_columns()
            pre = ((chain[:-1] ^ pcsh) & sig_mask).astype(np.int64)
            bypass = tuple(col[pre].tolist() for col in cols_np)
            dead = bypass
            if vote_after_update:
                post = ((chain[1:] ^ pcsh) & sig_mask).astype(np.int64)
                dead = tuple(col[post].tolist() for col in cols_np)
            return chain.tolist(), pre.tolist(), dead, bypass

        return tokens.view(key, build)

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
    def _make_window(self, plan: WindowPlan):
        tokens = plan.tokens
        block_size = 1 << self._offset_bits
        blocks, pcs, ends = tokens.access_view(block_size)
        sets, atags = tokens.icache_geometry_view(
            block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        signatures = self.state.signature_view(
            tokens, ("icache", block_size), pcs, False
        )
        wrapper = plan.btb_kernel
        inner = wrapper.inner if wrapper is not None else None
        # The gate guarantees a coupled BTB is coupled to this policy.
        coupled = (
            wrapper
            if isinstance(inner, GHRPBTBKernel) and not inner.standalone
            else None
        )
        return self._bind_stream(
            tokens, (blocks, sets, atags, ends), signatures, None, coupled
        )

    def _bind_stream(self, tokens, stream, signatures, wrapper, coupled):
        """The window executor over one access stream.

        ``stream`` is ``(blocks, sets, atags, ends)``: each access's
        block, set and tag, and the record → access prefix ends.
        ``signatures`` is :meth:`GHRPKernelState.signature_view`'s tuple.
        ``wrapper`` (the BTB stream's :class:`~repro.kernel.base.BTBKernel`,
        else None) selects the BTB thresholds and adds the target array: a
        hit checks and rewrites the stored target, a fill stores it, a
        bypass leaves it alone.  ``coupled`` (a coupled GHRP BTB's
        wrapper, on the I-cache stream only) runs that BTB's lookup after
        each record's I-cache accesses: the same replacement step, but
        voting on the I-cache block's stored signature and never training.
        """
        state = self.state
        blocks, sets, atags, ends = stream
        chain, stored, (d0, d1, d2), (b0, b1, b2) = signatures
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
        btb = wrapper is not None
        if btb:
            dead_thr = state.btb_dead_threshold
            bypass_thr = state.btb_bypass_threshold
        else:
            dead_thr = state.dead_threshold
            bypass_thr = state.bypass_threshold
        counter_max = state.counter_max
        # Stored signatures are truncated to their Table I width at the
        # store, which is where the flow-table1-width proof reads them.
        sig_mask = state.sig_mask
        enable_bypass = self._enable_bypass
        lookup = coupled is not None
        target_owner = coupled if lookup else wrapper
        targets = target_owner._targets if target_owner is not None else None
        btarget = tokens.btarget
        if lookup:
            inner = coupled.inner
            state2 = inner.state
            shared = state2 is state
            btb_end = tokens.btb_end
            bblocks, bsets, btags = tokens.btb_geometry_view(
                coupled.btb.geometry.block_size,
                inner._offset_bits,
                inner._index_mask,
                inner._tag_shift,
            )
            if inner._blockmap is None:
                inner._blockmap = inner._build_blockmap()
            bm2 = inner._blockmap
            rows2 = inner._tags
            dead2 = inner._pred_dead
            lu2 = inner._last_use
            clock2 = inner._clock
            btag_shift = inner._tag_shift
            boffset_bits = inner._offset_bits
            (lb0, lb1, lb2), _bcols_np = state2.signature_columns()
            rb0, rb1, rb2 = state2.tables
            bdt = state2.btb_dead_threshold
            bbp = state2.btb_bypass_threshold
            enable_bypass2 = inner._enable_bypass
            bsig_mask = state2.sig_mask
            # A private predictor's history never advances on the coupled
            # BTB, so its fallback signatures read the window's seed.
            spec2 = state2.spec
            # Where each branch probes the I-cache for its block's signature.
            bpc = _np.asarray(tokens.bpc, dtype=_np.int64)
            pblk_np = bpc & ~((1 << offset_bits) - 1)
            pblk = pblk_np.tolist()
            pset = ((pblk_np >> offset_bits) & self._index_mask).tolist()
            bpcsh = (bpc >> state2.pc_shift).tolist()
        cursor = bcursor = 0
        d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0
        d_pred = d_inc = d_dec = d_tm = 0
        b_hits = b_misses = b_bypasses = b_evictions = b_dead = b_pred = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor, bcursor, d_hits, d_misses, d_bypasses, d_evictions
            nonlocal d_dead, d_pred, d_inc, d_dec, d_tm
            nonlocal b_hits, b_misses, b_bypasses, b_evictions, b_dead, b_pred
            i = cursor
            j = bcursor
            bmget = bm.get
            bm2get = bm2.get if lookup else None
            # Without a coupled BTB the chunk is one run of accesses.
            for r in range(lo, hi) if lookup else (hi - 1,):
                end = ends[r]
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
                        sigrow[wayv] = stored[i] & sig_mask
                        d_pred += 1
                        dead[set_index][wayv] = (
                            (r0[d0[i]] >= dead_thr)
                            + (r1[d1[i]] >= dead_thr)
                            + (r2[d2[i]] >= dead_thr)
                        ) > 1
                        tick = clock[set_index] + 1
                        clock[set_index] = tick
                        last_use[set_index][wayv] = tick
                        d_hits += 1
                        if btb:
                            trow = targets[set_index]
                            if trow[wayv] != btarget[i]:
                                d_tm += 1
                                trow[wayv] = btarget[i]
                        i += 1
                        continue
                    if enable_bypass:
                        d_pred += 1
                        if (
                            (r0[b0[i]] >= bypass_thr)
                            + (r1[b1[i]] >= bypass_thr)
                            + (r2[b2[i]] >= bypass_thr)
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
                    sigs[set_index][wayv] = stored[i] & sig_mask
                    d_pred += 1
                    dead[set_index][wayv] = (
                        (r0[d0[i]] >= dead_thr)
                        + (r1[d1[i]] >= dead_thr)
                        + (r2[d2[i]] >= dead_thr)
                    ) > 1
                    tick = clock[set_index] + 1
                    clock[set_index] = tick
                    last_use[set_index][wayv] = tick
                    d_misses += 1
                    if btb:
                        targets[set_index][wayv] = btarget[i]
                    i += 1

                if lookup and btb_end[r] > j:
                    # The record's coupled BTB lookup (taken, non-return).
                    bset = bsets[j]
                    tgt = btarget[j]
                    iway = bmget(pblk[j], -1)
                    sig = sigs[pset[j]][iway] if iway >= 0 else None
                    if sig is None:
                        sig = ((chain[i] if shared else spec2) ^ bpcsh[j]) & bsig_mask
                    c0 = lb0[sig]
                    c1 = lb1[sig]
                    c2 = lb2[sig]
                    way2 = bm2get(bblocks[j], -1)
                    if way2 >= 0:
                        b_hits += 1
                        trow = targets[bset]
                        if trow[way2] != tgt:
                            d_tm += 1
                            trow[way2] = tgt
                    elif enable_bypass2 and (
                        (rb0[c0] >= bbp) + (rb1[c1] >= bbp) + (rb2[c2] >= bbp)
                    ) > 1:
                        b_pred += 1
                        b_misses += 1
                        b_bypasses += 1
                        j += 1
                        continue
                    else:
                        b_pred += enable_bypass2
                        row2 = rows2[bset]
                        try:
                            way2 = row2.index(_INVALID_TAG)
                        except ValueError:
                            dead_row = dead2[bset]
                            try:
                                way2 = dead_row.index(True)
                            except ValueError:
                                recency = lu2[bset]
                                way2 = recency.index(min(recency))
                            b_evictions += 1
                            if dead_row[way2]:
                                b_dead += 1
                            dead_row[way2] = False
                            del bm2[(row2[way2] << btag_shift) | (bset << boffset_bits)]
                        row2[way2] = btags[j]
                        bm2[bblocks[j]] = way2
                        b_misses += 1
                        targets[bset][way2] = tgt
                    b_pred += 1
                    dead2[bset][way2] = (
                        (rb0[c0] >= bdt) + (rb1[c1] >= bdt) + (rb2[c2] >= bdt)
                    ) > 1
                    tick = clock2[bset] + 1
                    clock2[bset] = tick
                    lu2[bset][way2] = tick
                    j += 1
            cursor = i
            bcursor = j

        def flush() -> None:
            nonlocal d_hits, d_misses, d_bypasses, d_evictions, d_dead
            nonlocal d_pred, d_inc, d_dec, d_tm
            nonlocal b_hits, b_misses, b_bypasses, b_evictions, b_dead, b_pred
            self._d_hits += d_hits
            self._d_misses += d_misses
            self._d_bypasses += d_bypasses
            self._d_evictions += d_evictions
            self._d_dead_evictions += d_dead
            state.d_predictions += d_pred
            state.d_increments += d_inc
            state.d_decrements += d_dec
            if target_owner is not None:
                target_owner._d_target_mispredictions += d_tm
            if lookup:
                inner._d_hits += b_hits
                inner._d_misses += b_misses
                inner._d_bypasses += b_bypasses
                inner._d_evictions += b_evictions
                inner._d_dead_evictions += b_dead
                state2.d_predictions += b_pred
            d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0
            d_pred = d_inc = d_dec = d_tm = 0
            b_hits = b_misses = b_bypasses = b_evictions = b_dead = b_pred = 0
            state.commit(chain[cursor])

        return span, flush


@batch_kernel(GHRPBTBPolicy)
class GHRPBTBKernel(GHRPCacheKernel):
    """Flattened GHRP BTB path (Section III-E), coupled or standalone.

    Standalone mode owns per-entry signatures and runs the I-cache
    kernel's loop body over the BTB stream, with non-speculative history
    updates (branch PCs only).  Coupled mode has no executor of its own:
    the I-cache kernel's executor runs its lookups, reading the I-cache
    block's stored signature straight from the aliased I-cache state, and
    never trains or advances history.
    """

    # GHRP's BTB policy replays the BTB stream only.
    _make_window = CacheKernel._make_window

    def __init__(self, cache, policy: GHRPBTBPolicy, state: GHRPKernelState):
        super().__init__(cache, policy, state)  # coupled: no per-entry signatures
        self.standalone = policy.standalone

    def state_digest(self) -> dict:
        return {**super().state_digest(), "standalone": self.standalone}

    def begin_btb_window(self, plan: WindowPlan, wrapper):
        if not self.standalone:
            return _idle_span, None
        tokens = plan.tokens
        blocks, sets, atags = tokens.btb_geometry_view(
            wrapper.btb.geometry.block_size,
            self._offset_bits,
            self._index_mask,
            self._tag_shift,
        )
        signatures = self.state.signature_view(tokens, ("btb",), tokens.bpc, True)
        return self._bind_stream(
            tokens, (blocks, sets, atags, tokens.btb_end), signatures, wrapper, None
        )
