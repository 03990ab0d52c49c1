"""Fast-path kernel for the modified SDBP policy.

Replays :class:`~repro.policies.sdbp.SDBPPolicy` — PC-indexed dead-block
prediction with a decoupled sampler and summation aggregation — against the
policy's own sampler entries, prediction bits, and counter tables, all
aliased in place.  SDBP reads its counters directly (no ``Vote``), so
unlike GHRP its predictions are *not* counted in the bank telemetry; only
train events move ``increments``/``decrements``.
"""

from __future__ import annotations

import numpy as _np

from repro.cache.set_assoc import _INVALID_TAG
from repro.kernel.base import CacheKernel, WindowPlan, batch_kernel
from repro.policies.sdbp import SDBPPolicy
from repro.util.bits import mask
from repro.util.hashing import skewed_index_columns

__all__ = ["SDBPKernel"]


@batch_kernel(SDBPPolicy)
class SDBPKernel(CacheKernel):
    """Flattened SDBP: sampler training + sum-thresholded predictions."""

    def __init__(self, cache, policy: SDBPPolicy):
        super().__init__(cache)
        self.policy = policy
        config = policy.config
        bank = policy.tables
        self._pred_dead = policy._pred_dead
        self._last_use = policy._last_use
        self._clock = policy._clock
        self._sampled_sets = policy._sampled_sets
        self._sampler = policy._sampler
        self._sampler_clock = policy._sampler_clock
        self._tables_bank = bank
        self._counter_rows = list(bank._tables)  # outer copy, rows aliased
        # The process-wide memo; it pickles as its key, so a snapshot of
        # this kernel carries no copy of the columns.
        self._columns = skewed_index_columns(
            bank.num_tables, bank.index_bits, config.signature_bits
        )
        self._counter_max = bank.counter_max
        self._sig_mask = mask(config.signature_bits)
        self._sampler_tag_mask = mask(config.sampler_tag_bits)
        self._dead_threshold = config.dead_sum_threshold
        self._bypass_threshold = config.bypass_sum_threshold
        self._d_increments = 0
        self._d_decrements = 0

    def state_digest(self) -> dict:
        return {
            **self._base_digest(),
            "pred_dead": self._pred_dead,
            "last_use": self._last_use,
            "clock": self._clock,
            "tables": self._counter_rows,
            "sampler": [
                [(e.valid, e.partial_tag, e.signature, e.last_use) for e in row]
                for row in self._sampler
            ],
            "sampler_clock": self._sampler_clock,
            "delta_increments": self._d_increments,
            "delta_decrements": self._d_decrements,
        }

    # ------------------------------------------------------------------
    # Flattened predictor operations
    # ------------------------------------------------------------------
    def _train(self, signature: int, is_dead: bool) -> None:
        (c0, c1, c2), _columns_np = self._columns
        r0, r1, r2 = self._counter_rows
        i0 = c0[signature]
        i1 = c1[signature]
        i2 = c2[signature]
        if is_dead:
            counter_max = self._counter_max
            if r0[i0] < counter_max:
                r0[i0] += 1
            if r1[i1] < counter_max:
                r1[i1] += 1
            if r2[i2] < counter_max:
                r2[i2] += 1
            self._d_increments += 1
        else:
            if r0[i0] > 0:
                r0[i0] -= 1
            if r1[i1] > 0:
                r1[i1] -= 1
            if r2[i2] > 0:
                r2[i2] -= 1
            self._d_decrements += 1

    def _sampler_access(self, set_index: int, block: int, pc: int) -> None:
        """Reference ``SDBPPolicy._sampler_access`` on aliased entries."""
        sampler_row = self._sampled_sets.get(set_index)
        if sampler_row is None:
            return
        entries = self._sampler[sampler_row]
        partial_tag = (block >> self._tag_shift) & self._sampler_tag_mask
        sampler_clock = self._sampler_clock
        now = sampler_clock[sampler_row] + 1
        sampler_clock[sampler_row] = now

        for entry in entries:
            if entry.valid and entry.partial_tag == partial_tag:
                self._train(entry.signature, False)
                entry.signature = (pc >> 2) & self._sig_mask
                entry.last_use = now
                return

        # Sampler miss: evict the LRU entry (invalid first), training it dead.
        victim = entries[0]
        victim_key = (victim.valid, victim.last_use)
        for entry in entries:
            key = (entry.valid, entry.last_use)
            if key < victim_key:
                victim = entry
                victim_key = key
        if victim.valid:
            self._train(victim.signature, True)
        victim.valid = True
        victim.partial_tag = partial_tag
        victim.signature = (pc >> 2) & self._sig_mask
        victim.last_use = now

    def sync(self) -> None:
        super().sync()
        bank = self._tables_bank
        bank.increments += self._d_increments
        bank.decrements += self._d_decrements
        self._d_increments = 0
        self._d_decrements = 0

    # ------------------------------------------------------------------
    # Batch executors
    # ------------------------------------------------------------------
    @classmethod
    def unsupported_reason(cls, policy, structure: str) -> str | None:
        num_tables = policy.tables.num_tables
        if num_tables != 3:
            # The executor's unrolled vote reads the stock three tables.
            return f"{num_tables} prediction tables (the executor unrolls 3)"
        return super().unsupported_reason(policy, structure)

    def _make_window(self, plan: WindowPlan):
        tokens = plan.tokens
        block_size = 1 << self._offset_bits
        blocks, pcs, ends = tokens.access_view(block_size)
        sets, atags = tokens.icache_geometry_view(
            block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        return self._bind_stream(
            tokens, ("icache", block_size), blocks, sets, atags, pcs, ends, None
        )

    def begin_btb_window(self, plan: WindowPlan, wrapper):
        """BTB-stream executor: the I-cache loop with the target array inline."""
        tokens = plan.tokens
        blocks, sets, atags = tokens.btb_geometry_view(
            wrapper.btb.geometry.block_size,
            self._offset_bits,
            self._index_mask,
            self._tag_shift,
        )
        return self._bind_stream(
            tokens, ("btb",), blocks, sets, atags, tokens.bpc, tokens.btb_end, wrapper
        )

    def _bind_stream(self, tokens, stream_key, blocks, sets, atags, pcs, ends, wrapper):
        """The window executor over one access stream.

        ``blocks``/``sets``/``atags``/``pcs`` describe each access,
        ``ends`` maps records onto accesses, and ``wrapper`` (the BTB
        stream's :class:`~repro.kernel.base.BTBKernel`, else None) adds
        the target array: a hit checks and rewrites the stored target, a
        fill stores it, a bypass leaves it alone.
        """
        key = (
            "sdbp-sig",
            *stream_key,
            self._sig_mask,
            self._tables_bank.index_bits,
        )

        def build():
            np = _np
            sig = (np.asarray(pcs, dtype=np.int64) >> 2) & self._sig_mask
            _cols, cols_np = self._columns
            return tuple(col[sig].tolist() for col in cols_np)

        i0a, i1a, i2a = tokens.view(key, build)
        r0, r1, r2 = self._counter_rows
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        dead = self._pred_dead
        last_use = self._last_use
        clock = self._clock
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        dead_thr = self._dead_threshold
        bypass_thr = self._bypass_threshold
        sampled = self._sampled_sets
        sampler_access = self._sampler_access
        btb = wrapper is not None
        targets = wrapper._targets if btb else None
        btarget = tokens.btarget
        cursor = 0
        d_hits = d_misses = d_bypasses = d_evictions = d_dead = d_tm = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor, d_hits, d_misses, d_bypasses, d_evictions, d_dead, d_tm
            end = ends[hi - 1] if hi > 0 else 0
            i = cursor
            bmget = bm.get
            while i < end:
                block = blocks[i]
                set_index = sets[i]
                wayv = bmget(block, -1)
                if wayv >= 0:
                    if set_index in sampled:
                        sampler_access(set_index, block, pcs[i])
                    dead[set_index][wayv] = (
                        r0[i0a[i]] + r1[i1a[i]] + r2[i2a[i]]
                    ) >= dead_thr
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
                # Bypass vote reads the pre-sampler counters (reference order).
                if (r0[i0a[i]] + r1[i1a[i]] + r2[i2a[i]]) >= bypass_thr:
                    if set_index in sampled:
                        sampler_access(set_index, block, pcs[i])
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
                    dead_row[wayv] = False
                    del bm[(row[wayv] << tag_shift) | (set_index << offset_bits)]
                row[wayv] = atags[i]
                bm[block] = wayv
                if set_index in sampled:
                    sampler_access(set_index, block, pcs[i])
                dead[set_index][wayv] = (
                    r0[i0a[i]] + r1[i1a[i]] + r2[i2a[i]]
                ) >= dead_thr
                tick = clock[set_index] + 1
                clock[set_index] = tick
                last_use[set_index][wayv] = tick
                d_misses += 1
                if btb:
                    targets[set_index][wayv] = btarget[i]
                i += 1
            cursor = i

        def flush() -> None:
            nonlocal d_hits, d_misses, d_bypasses, d_evictions, d_dead, d_tm
            self._d_hits += d_hits
            self._d_misses += d_misses
            self._d_bypasses += d_bypasses
            self._d_evictions += d_evictions
            self._d_dead_evictions += d_dead
            if btb:
                wrapper._d_target_mispredictions += d_tm
            d_hits = d_misses = d_bypasses = d_evictions = d_dead = d_tm = 0

        return span, flush
