"""Fast-path kernel for timestamp LRU.

Replays :class:`~repro.policies.lru.LRUPolicy` exactly: per-set logical
clock, per-way timestamps, first-minimum victim selection.  Not valid for
``MRUPolicy`` (different victim rule), which therefore stays on the
reference engine.

Both executors bind one loop body (:meth:`LRUKernel._bind_stream`), which
replaces a per-access ``row.index(tag)`` probe with one block-map dict
lookup, handles the BTB's target array inline, and keeps the statistic
counters in closure locals, flushed at chunk barriers.
"""

from __future__ import annotations

from repro.cache.set_assoc import _INVALID_TAG
from repro.kernel.base import CacheKernel, WindowPlan, batch_kernel
from repro.policies.lru import LRUPolicy

__all__ = ["LRUKernel"]


@batch_kernel(LRUPolicy)
class LRUKernel(CacheKernel):
    """LRU on aliased timestamp rows; never bypasses, never predicts dead."""

    def __init__(self, cache, policy: LRUPolicy):
        super().__init__(cache)
        self.policy = policy
        self._last_use = policy._last_use
        self._clock = policy._clock

    def state_digest(self) -> dict:
        return {
            **self._base_digest(),
            "last_use": self._last_use,
            "clock": self._clock,
        }

    # ------------------------------------------------------------------
    # Batch executors
    # ------------------------------------------------------------------
    def _make_window(self, plan: WindowPlan):
        tokens = plan.tokens
        block_size = 1 << self._offset_bits
        blocks, _pcs, ends = tokens.access_view(block_size)
        sets, atags = tokens.icache_geometry_view(
            block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        return self._bind_stream(tokens, blocks, sets, atags, ends, None)

    def begin_btb_window(self, plan: WindowPlan, wrapper):
        """BTB-stream executor: the I-cache loop with the target array inline."""
        tokens = plan.tokens
        blocks, sets, atags = tokens.btb_geometry_view(
            wrapper.btb.geometry.block_size,
            self._offset_bits,
            self._index_mask,
            self._tag_shift,
        )
        return self._bind_stream(tokens, blocks, sets, atags, tokens.btb_end, wrapper)

    def _bind_stream(self, tokens, blocks, sets, atags, ends, wrapper):
        """The window executor over one access stream.

        ``blocks``/``sets``/``atags`` describe each access, ``ends`` maps
        records onto accesses, and ``wrapper`` (the BTB stream's
        :class:`~repro.kernel.base.BTBKernel`, else None) adds the target
        array: a hit checks and rewrites the stored target, a fill stores
        it.
        """
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        last_use = self._last_use
        clock = self._clock
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        btb = wrapper is not None
        targets = wrapper._targets if btb else None
        btarget = tokens.btarget
        cursor = 0
        d_hits = d_misses = d_evictions = d_tm = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor, d_hits, d_misses, d_evictions, d_tm
            end = ends[hi - 1] if hi > 0 else 0
            i = cursor
            bmget = bm.get
            while i < end:
                block = blocks[i]
                set_index = sets[i]
                way = bmget(block, -1)
                if way >= 0:
                    d_hits += 1
                    if btb:
                        trow = targets[set_index]
                        if trow[way] != btarget[i]:
                            d_tm += 1
                            trow[way] = btarget[i]
                else:
                    row = rows[set_index]
                    try:
                        way = row.index(_INVALID_TAG)
                    except ValueError:
                        recency = last_use[set_index]
                        way = recency.index(min(recency))
                        d_evictions += 1
                        del bm[
                            (row[way] << tag_shift) | (set_index << offset_bits)
                        ]
                    row[way] = atags[i]
                    bm[block] = way
                    d_misses += 1
                    if btb:
                        targets[set_index][way] = btarget[i]
                tick = clock[set_index] + 1
                clock[set_index] = tick
                last_use[set_index][way] = tick
                i += 1
            cursor = end

        def flush() -> None:
            nonlocal d_hits, d_misses, d_evictions, d_tm
            self._d_hits += d_hits
            self._d_misses += d_misses
            self._d_evictions += d_evictions
            if btb:
                wrapper._d_target_mispredictions += d_tm
            d_hits = d_misses = d_evictions = d_tm = 0

        return span, flush
