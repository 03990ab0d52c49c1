"""Fast-path kernel for timestamp LRU.

Replays :class:`~repro.policies.lru.LRUPolicy` exactly: per-set logical
clock, per-way timestamps, first-minimum victim selection.  Not valid for
``MRUPolicy`` (different victim rule), which therefore stays on the
reference engine.

The executors replace a per-access ``row.index(tag)`` probe with one
block-map dict lookup and keep the statistic counters in closure locals,
flushed at chunk barriers.
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
        blocks, _pcs, acc_end = tokens.access_view(block_size)
        sets, atags = tokens.icache_geometry_view(
            block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        last_use = self._last_use
        clock = self._clock
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        cursor = 0
        d_hits = d_misses = d_evictions = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor, d_hits, d_misses, d_evictions
            end = acc_end[hi - 1] if hi > 0 else 0
            i = cursor
            bmget = bm.get
            while i < end:
                block = blocks[i]
                set_index = sets[i]
                way = bmget(block, -1)
                if way >= 0:
                    d_hits += 1
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
                tick = clock[set_index] + 1
                clock[set_index] = tick
                last_use[set_index][way] = tick
                i += 1
            cursor = end

        def flush() -> None:
            nonlocal d_hits, d_misses, d_evictions
            self._d_hits += d_hits
            self._d_misses += d_misses
            self._d_evictions += d_evictions
            d_hits = d_misses = d_evictions = 0

        return span, flush

    def begin_btb_window(self, plan: WindowPlan, wrapper):
        """Fused BTB executor: replacement + target array in one loop."""
        tokens = plan.tokens
        geometry = wrapper.btb.geometry
        bblocks, bsets, btags = tokens.btb_geometry_view(
            geometry.block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        btarget = tokens.btarget
        btb_end = tokens.btb_end
        if self._blockmap is None:
            self._blockmap = self._build_blockmap()
        bm = self._blockmap
        rows = self._tags
        targets = wrapper._targets
        last_use = self._last_use
        clock = self._clock
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        cursor = 0
        d_hits = d_misses = d_evictions = 0
        d_target_misp = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor, d_hits, d_misses, d_evictions, d_target_misp
            end = btb_end[hi - 1] if hi > 0 else 0
            j = cursor
            bmget = bm.get
            while j < end:
                block = bblocks[j]
                set_index = bsets[j]
                tgt = btarget[j]
                way = bmget(block, -1)
                if way >= 0:
                    d_hits += 1
                    trow = targets[set_index]
                    if trow[way] != tgt:
                        d_target_misp += 1
                        trow[way] = tgt
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
                    row[way] = btags[j]
                    bm[block] = way
                    d_misses += 1
                    targets[set_index][way] = tgt
                tick = clock[set_index] + 1
                clock[set_index] = tick
                last_use[set_index][way] = tick
                j += 1
            cursor = end

        def flush() -> None:
            nonlocal d_hits, d_misses, d_evictions, d_target_misp
            self._d_hits += d_hits
            self._d_misses += d_misses
            self._d_evictions += d_evictions
            wrapper._d_target_mispredictions += d_target_misp
            d_hits = d_misses = d_evictions = 0
            d_target_misp = 0

        return span, flush
