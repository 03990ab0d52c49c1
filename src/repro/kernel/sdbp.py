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
from repro.kernel.base import (
    BYPASS,
    FILL,
    HIT,
    CacheKernel,
    WindowPlan,
    batch_kernel,
)
from repro.policies.sdbp import SDBPPolicy
from repro.util.bits import mask
from repro.util.hashing import full_space_table, skewed_index_columns

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
        self._lookup = full_space_table(
            bank.num_tables, bank.index_bits, config.signature_bits
        )
        self._num_tables = bank.num_tables
        self._index_bits = bank.index_bits
        self._counter_max = bank.counter_max
        self._sig_mask = mask(config.signature_bits)
        self._sampler_tag_mask = mask(config.sampler_tag_bits)
        self._dead_threshold = config.dead_sum_threshold
        self._bypass_threshold = config.bypass_sum_threshold
        self._d_increments = 0
        self._d_decrements = 0
        # Outcome of the most recent access() (the BTB wrapper reads it).
        self.set_index = 0
        self.way: int | None = None

    def state_digest(self) -> dict:
        return {
            **self._base_digest(),
            "set_index": self.set_index,
            "way": self.way,
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
    def _counter_sum(self, signature: int) -> int:
        # Direct lookup: the table covers the whole signature space.
        idx = self._lookup[signature]
        total = 0
        for row, index in zip(self._counter_rows, idx, strict=True):
            total += row[index]
        return total

    def _train(self, signature: int, is_dead: bool) -> None:
        idx = self._lookup[signature]
        if is_dead:
            counter_max = self._counter_max
            for row, index in zip(self._counter_rows, idx, strict=True):
                value = row[index]
                if value < counter_max:
                    row[index] = value + 1
            self._d_increments += 1
        else:
            for row, index in zip(self._counter_rows, idx, strict=True):
                value = row[index]
                if value > 0:
                    row[index] = value - 1
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

    # ------------------------------------------------------------------
    # The per-access path (SDBP's BTB executor, looped by BTBKernel)
    # ------------------------------------------------------------------
    def access(self, block: int, pc: int) -> int:
        """One demand access to the aligned ``block`` driven by ``pc``.

        Returns :data:`HIT`, :data:`FILL`, or :data:`BYPASS` and leaves
        the touched set/way in ``set_index``/``way`` for the BTB wrapper's
        target array.
        """
        set_index = (block >> self._offset_bits) & self._index_mask
        tag = block >> self._tag_shift
        row = self._tags[set_index]
        try:
            way = row.index(tag)
        except ValueError:
            way = -1
        if way >= 0:
            self._sampler_access(set_index, block, pc)
            self._pred_dead[set_index][way] = (
                self._counter_sum((pc >> 2) & self._sig_mask) >= self._dead_threshold
            )
            clock = self._clock
            tick = clock[set_index] + 1
            clock[set_index] = tick
            self._last_use[set_index][way] = tick
            self._d_hits += 1
            self.set_index = set_index
            self.way = way
            return HIT

        # Miss: bypass check first; a bypassed access still trains the sampler.
        if self._counter_sum((pc >> 2) & self._sig_mask) >= self._bypass_threshold:
            self._sampler_access(set_index, block, pc)
            self._d_misses += 1
            self._d_bypasses += 1
            self.set_index = set_index
            self.way = None
            return BYPASS

        try:
            way = row.index(_INVALID_TAG)
        except ValueError:
            dead_bits = self._pred_dead[set_index]
            try:
                way = dead_bits.index(True)
            except ValueError:
                recency = self._last_use[set_index]
                way = recency.index(min(recency))
            self._d_evictions += 1
            if dead_bits[way]:
                self._d_dead_evictions += 1
            dead_bits[way] = False
        row[way] = tag
        self._sampler_access(set_index, block, pc)
        self._pred_dead[set_index][way] = (
            self._counter_sum((pc >> 2) & self._sig_mask) >= self._dead_threshold
        )
        clock = self._clock
        tick = clock[set_index] + 1
        clock[set_index] = tick
        self._last_use[set_index][way] = tick
        self._d_misses += 1
        self.set_index = set_index
        self.way = way
        return FILL

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
    def _signature_columns(self):
        """Full-space signature → per-table index columns (process memo)."""
        return skewed_index_columns(
            self._num_tables, self._index_bits, self._sig_mask.bit_length()
        )

    @classmethod
    def unsupported_reason(cls, policy, structure: str) -> str | None:
        num_tables = policy.tables.num_tables
        if num_tables != 3:
            # The executor's unrolled vote reads the stock three tables.
            return f"{num_tables} prediction tables (the executor unrolls 3)"
        return None

    def _make_window(self, plan: WindowPlan):
        tokens = plan.tokens
        block_size = 1 << self._offset_bits
        blocks, pcs, acc_end = tokens.access_view(block_size)
        sets, atags = tokens.icache_geometry_view(
            block_size, self._offset_bits, self._index_mask, self._tag_shift
        )
        key = ("sdbp-sig", self._sig_mask)

        def build():
            np = _np
            sig = (np.asarray(pcs, dtype=np.int64) >> 2) & self._sig_mask
            _cols, cols_np = self._signature_columns()
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
        cursor = 0
        d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor, d_hits, d_misses, d_bypasses, d_evictions, d_dead
            end = acc_end[hi - 1] if hi > 0 else 0
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
                i += 1
            cursor = i

        def flush() -> None:
            nonlocal d_hits, d_misses, d_bypasses, d_evictions, d_dead
            self._d_hits += d_hits
            self._d_misses += d_misses
            self._d_bypasses += d_bypasses
            self._d_evictions += d_evictions
            self._d_dead_evictions += d_dead
            d_hits = d_misses = d_bypasses = d_evictions = d_dead = 0

        return span, flush
