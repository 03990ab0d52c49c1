"""Classical dead-block predictors from the paper's Section II-B.

Two predecessors of SDBP/GHRP, implemented as additional replacement
policies so the library can reproduce the paper's related-work landscape:

- :class:`ReferenceTracePolicy` — Lai, Fide, Falsafi (ISCA 2001):
  "a trace of instruction addresses that make reference to a block is
  summarized in a block signature associated with that block.  The
  signature is used to index a table of saturating counters.  The
  corresponding counter is incremented when a block is evicted and
  decremented when a block is reused."  The original used it to time
  L1D fills ahead of demand; here it drives replacement/bypass the same
  way GHRP does, which isolates the *signature formula* difference
  (per-block accumulated trace vs global path history).

- :class:`CounterDBPPolicy` — Kharbutli & Solihin (IEEE TC 2008), the
  AIP (access interval) flavour: "Each cache block is associated with a
  counter keeping track of the number of accesses to a block before it
  is evicted ... When the counter reaches a threshold, the block is
  predicted as dead."  A per-PC table learns each block's typical access
  count; a block whose live count exceeds its learned count (+ slack) is
  predicted dead.
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.cache.policy_api import AccessContext, ReplacementPolicy
from repro.core.tables import Aggregation, PredictionTableBank
from repro.util.bits import mask

__all__ = ["ReferenceTracePolicy", "CounterDBPPolicy"]


class ReferenceTracePolicy(ReplacementPolicy):
    """Lai-style reference-trace dead block prediction.

    Each resident block accumulates a signature by folding in the PC of
    every access ("the trace of instruction addresses that make reference
    to a block"); the prediction tables are trained with the accumulated
    signature at reuse (live) and eviction (dead).
    """

    name = "reftrace"

    def __init__(
        self,
        signature_bits: int = 16,
        table_index_bits: int = 14,
        counter_bits: int = 2,
        dead_threshold: int = 3,
        initial_counter: int = 2,
        enable_bypass: bool = False,
    ):
        super().__init__()
        self.signature_bits = signature_bits
        self.dead_threshold = dead_threshold
        self.enable_bypass = enable_bypass
        self.tables = PredictionTableBank(
            num_tables=3,
            index_bits=table_index_bits,
            counter_bits=counter_bits,
            aggregation=Aggregation.MAJORITY,
            initial_counter=initial_counter,
        )

    def _allocate_state(self, geometry: CacheGeometry) -> None:
        sets, ways = geometry.num_sets, geometry.associativity
        self._signatures: list[list[int | None]] = [[None] * ways for _ in range(sets)]
        self._pred_dead = [[False] * ways for _ in range(sets)]
        self._last_use = [[0] * ways for _ in range(sets)]
        self._clock = [0] * sets

    def _touch(self, set_index: int, way: int) -> None:
        self._clock[set_index] += 1
        self._last_use[set_index][way] = self._clock[set_index]

    def _fold(self, signature: int, pc: int) -> int:
        """Accumulate an access into the block's reference-trace signature."""
        return ((signature * 3) + (pc >> 2)) & mask(self.signature_bits)

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        old_signature = self._signatures[set_index][way]
        if old_signature is not None:
            # Reuse proves the trace-so-far was not a death trace.
            self.tables.train(old_signature, is_dead=False)
            new_signature = self._fold(old_signature, ctx.pc)
        else:
            new_signature = self._fold(0, ctx.pc)
        self._signatures[set_index][way] = new_signature
        self._pred_dead[set_index][way] = self.tables.predict(
            new_signature, self.dead_threshold
        ).is_dead
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        signature = self._fold(0, ctx.pc)
        self._signatures[set_index][way] = signature
        self._pred_dead[set_index][way] = self.tables.predict(
            signature, self.dead_threshold
        ).is_dead
        self._touch(set_index, way)

    def on_evict(self, set_index: int, way: int, victim_address: int) -> None:
        signature = self._signatures[set_index][way]
        if signature is not None:
            self.tables.train(signature, is_dead=True)
        self._signatures[set_index][way] = None
        self._pred_dead[set_index][way] = False

    def should_bypass(self, set_index: int, ctx: AccessContext) -> bool:
        if not self.enable_bypass:
            return False
        signature = self._fold(0, ctx.pc)
        return self.tables.predict(signature, self.tables.counter_max).is_dead

    def select_victim(self, set_index: int, ctx: AccessContext) -> int:
        for way, dead in enumerate(self._pred_dead[set_index]):
            if dead:
                return way
        recency = self._last_use[set_index]
        return min(range(len(recency)), key=recency.__getitem__)

    def predicts_dead(self, set_index: int, way: int) -> bool:
        return self._pred_dead[set_index][way]


class CounterDBPPolicy(ReplacementPolicy):
    """Kharbutli-style counter-based dead block prediction (AIP flavour).

    A table indexed by the partial PC of the block's *first* access in a
    generation learns how many accesses the block typically receives
    before dying.  Once the live access count passes the learned count
    plus ``slack``, the block is predicted dead.
    """

    name = "counter-dbp"

    def __init__(
        self,
        table_index_bits: int = 14,
        max_count: int = 63,
        slack: int = 1,
    ):
        super().__init__()
        if max_count < 1:
            raise ValueError(f"max_count must be >= 1, got {max_count}")
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        self.max_count = max_count
        self.slack = slack
        self._index_mask = mask(table_index_bits)
        # Learned per-PC access counts; 0 means "not yet learned".
        self._learned = [0] * (1 << table_index_bits)

    def _allocate_state(self, geometry: CacheGeometry) -> None:
        sets, ways = geometry.num_sets, geometry.associativity
        self._count = [[0] * ways for _ in range(sets)]
        self._owner_index = [[0] * ways for _ in range(sets)]
        self._last_use = [[0] * ways for _ in range(sets)]
        self._clock = [0] * sets

    def _touch(self, set_index: int, way: int) -> None:
        self._clock[set_index] += 1
        self._last_use[set_index][way] = self._clock[set_index]

    def _index_of(self, pc: int) -> int:
        return (pc >> 2) & self._index_mask

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        if self._count[set_index][way] < self.max_count:
            self._count[set_index][way] += 1
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._count[set_index][way] = 1
        self._owner_index[set_index][way] = self._index_of(ctx.pc)
        self._touch(set_index, way)

    def on_evict(self, set_index: int, way: int, victim_address: int) -> None:
        """Learn the generation's access count (exponential-ish blend)."""
        index = self._owner_index[set_index][way]
        observed = self._count[set_index][way]
        learned = self._learned[index]
        if learned == 0:
            self._learned[index] = observed
        else:
            # Blend toward the new observation; integer EWMA (alpha=1/2).
            self._learned[index] = max((learned + observed + 1) // 2, 1)
        self._count[set_index][way] = 0

    def predicts_dead(self, set_index: int, way: int) -> bool:
        learned = self._learned[self._owner_index[set_index][way]]
        if learned == 0:
            return False
        return self._count[set_index][way] >= learned + self.slack

    def select_victim(self, set_index: int, ctx: AccessContext) -> int:
        for way in range(len(self._count[set_index])):
            if self.predicts_dead(set_index, way):
                return way
        recency = self._last_use[set_index]
        return min(range(len(recency)), key=recency.__getitem__)
