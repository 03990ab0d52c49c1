"""Per-cache statistics.

The paper's figure of merit is MPKI — misses per 1,000 instructions — with
the instruction count coming from the reconstructed fetch stream, not from
the number of cache accesses.  :class:`CacheStats` therefore counts accesses
and misses itself but has instructions *reported to it* by the simulator.
Warm-up support works by snapshotting and subtracting.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats"]


@dataclass(slots=True)
class CacheStats:
    """Counters for one cache or BTB instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    dead_evictions: int = 0
    instructions: int = 0

    def record_hit(self) -> None:
        self.accesses += 1
        self.hits += 1

    def record_miss(self, bypassed: bool) -> None:
        self.accesses += 1
        self.misses += 1
        if bypassed:
            self.bypasses += 1

    def record_eviction(self, predicted_dead: bool = False) -> None:
        self.evictions += 1
        if predicted_dead:
            self.dead_evictions += 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def mpki(self) -> float:
        """Misses per 1,000 instructions (the paper's figure of merit)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.misses / self.instructions

    def snapshot(self) -> "CacheStats":
        """Copy the current counters (used to mark the end of warm-up)."""
        return CacheStats(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            bypasses=self.bypasses,
            evictions=self.evictions,
            dead_evictions=self.dead_evictions,
            instructions=self.instructions,
        )

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """Counters accumulated after ``baseline`` was snapshotted.

        This implements the paper's warm-up rule: statistics are reported
        only for the post-warm-up region of each trace.
        """
        return CacheStats(
            accesses=self.accesses - baseline.accesses,
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            bypasses=self.bypasses - baseline.bypasses,
            evictions=self.evictions - baseline.evictions,
            dead_evictions=self.dead_evictions - baseline.dead_evictions,
            instructions=self.instructions - baseline.instructions,
        )
