"""Dead-block (generation) statistics.

A block *generation* runs from fill to eviction; its accesses after the
last use are "dead time".  The paper's premise is that caches spend much
of their capacity on dead blocks; this module measures it directly for a
given cache geometry and policy by replaying a trace.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.policies.registry import make_policy
from repro.traces.record import BranchRecord

__all__ = ["DeadnessProfile", "deadness_profile"]


@dataclass(slots=True)
class DeadnessProfile:
    """Generation statistics for one (trace, geometry, policy) run."""

    generations: int
    accesses_per_generation: dict[int, int]
    single_use_generations: int
    total_live_time: int
    total_resident_time: int

    @property
    def mean_accesses_per_generation(self) -> float:
        if self.generations == 0:
            return 0.0
        total = sum(n * c for n, c in self.accesses_per_generation.items())
        return total / self.generations

    @property
    def single_use_fraction(self) -> float:
        """Fraction of generations with exactly one access (fill only) —
        the streaming blocks GHRP's bypass targets."""
        if self.generations == 0:
            return 0.0
        return self.single_use_generations / self.generations

    @property
    def dead_time_fraction(self) -> float:
        """Fraction of block residency spent dead (1 - cache efficiency)."""
        if self.total_resident_time == 0:
            return 0.0
        return 1.0 - self.total_live_time / self.total_resident_time


def deadness_profile(
    records: Iterable[BranchRecord],
    geometry: CacheGeometry | None = None,
    policy_name: str = "lru",
    block_size: int = 64,
) -> DeadnessProfile:
    """Replay a trace and collect generation statistics."""
    from repro.kernel.tokenizer import tokenize_trace

    geometry = geometry or CacheGeometry.from_capacity(64 * 1024, 8, block_size)
    cache = SetAssociativeCache(geometry, make_policy(policy_name), track_efficiency=True)

    # Per-frame access count of the generation in flight.
    counts = [[0] * geometry.associativity for _ in range(geometry.num_sets)]
    histogram: Counter[int] = Counter()
    generations = 0
    single_use = 0

    blocks, pcs, _ends = tokenize_trace(records).access_view(block_size)
    for block, pc in zip(blocks, pcs):
        result = cache.access(block, pc=pc)
        if result.bypassed:
            continue
        set_index, way = result.set_index, result.way
        if result.hit:
            counts[set_index][way] += 1
        else:
            if result.victim_address is not None:
                ended = counts[set_index][way]
                histogram[ended] += 1
                generations += 1
                if ended == 1:
                    single_use += 1
            counts[set_index][way] = 1

    # Close generations still resident.
    for per_set in counts:
        for count in per_set:
            if count > 0:
                histogram[count] += 1
                generations += 1
                if count == 1:
                    single_use += 1

    cache.finalize()
    tracker = cache.efficiency
    assert tracker is not None
    return DeadnessProfile(
        generations=generations,
        accesses_per_generation=dict(histogram),
        single_use_generations=single_use,
        total_live_time=int(tracker._live_time.sum()),
        total_resident_time=int(tracker._total_time.sum()),
    )
