"""Reuse-distance analysis of the fetch-block stream.

Reuse distance (stack distance) of an access = number of *distinct* blocks
touched since the previous access to the same block.  Under LRU, an access
hits a fully-associative cache of C blocks iff its reuse distance is < C,
so the reuse CDF is the capacity miss-rate curve — which is why the
mobile/server footprint divide translates directly into MPKI behaviour.

The implementation uses the classic balanced-tree-free O(N log N) method:
a Fenwick tree over access timestamps counting "still most recent"
positions.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.traces.record import BranchRecord

__all__ = ["ReuseProfile", "reuse_distance_profile"]


class _Fenwick:
    """Fenwick (binary indexed) tree with prefix sums."""

    def __init__(self, size: int):
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index < len(self._tree):
            self._tree[index] += delta
            index += index & -index

    def prefix_sum(self, index: int) -> int:
        """Sum of entries [0, index]."""
        index += 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & -index
        return total


@dataclass(slots=True)
class ReuseProfile:
    """Reuse-distance histogram for one trace."""

    histogram: dict[int, int]
    cold_accesses: int
    total_accesses: int

    def hit_rate_at(self, capacity_blocks: int) -> float:
        """Fully-associative LRU hit rate for a cache of that many blocks."""
        if self.total_accesses == 0:
            return 0.0
        hits = sum(
            count for distance, count in self.histogram.items()
            if distance < capacity_blocks
        )
        return hits / self.total_accesses

    def miss_rate_curve(self, capacities: list[int]) -> dict[int, float]:
        """Capacity -> fully-associative LRU miss rate."""
        return {c: 1.0 - self.hit_rate_at(c) for c in capacities}

    @property
    def median_distance(self) -> int:
        """Median reuse distance over non-cold accesses."""
        reuses = self.total_accesses - self.cold_accesses
        if reuses == 0:
            return 0
        midpoint = reuses // 2
        running = 0
        for distance in sorted(self.histogram):
            running += self.histogram[distance]
            if running > midpoint:
                return distance
        return max(self.histogram, default=0)


def reuse_distance_profile(
    records: Iterable[BranchRecord], block_size: int = 64, max_accesses: int | None = None
) -> ReuseProfile:
    """Compute the reuse-distance histogram of a trace's block stream."""
    from repro.kernel.tokenizer import tokenize_trace

    sequence = tokenize_trace(records).access_view(block_size)[0]
    if max_accesses is not None:
        sequence = sequence[:max_accesses]

    tree = _Fenwick(len(sequence))
    last_position: dict[int, int] = {}
    histogram: dict[int, int] = {}
    cold = 0
    for position, block in enumerate(sequence):
        previous = last_position.get(block)
        if previous is None:
            cold += 1
        else:
            # Distinct blocks since previous = markers in (previous, position).
            distance = tree.prefix_sum(position - 1) - tree.prefix_sum(previous)
            histogram[distance] = histogram.get(distance, 0) + 1
            tree.add(previous, -1)
        tree.add(position, 1)
        last_position[block] = position
    return ReuseProfile(
        histogram=histogram, cold_accesses=cold, total_accesses=len(sequence)
    )
