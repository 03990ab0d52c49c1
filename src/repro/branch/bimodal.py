"""Bimodal (per-PC two-bit counter) direction prediction.

The classic Smith predictor: a table of two-bit saturating counters indexed
by the branch PC.  It captures per-branch bias — which, per Section III-E
of the paper, is most of what matters for BTB pressure ("most branches are
highly biased to be taken or not taken").
"""

from __future__ import annotations

from repro.branch.base import BranchDirectionPredictor
from repro.util.bits import log2_exact, mask

__all__ = ["BimodalPredictor"]


class BimodalPredictor(BranchDirectionPredictor):
    """Per-PC two-bit saturating counters."""

    name = "bimodal"

    def __init__(self, table_entries: int = 16384, counter_bits: int = 2):
        super().__init__()
        self._index_bits = log2_exact(table_entries)
        self._counter_max = (1 << counter_bits) - 1
        # Initialize to weakly taken: most branches are taken.
        midpoint = (self._counter_max + 1) // 2
        self._counters = [midpoint] * table_entries

    def _index(self, pc: int) -> int:
        return (pc >> 2) & mask(self._index_bits)

    def predict(self, pc: int) -> bool:
        return self._counters[self._index(pc)] > self._counter_max // 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        value = self._counters[index]
        if taken:
            if value < self._counter_max:
                self._counters[index] = value + 1
        else:
            if value > 0:
                self._counters[index] = value - 1
