"""Cache-efficiency (live/dead time) tracking for the heat-map figures.

Figures 1 and 5 of the paper visualize *cache efficiency* (Burger et al.):
the fraction of time each block frame holds a **live** block — one that will
be referenced again before it is evicted.  A block is live from its fill
until its final reference of the generation, and dead from that final
reference until eviction.

The tracker attributes each generation's live span retroactively: it only
learns which reference was the last one when the block is evicted (or when
the simulation ends), exactly like an offline analysis of the access trace.
Time is measured in cache accesses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache.geometry import CacheGeometry

if TYPE_CHECKING:
    import numpy as np

__all__ = ["EfficiencyTracker"]


class EfficiencyTracker:
    """Accumulates per-frame live and total residency time.

    The owning cache calls :meth:`on_fill`, :meth:`on_hit`, and
    :meth:`on_evict` with its access counter as ``now``; call
    :meth:`finalize` once at the end of simulation to close out the blocks
    still resident.
    """

    def __init__(self, geometry: CacheGeometry):
        # numpy loads with the first tracker, not with ``import repro``:
        # only the heat-map figures (Figs. 1 and 5) construct one.
        import numpy as np

        self.geometry = geometry
        shape = (geometry.num_sets, geometry.associativity)
        self._live_time = np.zeros(shape, dtype=np.float64)
        self._total_time = np.zeros(shape, dtype=np.float64)
        # Per-frame state of the generation in flight.
        self._fill_time = np.full(shape, -1, dtype=np.int64)
        self._last_use_time = np.full(shape, -1, dtype=np.int64)
        self._finalized = False

    def on_fill(self, set_index: int, way: int, now: int) -> None:
        self._check_open()
        self._fill_time[set_index, way] = now
        self._last_use_time[set_index, way] = now

    def on_hit(self, set_index: int, way: int, now: int) -> None:
        self._check_open()
        self._last_use_time[set_index, way] = now

    def on_evict(self, set_index: int, way: int, now: int) -> None:
        """Close the frame's current generation at eviction time ``now``."""
        self._check_open()
        self._close_generation(set_index, way, now)
        self._fill_time[set_index, way] = -1
        self._last_use_time[set_index, way] = -1

    def finalize(self, now: int) -> None:
        """Close every in-flight generation at simulation end.

        Blocks still resident are scored as if evicted at ``now``; calling
        any recording method afterwards is an error.
        """
        self._check_open()
        for set_index in range(self.geometry.num_sets):
            for way in range(self.geometry.associativity):
                if self._fill_time[set_index, way] >= 0:
                    self._close_generation(set_index, way, now)
        self._finalized = True

    def _close_generation(self, set_index: int, way: int, now: int) -> None:
        fill = int(self._fill_time[set_index, way])
        if fill < 0:
            return
        last_use = int(self._last_use_time[set_index, way])
        total = max(now - fill, 0)
        live = max(last_use - fill, 0)
        self._total_time[set_index, way] += total
        self._live_time[set_index, way] += live

    def _check_open(self) -> None:
        if self._finalized:
            raise RuntimeError("EfficiencyTracker already finalized")

    def efficiency_matrix(self) -> np.ndarray:
        """Per-frame efficiency in [0, 1]; frames never filled score 0.

        Rows are sets, columns are ways — the layout of the paper's heat
        maps, where "each pixel represents a cache block ... each row
        corresponding to one set".
        """
        import numpy as np

        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(self._total_time > 0, self._live_time / self._total_time, 0.0)
        return ratio

    @property
    def overall_efficiency(self) -> float:
        """Aggregate live time over aggregate residency time."""
        total = float(self._total_time.sum())
        if total == 0:
            return 0.0
        return float(self._live_time.sum()) / total

    def render_ascii(self, levels: str = " .:-=+*#%@") -> str:
        """Render the heat map as ASCII art (lighter = longer live time).

        A terminal-friendly stand-in for the paper's bitmap figures.
        """
        matrix = self.efficiency_matrix()
        top = len(levels) - 1
        lines = []
        for row in matrix:
            lines.append("".join(levels[int(round(v * top))] for v in row))
        return "\n".join(lines)
