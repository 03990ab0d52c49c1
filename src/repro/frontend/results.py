"""Simulation results.

Bundles per-structure statistics with the warm-up bookkeeping the paper's
methodology requires: MPKI figures are computed over the post-warm-up
region only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.base import PredictorStats
from repro.cache.stats import CacheStats

__all__ = ["SimulationResult"]


@dataclass(slots=True)
class SimulationResult:
    """Everything measured in one front-end run."""

    instructions: int
    branches: int
    warmup_instructions: int
    icache_total: CacheStats
    icache_measured: CacheStats
    btb_total: CacheStats
    btb_measured: CacheStats
    direction: PredictorStats
    target_mispredictions: int
    ras_underflows: int
    wrong_path_accesses: int
    degraded: bool = False
    """True when the fast engine detected a divergence (or a kernel
    crashed) mid-run and the sentinel layer finished the run on the
    reference engine.  Always False on an undisturbed run, so comparing
    ``dataclasses.asdict`` across engines stays valid."""
    fast_path_fallback_reason: str | None = None
    """Why ``build_frontend(engine="fast")`` fell back to the reference
    engine (None when the requested engine actually ran)."""
    telemetry: object | None = None
    """The finished interval-telemetry series
    (:class:`~repro.telemetry.interval.TelemetryRun`) when the run was
    sampled via ``RunOptions(telemetry=...)``; None otherwise, so
    ``dataclasses.asdict`` comparisons across unsampled runs are
    unaffected."""

    @property
    def icache_mpki(self) -> float:
        """Post-warm-up I-cache misses per 1,000 instructions."""
        return self.icache_measured.mpki

    @property
    def btb_mpki(self) -> float:
        """Post-warm-up BTB misses per 1,000 instructions."""
        return self.btb_measured.mpki

    @property
    def branch_mpki(self) -> float:
        """Direction mispredictions per 1,000 instructions (whole run)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.direction.mispredictions / self.instructions

    @property
    def direction_accuracy(self) -> float:
        return self.direction.accuracy

    def summary_line(self) -> str:
        """One-line human-readable result."""
        return (
            f"instr={self.instructions} icache_mpki={self.icache_mpki:.3f} "
            f"btb_mpki={self.btb_mpki:.3f} dir_acc={self.direction_accuracy:.4f}"
        )
