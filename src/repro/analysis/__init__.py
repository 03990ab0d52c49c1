"""Workload and cache-behaviour analysis tools.

Research utilities around the paper's motivating observations:

- :mod:`repro.analysis.reuse`: reuse-distance analysis of the fetch-block
  stream — the distribution that determines how a trace responds to cache
  capacity and associativity;
- :mod:`repro.analysis.deadness`: generation statistics (accesses per
  generation, dead fraction) — "It is often the case that a majority of
  the blocks ... are dead" (Section III) made measurable;
- :mod:`repro.analysis.characterize`: one-call workload characterization
  combining trace summary, reuse, and deadness.
"""

from repro.analysis.reuse import ReuseProfile, reuse_distance_profile
from repro.analysis.deadness import DeadnessProfile, deadness_profile
from repro.analysis.characterize import WorkloadCharacterization, characterize_workload

__all__ = [
    "ReuseProfile",
    "reuse_distance_profile",
    "DeadnessProfile",
    "deadness_profile",
    "WorkloadCharacterization",
    "characterize_workload",
]
