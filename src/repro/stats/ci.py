"""Relative-difference confidence intervals (Figure 8).

Figure 8 of the paper plots, per policy, the mean of the per-trace
*relative MPKI difference* versus LRU, with 95% confidence-interval error
bars: "the average of this relative difference is -33% meaning that on
average there is a 33% reduction in MPKI using GHRP compared to LRU."

The relative difference for trace *t* is ``(mpki_policy - mpki_lru) /
mpki_lru``; traces where the reference MPKI is ~0 are excluded (the ratio
is undefined there, and those traces are insensitive to replacement).

scipy supplies the t quantile and is imported inside
:func:`relative_difference_ci`, not here: ``repro.stats`` sits on the
import path of every sweep, and only a Figure 8 interval needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.stats.mpki import MPKITable

__all__ = ["RelativeDifference", "relative_difference_ci"]

_MIN_REFERENCE_MPKI = 1e-3


@dataclass(frozen=True, slots=True)
class RelativeDifference:
    """Mean relative difference vs the reference policy, with its CI."""

    policy: str
    reference: str
    mean: float
    ci_low: float
    ci_high: float
    sample_count: int

    @property
    def mean_percent(self) -> float:
        return 100.0 * self.mean

    def render(self) -> str:
        return (
            f"{self.policy}: {self.mean_percent:+.1f}% "
            f"[{100 * self.ci_low:+.1f}%, {100 * self.ci_high:+.1f}%] "
            f"vs {self.reference} (n={self.sample_count})"
        )


def relative_difference_ci(
    table: MPKITable,
    policy: str,
    reference: str = "lru",
    confidence: float = 0.95,
) -> RelativeDifference:
    """Mean per-trace relative MPKI difference with a t-based CI."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    reference_row = table.values[reference]
    policy_row = table.values[policy]
    differences = [
        (policy_row[w] - reference_row[w]) / reference_row[w]
        for w in table.workloads
        if reference_row[w] > _MIN_REFERENCE_MPKI
    ]
    n = len(differences)
    if n == 0:
        return RelativeDifference(policy, reference, 0.0, 0.0, 0.0, 0)
    mean = sum(differences) / n
    if n == 1:
        return RelativeDifference(policy, reference, mean, mean, mean, 1)
    variance = sum((d - mean) ** 2 for d in differences) / (n - 1)
    stderr = math.sqrt(variance / n)
    from scipy import stats as scipy_stats  # deferred: see the module docstring

    t_crit = float(scipy_stats.t.ppf((1 + confidence) / 2, df=n - 1))
    return RelativeDifference(
        policy=policy,
        reference=reference,
        mean=mean,
        ci_low=mean - t_crit * stderr,
        ci_high=mean + t_crit * stderr,
        sample_count=n,
    )
