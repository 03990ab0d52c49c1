"""Per-figure data generators.

One function per artifact in the paper's evaluation section.  Each returns
a small result object carrying both the raw data (for tests and further
analysis) and a ``render()`` method producing the terminal version of the
figure.  The mapping to the paper is documented per function and indexed
in DESIGN.md §4.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.core.config import GHRPConfig
from repro.core.storage import StorageBreakdown, ghrp_storage, sdbp_storage
from repro.experiments.report import bar_chart, format_table
from repro.experiments.runner import GridResult, run_workload
from repro.frontend.config import FrontEndConfig
from repro.policies.registry import PAPER_POLICIES
from repro.policies.sdbp import SDBPConfig
from repro.stats.ci import RelativeDifference, relative_difference_ci
from repro.stats.mpki import MPKITable, subset_at_least
from repro.stats.scurve import SCurve, scurve
from repro.stats.winloss import WinLossTie, classify_win_loss
from repro.workloads.suite import Workload

__all__ = [
    "PAPER_POLICIES",
    "HeatmapResult",
    "fig1_icache_heatmap",
    "SetSamplingResult",
    "fig2_set_sampling",
    "fig3_icache_scurve",
    "DatapathCheck",
    "fig4_datapath",
    "fig5_btb_heatmap",
    "BarsResult",
    "fig6_icache_bars",
    "ConfigSweepResult",
    "fig7_config_sweep",
    "fig8_relative_ci",
    "fig9_win_loss",
    "fig10_btb_bars",
    "fig11_btb_scurve",
    "table1_storage",
    "CategoryBreakdown",
    "category_breakdown",
    "HeadlineNumbers",
    "headline_numbers",
]


# ---------------------------------------------------------------------------
# Figures 1 and 5: efficiency heat maps
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class HeatmapResult:
    """Per-policy cache-efficiency heat maps for one trace."""

    title: str
    workload: str
    matrices: dict[str, np.ndarray]
    overall: dict[str, float]

    def render(self, include_maps: bool = False) -> str:
        lines = [self.title, f"trace: {self.workload}", ""]
        lines.append(
            bar_chart(
                list(self.overall),
                [self.overall[p] for p in self.overall],
                unit=" efficiency",
            )
        )
        if include_maps:
            levels = " .:-=+*#%@"
            for policy, matrix in self.matrices.items():
                lines.append("")
                lines.append(f"[{policy}] (rows = sets, lighter = longer live time)")
                top = len(levels) - 1
                for row in matrix:
                    lines.append("".join(levels[int(round(v * top))] for v in row))
        return "\n".join(lines)


def fig1_icache_heatmap(
    workload: Workload,
    policies: Sequence[str] = PAPER_POLICIES,
    config: FrontEndConfig | None = None,
) -> HeatmapResult:
    """Figure 1: efficiency of a 16KB 8-way I-cache under five policies."""
    base = (config or FrontEndConfig()).with_overrides(
        icache_bytes=16 * 1024, icache_assoc=8, track_efficiency=True
    )
    matrices: dict[str, np.ndarray] = {}
    overall: dict[str, float] = {}
    for policy in policies:
        cell_config = base.with_overrides(icache_policy=policy, btb_policy=policy)
        frontend_result = _run_with_frontend(workload, cell_config)
        tracker = frontend_result.frontend.icache.efficiency
        assert tracker is not None
        matrices[policy] = tracker.efficiency_matrix()
        overall[policy] = tracker.overall_efficiency
    return HeatmapResult(
        title="Fig. 1 — I-cache efficiency heat map (16KB, 8-way)",
        workload=workload.name,
        matrices=matrices,
        overall=overall,
    )


def fig5_btb_heatmap(
    workload: Workload,
    policies: Sequence[str] = PAPER_POLICIES,
    config: FrontEndConfig | None = None,
) -> HeatmapResult:
    """Figure 5: efficiency of a 256-entry 8-way BTB under five policies."""
    base = (config or FrontEndConfig()).with_overrides(
        btb_entries=256, btb_assoc=8, track_efficiency=True
    )
    matrices: dict[str, np.ndarray] = {}
    overall: dict[str, float] = {}
    for policy in policies:
        cell_config = base.with_overrides(icache_policy=policy, btb_policy=policy)
        frontend_result = _run_with_frontend(workload, cell_config)
        tracker = frontend_result.frontend.btb.efficiency
        assert tracker is not None
        matrices[policy] = tracker.efficiency_matrix()
        overall[policy] = tracker.overall_efficiency
    return HeatmapResult(
        title="Fig. 5 — BTB efficiency heat map (256 entries, 8-way)",
        workload=workload.name,
        matrices=matrices,
        overall=overall,
    )


@dataclass(slots=True)
class _FrontendRun:
    frontend: object
    result: object


def _run_with_frontend(workload: Workload, config: FrontEndConfig) -> _FrontendRun:
    """run_workload, but keeping the frontend for state inspection."""
    from repro.frontend.engine import build_frontend

    frontend = build_frontend(config)
    warmup = min(
        int(workload.instruction_count() * config.warmup_fraction),
        config.warmup_cap_instructions,
    )
    result = frontend.run(
        workload.records(),
        warmup_instructions=warmup,
        max_instructions=config.max_instructions,
    )
    return _FrontendRun(frontend=frontend, result=result)


# ---------------------------------------------------------------------------
# Figure 2: set sampling is unsuitable for instruction streams
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SetSamplingResult:
    """LRU vs set-sampled SDBP vs full-sampler SDBP."""

    workload: str
    lru_mpki: float
    sampled_mpki: float
    full_mpki: float
    sampled_stride: int

    def render(self) -> str:
        rows = [
            ("lru", self.lru_mpki),
            (f"sdbp (1/{self.sampled_stride} sets sampled)", self.sampled_mpki),
            ("sdbp (sampler = whole cache)", self.full_mpki),
        ]
        return (
            "Fig. 2 — set sampling cannot generalize for the I-cache\n"
            f"trace: {self.workload}\n"
            + format_table(("configuration", "I-cache MPKI"), rows)
        )


def fig2_set_sampling(
    workload: Workload,
    config: FrontEndConfig | None = None,
    sampled_stride: int = 16,
) -> SetSamplingResult:
    """Figure 2's claim, made quantitative.

    A PC only ever visits one I-cache set, so a sampler observing a subset
    of sets never sees most signatures and SDBP degenerates to its
    fallback; with a sampler as large as the cache (the paper's modified
    SDBP) it at least has complete information.
    """
    base = config or FrontEndConfig()
    lru = run_workload(workload, base.with_overrides(icache_policy="lru"))
    sampled = run_workload(
        workload,
        base.with_overrides(
            icache_policy="sdbp",
            sdbp=SDBPConfig(sampler_set_stride=sampled_stride),
        ),
    )
    full = run_workload(
        workload,
        base.with_overrides(icache_policy="sdbp", sdbp=SDBPConfig(sampler_set_stride=1)),
    )
    return SetSamplingResult(
        workload=workload.name,
        lru_mpki=lru.icache_mpki,
        sampled_mpki=sampled.icache_mpki,
        full_mpki=full.icache_mpki,
        sampled_stride=sampled_stride,
    )


# ---------------------------------------------------------------------------
# Figures 3, 11: S-curves;  Figures 6, 10: per-benchmark bars
# ---------------------------------------------------------------------------


def fig3_icache_scurve(grid: GridResult) -> SCurve:
    """Figure 3: I-cache MPKI S-curve over the suite (64KB 8-way)."""
    return scurve(grid.icache, reference="lru")


def fig11_btb_scurve(grid: GridResult) -> SCurve:
    """Figure 11: BTB MPKI S-curve over the suite."""
    return scurve(grid.btb, reference="lru")


@dataclass(slots=True)
class BarsResult:
    """Per-benchmark MPKI bars plus the suite average (Figures 6 and 10)."""

    title: str
    table: MPKITable
    policies: tuple[str, ...]

    def render(self, max_workloads: int = 12) -> str:
        workloads = self.table.workloads
        shown = workloads[:max_workloads]
        headers = ("benchmark",) + self.policies
        rows: list[tuple[object, ...]] = []
        for workload in shown:
            rows.append(
                (workload,) + tuple(self.table.get(p, workload) for p in self.policies)
            )
        rows.append(
            ("AVERAGE (all)",)
            + tuple(self.table.mean(p) for p in self.policies)
        )
        return f"{self.title}\n" + format_table(headers, rows)


def fig6_icache_bars(grid: GridResult, policies: Sequence[str] = PAPER_POLICIES) -> BarsResult:
    """Figure 6: per-benchmark I-cache MPKI bars (64KB, 8-way, 64B)."""
    return BarsResult(
        title="Fig. 6 — I-cache MPKI per benchmark (64KB 8-way, 64B lines)",
        table=grid.icache,
        policies=tuple(policies),
    )


def fig10_btb_bars(grid: GridResult, policies: Sequence[str] = PAPER_POLICIES) -> BarsResult:
    """Figure 10: per-benchmark BTB MPKI bars (4K-entry, 4-way)."""
    return BarsResult(
        title="Fig. 10 — BTB MPKI per benchmark (4K entries, 4-way)",
        table=grid.btb,
        policies=tuple(policies),
    )


# ---------------------------------------------------------------------------
# Figure 4: the prediction datapath
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class DatapathCheck:
    """Structural validation of the 3-hash/3-table/majority datapath."""

    num_tables: int
    index_bits: int
    distinct_index_fraction: float
    majority_agreement: float

    def render(self) -> str:
        return (
            "Fig. 4 — prediction datapath\n"
            f"{self.num_tables} tables x {1 << self.index_bits} entries; "
            f"hash independence: {self.distinct_index_fraction:.1%} of signatures "
            "map to 3 distinct indices; "
            f"majority==any-2-thresholded agreement: {self.majority_agreement:.1%}"
        )


def fig4_datapath(config: GHRPConfig | None = None, samples: int = 4096) -> DatapathCheck:
    """Validate the Figure 4 datapath: skewed indexing + majority vote."""
    from repro.core.tables import PredictionTableBank

    config = config or GHRPConfig()
    bank = PredictionTableBank(
        config.num_tables, config.table_index_bits, config.counter_bits,
        initial_counter=config.initial_counter,
    )
    distinct = 0
    agree = 0
    for signature in range(samples):
        indices = bank.indices(signature)
        if len(set(indices)) == len(indices):
            distinct += 1
        vote = bank.predict(signature, config.dead_threshold)
        manual = (
            sum(c >= config.dead_threshold for c in vote.counters)
            > config.num_tables // 2
        )
        if vote.is_dead == manual:
            agree += 1
    return DatapathCheck(
        num_tables=config.num_tables,
        index_bits=config.table_index_bits,
        distinct_index_fraction=distinct / samples,
        majority_agreement=agree / samples,
    )


# ---------------------------------------------------------------------------
# Figure 7: configuration sweep
# ---------------------------------------------------------------------------

SWEEP_CONFIGS: tuple[tuple[int, int], ...] = (
    (8 * 1024, 4),
    (8 * 1024, 8),
    (16 * 1024, 4),
    (16 * 1024, 8),
    (32 * 1024, 4),
    (32 * 1024, 8),
    (64 * 1024, 4),
    (64 * 1024, 8),
)
"""The paper's Figure 7 grid: {8,16,32,64}KB x {4,8}-way, 64B blocks."""


@dataclass(slots=True)
class ConfigSweepResult:
    """Mean I-cache MPKI per (capacity, associativity) per policy."""

    means: dict[tuple[int, int], dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        policies = sorted(next(iter(self.means.values())).keys()) if self.means else []
        headers = ("config",) + tuple(policies)
        rows = []
        for (capacity, assoc), per_policy in self.means.items():
            label = f"{capacity // 1024}KB {assoc}-way"
            rows.append((label,) + tuple(per_policy[p] for p in policies))
        return "Fig. 7 — average I-cache MPKI across configurations\n" + format_table(
            headers, rows
        )


def fig7_config_sweep(
    workloads: Sequence[Workload],
    policies: Sequence[str] = PAPER_POLICIES,
    configs: Sequence[tuple[int, int]] = SWEEP_CONFIGS,
    base_config: FrontEndConfig | None = None,
) -> ConfigSweepResult:
    """Figure 7: the policy ordering holds across I-cache geometries."""
    from repro.experiments.runner import run_grid

    base = base_config or FrontEndConfig()
    sweep = ConfigSweepResult()
    for capacity, associativity in configs:
        config = base.with_overrides(icache_bytes=capacity, icache_assoc=associativity)
        grid = run_grid(workloads, policies, config)
        table = grid.icache
        sweep.means[(capacity, associativity)] = {
            policy: table.mean(policy) for policy in policies
        }
    return sweep


# ---------------------------------------------------------------------------
# Figures 8 and 9: statistics vs LRU
# ---------------------------------------------------------------------------


def fig8_relative_ci(
    table: MPKITable, policies: Sequence[str] = ("random", "srrip", "sdbp", "ghrp")
) -> list[RelativeDifference]:
    """Figure 8: mean relative MPKI difference vs LRU with 95% CIs."""
    return [relative_difference_ci(table, policy, reference="lru") for policy in policies]


def fig9_win_loss(
    table: MPKITable, policies: Sequence[str] = ("random", "srrip", "sdbp", "ghrp")
) -> list[WinLossTie]:
    """Figure 9: per-trace better/similar/worse than LRU counts."""
    return [classify_win_loss(table, policy, reference="lru") for policy in policies]


# ---------------------------------------------------------------------------
# Category breakdown (Section V-A: "did not indicate any dependency on
# trace category")
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CategoryBreakdown:
    """Mean MPKI per (category, policy)."""

    structure: str
    means: dict[str, dict[str, float]]

    def render(self) -> str:
        policies = sorted(next(iter(self.means.values()))) if self.means else []
        rows = [
            (category,) + tuple(per_policy[p] for p in policies)
            for category, per_policy in sorted(self.means.items())
        ]
        return (
            f"Per-category mean {self.structure} MPKI\n"
            + format_table(("category",) + tuple(policies), rows)
        )


def category_breakdown(
    grid: GridResult,
    workloads: Sequence[Workload],
    structure: str = "icache",
    policies: Sequence[str] = PAPER_POLICIES,
) -> CategoryBreakdown:
    """Mean MPKI per workload category (the paper's category-independence
    observation: GHRP's benefit is not confined to one bucket)."""
    table = grid.icache if structure == "icache" else grid.btb
    by_category: dict[str, list[str]] = {}
    for workload in workloads:
        by_category.setdefault(workload.category.value, []).append(workload.name)
    means: dict[str, dict[str, float]] = {}
    for category, names in by_category.items():
        restricted = table.restricted(names)
        means[category] = {p: restricted.mean(p) for p in policies}
    return CategoryBreakdown(structure=structure, means=means)


# ---------------------------------------------------------------------------
# Table I: storage
# ---------------------------------------------------------------------------


def table1_storage(
    icache_bytes: int = 64 * 1024,
    icache_assoc: int = 8,
    block_size: int = 64,
    config: GHRPConfig | None = None,
) -> tuple[StorageBreakdown, StorageBreakdown]:
    """Table I: GHRP storage, with modified SDBP for comparison."""
    geometry = CacheGeometry.from_capacity(icache_bytes, icache_assoc, block_size)
    return ghrp_storage(geometry, config), sdbp_storage(geometry)


# ---------------------------------------------------------------------------
# Headline numbers (abstract / Section V-A and V-B)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class HeadlineNumbers:
    """The abstract's summary numbers, for our suite."""

    icache_means: dict[str, float]
    icache_subset_means: dict[str, float]
    subset_size: int
    suite_size: int
    btb_means: dict[str, float]

    def improvement(self, structure: str, policy: str, reference: str = "lru") -> float:
        """Percent MPKI reduction of ``policy`` vs ``reference``."""
        means = self.icache_means if structure == "icache" else self.btb_means
        if means[reference] == 0:
            return 0.0
        return 100.0 * (means[reference] - means[policy]) / means[reference]

    def render(self) -> str:
        lines = ["Headline numbers (paper abstract / Section V)"]
        lines.append("")
        lines.append("I-cache mean MPKI (64KB 8-way):")
        lines.append(
            format_table(
                ("policy", "mean MPKI", "reduction vs LRU"),
                [
                    (p, self.icache_means[p], f"{self.improvement('icache', p):+.1f}%")
                    for p in self.icache_means
                ],
            )
        )
        lines.append("")
        lines.append(
            f"Subset with >= 1 MPKI under LRU ({self.subset_size} of {self.suite_size}):"
        )
        lines.append(
            format_table(
                ("policy", "mean MPKI"),
                [(p, self.icache_subset_means[p]) for p in self.icache_subset_means],
            )
        )
        lines.append("")
        lines.append("BTB mean MPKI (4K entries, 4-way):")
        lines.append(
            format_table(
                ("policy", "mean MPKI", "reduction vs LRU"),
                [
                    (p, self.btb_means[p], f"{self.improvement('btb', p):+.1f}%")
                    for p in self.btb_means
                ],
            )
        )
        return "\n".join(lines)


def headline_numbers(
    grid: GridResult, policies: Sequence[str] = PAPER_POLICIES, subset_threshold: float = 1.0
) -> HeadlineNumbers:
    """Compute the abstract's headline comparisons for our suite."""
    icache = grid.icache
    btb = grid.btb
    subset = subset_at_least(icache, subset_threshold, reference="lru")
    icache_subset = icache.restricted(subset)
    return HeadlineNumbers(
        icache_means={p: icache.mean(p) for p in policies},
        icache_subset_means={p: icache_subset.mean(p) for p in policies},
        subset_size=len(subset),
        suite_size=len(icache.workloads),
        btb_means={p: btb.mean(p) for p in policies},
    )
