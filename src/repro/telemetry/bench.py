"""The perf-regression ledger: BENCH_HISTORY.jsonl append + diff.

``BENCH_PERF.json`` is a snapshot — it shows where throughput *is*, not
where it *was*.  This module turns it into a trajectory: every
``benchmarks/test_kernel_throughput.py`` run appends one JSONL entry,
and ``repro-sim bench-diff`` compares the latest entry against a
baseline with a configurable tolerance.  The default baseline is the
newest earlier entry of the same ``profile`` (:func:`comparable_baseline`):
absolute throughput is only comparable within one profile, so a ledger
whose newest entry has no such predecessor reports "no comparable
baseline" instead of gating against another profile's numbers.  CI runs
the diff gating, at the Makefile's 15% tolerance.

Timestamps come from the CI environment (``GITHUB_RUN_ID``,
``GITHUB_SHA``, ``SOURCE_DATE_EPOCH``) when available, wall clock
otherwise — this file is tooling, not simulation, so the determinism
rules for kernel code do not apply here.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass

__all__ = [
    "BENCH_HISTORY_NAME",
    "DEFAULT_TOLERANCE",
    "append_bench_history",
    "read_bench_history",
    "comparable_baseline",
    "diff_bench_entries",
    "render_bench_diff",
    "PolicyDiff",
]

BENCH_HISTORY_NAME = "BENCH_HISTORY.jsonl"
BENCH_ENTRY_SCHEMA = "repro.telemetry/bench/v1"
DEFAULT_TOLERANCE = 0.10
DEFAULT_METRIC = "fast_accesses_per_sec"


def _stamp() -> dict:
    """Provenance for one ledger entry, preferring CI identifiers."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    return {
        "epoch": int(epoch) if epoch else int(time.time()),
        "run_id": os.environ.get("GITHUB_RUN_ID"),
        "sha": os.environ.get("GITHUB_SHA"),
        "ref": os.environ.get("GITHUB_REF_NAME"),
    }


def append_bench_history(path, report: dict, *, source: str = "bench") -> dict:
    """Append one ``BENCH_PERF.json``-shaped report to the ledger.

    Returns the entry written.  The ledger is append-only JSONL so
    concurrent CI jobs at worst interleave whole lines.
    """
    entry = {
        "schema": BENCH_ENTRY_SCHEMA,
        "source": source,
        "stamp": _stamp(),
        "profile": report.get("profile"),
        "workload": report.get("workload"),
        "policies": report.get("policies", {}),
    }
    if "cache" in report:
        # Scheduler-cache statistics (hit_rate and friends) ride along so
        # bench-diff can track cache effectiveness next to throughput.
        entry["cache"] = report["cache"]
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def read_bench_history(path) -> list[dict]:
    """All ledger entries, oldest first; tolerates blank lines."""
    target = pathlib.Path(path)
    if not target.exists():
        return []
    entries = []
    for line in target.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


def comparable_baseline(entries: list[dict]) -> dict | None:
    """The newest entry before the last one with the same ``profile``."""
    if not entries:
        return None
    profile = entries[-1].get("profile")
    for entry in reversed(entries[:-1]):
        if entry.get("profile") == profile:
            return entry
    return None


@dataclass(frozen=True, slots=True)
class PolicyDiff:
    """Latest-vs-baseline comparison for one policy."""

    policy: str
    baseline: float | None
    latest: float | None
    change: float | None  # fractional change; None when not comparable
    regressed: bool

    @property
    def change_percent(self) -> float | None:
        return None if self.change is None else 100.0 * self.change


def diff_bench_entries(
    baseline: dict,
    latest: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    metric: str = DEFAULT_METRIC,
) -> list[PolicyDiff]:
    """Per-policy diffs between two ledger entries.

    A policy regresses when ``latest`` is more than ``tolerance`` below
    ``baseline`` on ``metric`` (higher is better).  Policies present in
    only one entry are reported but never regress — a renamed policy
    should not page anyone.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    base_policies = baseline.get("policies", {})
    latest_policies = latest.get("policies", {})
    diffs = []
    for policy in sorted(set(base_policies) | set(latest_policies)):
        base_value = base_policies.get(policy, {}).get(metric)
        latest_value = latest_policies.get(policy, {}).get(metric)
        if base_value and latest_value is not None:
            change = (latest_value - base_value) / base_value
            regressed = change < -tolerance
        else:
            change = None
            regressed = False
        diffs.append(
            PolicyDiff(
                policy=policy,
                baseline=base_value,
                latest=latest_value,
                change=change,
                regressed=regressed,
            )
        )
    return diffs


def _cache_hit_rate(entry: dict | None) -> float | None:
    if not entry:
        return None
    cache = entry.get("cache")
    if not isinstance(cache, dict):
        return None
    rate = cache.get("hit_rate")
    return float(rate) if isinstance(rate, (int, float)) else None


def render_bench_diff(
    diffs: list[PolicyDiff],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    metric: str = DEFAULT_METRIC,
    annotate: str | None = None,
    baseline: dict | None = None,
    latest: dict | None = None,
) -> str:
    """Render diffs as a table; ``annotate="github"`` adds ::warning lines.

    When the ``baseline``/``latest`` ledger entries are passed and either
    carries scheduler-cache statistics, a ``cache_hit_rate`` line is
    appended (informational — cache effectiveness never gates).
    """
    lines = [f"bench-diff: {metric}, tolerance {100.0 * tolerance:.0f}%"]
    for diff in diffs:
        if diff.change is None:
            detail = "not comparable"
        else:
            detail = f"{diff.change_percent:+.1f}%"
        flag = "  <-- REGRESSION" if diff.regressed else ""
        lines.append(
            f"  {diff.policy:<8} baseline={diff.baseline or '-':>10} "
            f"latest={diff.latest or '-':>10}  {detail}{flag}"
        )
        if diff.regressed and annotate == "github":
            lines.append(
                f"::warning title=bench-diff::{diff.policy} {metric} "
                f"regressed {diff.change_percent:+.1f}% "
                f"(baseline {diff.baseline}, latest {diff.latest})"
            )
    base_rate = _cache_hit_rate(baseline)
    latest_rate = _cache_hit_rate(latest)
    if base_rate is not None or latest_rate is not None:
        def fmt(rate: float | None) -> str:
            return "-" if rate is None else f"{100.0 * rate:.1f}%"

        lines.append(
            f"  {'cache_hit_rate':<8} baseline={fmt(base_rate):>10} "
            f"latest={fmt(latest_rate):>10}  informational"
        )
    return "\n".join(lines)
