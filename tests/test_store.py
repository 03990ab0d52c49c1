"""The durable result store: the cell cache behind the sweep scheduler.

These tests look at the store end to end, through ``SweepScheduler``:
results outlive the scheduler (and ``CellCache``) instance that wrote
them, a change to any input of a cell is a miss rather than a stale
hit, and re-running or extending a grid computes only new cells.
"""

import pytest

from repro.experiments.cellcache import CellCache
from repro.experiments.content import cell_digest
from repro.experiments.scheduler import SweepScheduler
from repro.frontend.config import FrontEndConfig
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


@pytest.fixture()
def workload():
    return make_workload(
        "w", Category.SHORT_MOBILE, seed=1, trace_scale=0.02, footprint_scale=0.3
    )


@pytest.fixture()
def config():
    return FrontEndConfig(
        icache_bytes=8 * 1024, icache_assoc=4, btb_entries=256,
        warmup_cap_instructions=1000,
    )


def sweep(root, workloads, policies, config, progress=None):
    """One scheduler run over ``root``; returns ``(grid, stats)``."""
    scheduler = SweepScheduler(root, config)
    grid = scheduler.run(workloads, policies, progress=progress)
    return grid, scheduler.stats


class TestResultStore:
    def test_roundtrip(self, tmp_path, workload, config):
        grid, _ = sweep(tmp_path, [workload], ["lru"], config)
        reopened = CellCache(tmp_path)
        assert reopened.get(cell_digest(workload, "lru", config)) == grid.cells[0]

    def test_key_sensitive_to_policy(self, tmp_path, workload, config):
        sweep(tmp_path, [workload], ["lru"], config)
        _, stats = sweep(tmp_path, [workload], ["ghrp"], config)
        assert (stats.cache_hits, stats.computed) == (0, 1)

    def test_key_sensitive_to_config(self, tmp_path, workload, config):
        sweep(tmp_path, [workload], ["lru"], config)
        other = config.with_overrides(icache_bytes=16 * 1024)
        _, stats = sweep(tmp_path, [workload], ["lru"], other)
        assert (stats.cache_hits, stats.computed) == (0, 1)

    def test_key_sensitive_to_workload_seed(self, tmp_path, workload, config):
        other = make_workload(
            "w", Category.SHORT_MOBILE, seed=2, trace_scale=0.02, footprint_scale=0.3
        )
        sweep(tmp_path, [workload], ["lru"], config)
        _, stats = sweep(tmp_path, [other], ["lru"], config)
        assert (stats.cache_hits, stats.computed) == (0, 1)


class TestRunGridCached:
    """Running a grid against a cache directory that already holds cells."""

    def test_second_run_is_cached(self, tmp_path, workload, config):
        first, _ = sweep(tmp_path, [workload], ["lru", "random"], config)
        assert len(CellCache(tmp_path)) == 2

        # Re-run: results must come from the cache, and still report
        # progress for every cell.
        calls = []
        second, stats = sweep(
            tmp_path, [workload], ["lru", "random"], config, progress=calls.append
        )
        assert len(calls) == 2
        assert (stats.cache_hits, stats.computed) == (2, 0)
        assert second.icache.values == first.icache.values

    def test_extending_policies_adds_cells(self, tmp_path, workload, config):
        sweep(tmp_path, [workload], ["lru"], config)
        grid, stats = sweep(tmp_path, [workload], ["lru", "srrip"], config)
        assert (stats.cache_hits, stats.computed) == (1, 1)
        assert [cell.policy for cell in grid.cells] == ["lru", "srrip"]
        assert len(CellCache(tmp_path)) == 2

    def test_store_persisted_across_instances(self, tmp_path, workload, config):
        sweep(tmp_path, [workload], ["lru"], config)
        cache = CellCache(tmp_path)
        assert len(cache) == 1
        assert cache.get(cell_digest(workload, "lru", config)) is not None
