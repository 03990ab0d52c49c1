"""Tests for the analysis package (reuse distance, deadness)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.deadness import deadness_profile
from repro.analysis.reuse import _Fenwick, reuse_distance_profile
from repro.analysis.characterize import characterize_workload
from repro.cache.geometry import CacheGeometry
from repro.traces.record import BranchRecord, BranchType
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


def block_trace(block_indices):
    """A degenerate trace touching one 64B block per record.

    Each record is an unconditional jump to the next block's address, so
    every reconstructed chunk is exactly one instruction in one block.
    """
    records = []
    for position, index in enumerate(block_indices):
        pc = index * 64
        target = (
            block_indices[position + 1] * 64
            if position + 1 < len(block_indices)
            else pc + 4
        )
        records.append(BranchRecord(pc, BranchType.UNCONDITIONAL, True, target))
    return records


class TestFenwick:
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(-3, 3)), max_size=100))
    def test_prefix_sums_match_naive(self, updates):
        tree = _Fenwick(64)
        naive = [0] * 64
        for index, delta in updates:
            tree.add(index, delta)
            naive[index] += delta
        for query in (0, 1, 31, 63):
            assert tree.prefix_sum(query) == sum(naive[: query + 1])


class TestReuseDistance:
    def test_simple_pattern(self):
        # Accesses: A B A -> A's reuse distance is 1 (B in between).
        profile = reuse_distance_profile(block_trace([1, 2, 1]))
        assert profile.cold_accesses == 2
        assert profile.histogram == {1: 1}

    def test_immediate_reuse_distance_zero(self):
        profile = reuse_distance_profile(block_trace([1, 1, 1]))
        assert profile.histogram == {0: 2}

    def test_cyclic_pattern(self):
        profile = reuse_distance_profile(block_trace([1, 2, 3, 1, 2, 3]))
        assert profile.histogram == {2: 3}
        assert profile.cold_accesses == 3

    def test_hit_rate_at_capacity(self):
        profile = reuse_distance_profile(block_trace([1, 2, 3, 1, 2, 3]))
        # Distances are all 2: a 3-block cache hits all reuses (3/6).
        assert profile.hit_rate_at(3) == pytest.approx(0.5)
        # A 2-block cache misses everything.
        assert profile.hit_rate_at(2) == 0.0

    def test_miss_rate_curve_monotone(self):
        workload = make_workload(
            "w", Category.SHORT_MOBILE, seed=1, trace_scale=0.03
        )
        profile = reuse_distance_profile(workload.records(2000))
        curve = profile.miss_rate_curve([8, 32, 128, 512])
        values = list(curve.values())
        assert values == sorted(values, reverse=True)

    def test_median_distance(self):
        profile = reuse_distance_profile(block_trace([1, 2, 3, 1, 2, 3]))
        assert profile.median_distance == 2

    def test_max_accesses_cap(self):
        workload = make_workload("w", Category.SHORT_MOBILE, seed=1, trace_scale=0.03)
        profile = reuse_distance_profile(workload.records(5000), max_accesses=500)
        assert profile.total_accesses == 500

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_stack_distance(self, blocks):
        """Fenwick-based distances must equal the naive stack computation."""
        profile = reuse_distance_profile(block_trace(blocks))
        naive_hist: dict[int, int] = {}
        stack: list[int] = []  # most recent last
        cold = 0
        for block in blocks:
            if block in stack:
                distance = len(stack) - 1 - stack.index(block)
                naive_hist[distance] = naive_hist.get(distance, 0) + 1
                stack.remove(block)
            else:
                cold += 1
            stack.append(block)
        assert profile.histogram == naive_hist
        assert profile.cold_accesses == cold


class TestDeadness:
    def test_single_use_stream(self):
        # 64 distinct blocks through a tiny cache: every generation n=1.
        geometry = CacheGeometry(num_sets=2, associativity=2, block_size=64)
        profile = deadness_profile(
            block_trace(list(range(64))), geometry=geometry
        )
        assert profile.single_use_fraction == 1.0
        assert profile.generations == 64

    def test_reused_blocks_have_bigger_generations(self):
        geometry = CacheGeometry(num_sets=2, associativity=2, block_size=64)
        profile = deadness_profile(
            block_trace([1, 1, 1, 1, 2, 2, 2]), geometry=geometry
        )
        assert profile.mean_accesses_per_generation > 2
        assert profile.single_use_fraction == 0.0

    def test_dead_time_fraction_bounds(self):
        workload = make_workload("w", Category.SHORT_MOBILE, seed=2, trace_scale=0.03)
        profile = deadness_profile(workload.records(3000))
        assert 0.0 <= profile.dead_time_fraction <= 1.0

    def test_empty_trace(self):
        profile = deadness_profile([])
        assert profile.generations == 0
        assert profile.mean_accesses_per_generation == 0.0
        assert profile.dead_time_fraction == 0.0


class TestCharacterize:
    def test_full_characterization(self):
        workload = make_workload(
            "w", Category.SHORT_MOBILE, seed=1, trace_scale=0.03, footprint_scale=0.3
        )
        report = characterize_workload(workload, max_branches=1500)
        assert report.summary.branch_count == 1500
        assert report.reuse.total_accesses > 0
        assert report.deadness.generations > 0
        text = report.render()
        assert "reuse distances" in text
        assert "single-use fraction" in text
