"""Tests for the set-associative cache engine and its stats."""

import pytest

from repro.btb.btb import BranchTargetBuffer
from repro.cache.geometry import CacheGeometry
from repro.cache.policy_api import AccessContext, PolicyError, ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.experiments.cellcache import SnapshotStore
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import build_policies
from repro.policies.dueling import SetDuelingPolicy
from repro.policies.ghrp_policy import GHRPPolicy
from repro.policies.lru import LRUPolicy


def small_cache(policy=None, sets=4, assoc=2, block=64, track_efficiency=False):
    geometry = CacheGeometry(num_sets=sets, associativity=assoc, block_size=block)
    return SetAssociativeCache(geometry, policy or LRUPolicy(), track_efficiency)


class TestBasicBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert cache.access(0x1000).miss
        assert cache.access(0x1000).hit

    def test_same_block_different_offsets_hit(self):
        cache = small_cache()
        cache.access(0x1000)
        assert cache.access(0x103C).hit

    def test_fills_invalid_ways_first(self):
        cache = small_cache()
        a = cache.access(0x0000)
        b = cache.access(0x1000)  # same set (4 sets x 64B: stride 256)
        assert a.way != b.way
        assert a.victim_address is None and b.victim_address is None

    def test_eviction_reports_victim(self):
        cache = small_cache()
        cache.access(0x0000)
        cache.access(0x1000)
        result = cache.access(0x2000)  # same set, set is full
        assert result.victim_address == 0x0000  # LRU victim

    def test_occupancy(self):
        cache = small_cache()
        assert cache.occupancy == 0
        cache.access(0x0000)
        cache.access(0x1000)
        assert cache.occupancy == 2

    def test_probe_and_contains_are_side_effect_free(self):
        cache = small_cache()
        cache.access(0x0000)
        before = cache.stats.accesses
        assert cache.contains(0x0000)
        assert cache.probe(0x9999) is None
        assert cache.stats.accesses == before

    def test_invalidate(self):
        cache = small_cache()
        cache.access(0x0000)
        assert cache.invalidate(0x0000)
        assert not cache.contains(0x0000)
        assert not cache.invalidate(0x0000)

    def test_resident_block(self):
        cache = small_cache()
        result = cache.access(0x1040)
        assert cache.resident_block(result.set_index, result.way) == 0x1040

    def test_bad_victim_from_policy_rejected(self):
        class BadPolicy(LRUPolicy):
            name = "bad"

            def select_victim(self, set_index, ctx):
                return 99

        cache = small_cache(BadPolicy())
        cache.access(0x0000)
        cache.access(0x1000)
        with pytest.raises(ValueError):
            cache.access(0x2000)


class TestStats:
    def test_counters(self):
        cache = small_cache()
        cache.access(0x0000)
        cache.access(0x0000)
        cache.access(0x1000)
        stats = cache.stats
        assert stats.accesses == 3
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.hit_rate == pytest.approx(1 / 3)
        assert stats.miss_rate == pytest.approx(2 / 3)

    def test_mpki_uses_instructions(self):
        stats = CacheStats(misses=5, instructions=10_000)
        assert stats.mpki == pytest.approx(0.5)

    def test_mpki_zero_instructions(self):
        assert CacheStats(misses=5).mpki == 0.0

    def test_snapshot_and_since(self):
        cache = small_cache()
        cache.access(0x0000)
        snapshot = cache.stats.snapshot()
        cache.access(0x0000)
        cache.access(0x1000)
        measured = cache.stats.since(snapshot)
        assert measured.accesses == 2
        assert measured.hits == 1
        assert measured.misses == 1

    def test_eviction_counted(self):
        cache = small_cache()
        cache.access(0x0000)
        cache.access(0x1000)
        cache.access(0x2000)
        assert cache.stats.evictions == 1


class TestEfficiencyTracking:
    def test_single_generation_efficiency(self):
        cache = small_cache(sets=1, assoc=1, track_efficiency=True)
        cache.access(0x0000)  # fill at t=1
        cache.access(0x0000)  # hit at t=2
        cache.access(0x0000)  # hit at t=3 (last use)
        cache.access(0x1000)  # evict at t=4
        cache.finalize()
        matrix = cache.efficiency.efficiency_matrix()
        # Generation: filled t=1, last used t=3, evicted t=4 -> 2/3 live.
        # Second generation (0x1000): filled t=4, finalized t=4 -> 0/0.
        assert matrix[0][0] == pytest.approx(2 / 3)

    def test_never_filled_frames_are_zero(self):
        cache = small_cache(sets=2, assoc=2, track_efficiency=True)
        cache.access(0x0000)
        cache.finalize()
        matrix = cache.efficiency.efficiency_matrix()
        assert matrix[1][0] == 0.0
        assert matrix[1][1] == 0.0

    def test_finalize_twice_rejected(self):
        cache = small_cache(track_efficiency=True)
        cache.finalize()
        with pytest.raises(RuntimeError):
            cache.efficiency.finalize(10)

    def test_overall_efficiency_bounds(self):
        cache = small_cache(track_efficiency=True)
        for i in range(100):
            cache.access((i % 16) * 64)
        cache.finalize()
        assert 0.0 <= cache.efficiency.overall_efficiency <= 1.0

    def test_render_ascii_shape(self):
        cache = small_cache(sets=4, assoc=2, track_efficiency=True)
        cache.access(0)
        cache.finalize()
        art = cache.efficiency.render_ascii()
        lines = art.splitlines()
        assert len(lines) == 4
        assert all(len(line) == 2 for line in lines)


class TestPolicyAPI:
    def test_unbound_policy_rejects_geometry_access(self):
        policy = LRUPolicy()
        with pytest.raises(PolicyError):
            _ = policy.geometry

    def test_double_bind_rejected(self):
        policy = LRUPolicy()
        geometry = CacheGeometry(num_sets=4, associativity=2, block_size=64)
        policy.bind(geometry)
        with pytest.raises(PolicyError):
            policy.bind(geometry)

    def test_ghrp_btb_reads_the_stored_icache_signature(self, tmp_path):
        """Section III-E coupling: a GHRP BTB predicts from the signature
        the I-cache stored for the branch's block, on live structures and
        on structures restored from a warm-up snapshot."""
        icache_policy, btb_policy, _ = build_policies(
            FrontEndConfig(icache_policy="ghrp", btb_policy="ghrp")
        )
        icache = small_cache(icache_policy, sets=64, assoc=4)
        btb = BranchTargetBuffer(64, 4, btb_policy)
        pcs = [0x4000 + 0x40 * i for i in range(8)]
        for pc in pcs:
            icache.access(pc, pc=pc)

        def assert_coupled(icache, btb):
            coupled = btb.policy.icache_policy
            assert coupled is icache.policy
            for pc in pcs:
                set_index = icache.geometry.set_index(pc)
                stored = coupled.stored_signature(set_index, icache.probe(pc))
                assert stored is not None
                assert coupled.stored_signature_for(pc) == stored
                assert btb.policy._signature_for(pc) == stored
            assert coupled.stored_signature_for(0x900000) is None

        assert_coupled(icache, btb)
        snapshots = SnapshotStore(tmp_path / "snapshots")
        assert snapshots.save("ab" * 32, (icache, btb))
        resumed_icache, resumed_btb = snapshots.load("ab" * 32)
        assert_coupled(resumed_icache, resumed_btb)
        # The restored policy reads the restored cache's rows, not a copy.
        resumed_icache.access(0x900000, pc=0x900000)
        coupled = resumed_btb.policy.icache_policy
        assert coupled.stored_signature_for(0x900000) is not None

    def test_set_dueling_children_read_the_cache_rows(self):
        policy = SetDuelingPolicy(GHRPPolicy(), LRUPolicy(), dueling_sets=2)
        cache = small_cache(policy)
        cache.access(0x1000, pc=0x1000)
        assert policy.policy_a._tag_rows is cache._tags
        assert policy.policy_b._tag_rows is cache._tags
        assert policy.policy_a.stored_signature_for(0x1000) is not None

    def test_default_hooks(self):
        class MinimalPolicy(ReplacementPolicy):
            name = "minimal"

            def _allocate_state(self, geometry):
                pass

            def on_hit(self, set_index, way, ctx):
                pass

            def on_fill(self, set_index, way, ctx):
                pass

            def select_victim(self, set_index, ctx):
                return 0

        policy = MinimalPolicy()
        cache = small_cache(policy)
        ctx = AccessContext(address=0, pc=0)
        assert policy.should_bypass(0, ctx) is False
        assert policy.predicts_dead(0, 0) is False
        policy.reset_generation()  # no-op must not raise
        cache.access(0x0000)
