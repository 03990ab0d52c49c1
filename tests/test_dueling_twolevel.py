"""Tests for the set-dueling meta-policy."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.policies.dueling import SetDuelingPolicy
from repro.policies.lru import LRUPolicy, MRUPolicy
from repro.policies.registry import make_policy


def dueling_cache(policy_a=None, policy_b=None, sets=64, assoc=4, dueling_sets=8):
    policy = SetDuelingPolicy(
        policy_a or LRUPolicy(), policy_b or MRUPolicy(), dueling_sets=dueling_sets
    )
    geometry = CacheGeometry(num_sets=sets, associativity=assoc, block_size=64)
    return SetAssociativeCache(geometry, policy), policy


class TestSetDueling:
    def test_leader_sets_disjoint_and_nonempty(self):
        _, policy = dueling_cache()
        assert policy._a_leaders and policy._b_leaders
        assert not (policy._a_leaders & policy._b_leaders)

    def test_psel_counts_leader_misses(self):
        cache, policy = dueling_cache()
        leader_a = min(policy._a_leaders)
        before = policy._psel
        # A miss (fill) in an A-leader set increments PSEL.
        cache.access(leader_a * 64)
        assert policy._psel == before + 1

    def test_followers_switch_to_winner(self):
        _, policy = dueling_cache()
        policy._psel = policy._psel_max  # A's leaders miss much more
        assert policy.follower_choice is policy.policy_b
        policy._psel = 0
        assert policy.follower_choice is policy.policy_a

    def test_both_children_observe_all_events(self):
        cache, policy = dueling_cache()
        for i in range(200):
            cache.access((i % 32) * 64)
        # Children's recency state must be populated everywhere we touched.
        assert any(any(row) for row in policy.policy_a._last_use)
        assert any(any(row) for row in policy.policy_b._last_use)

    def test_follower_victims_obey_winner(self):
        cache, policy = dueling_cache(sets=64, assoc=4)
        follower = next(
            s for s in range(64)
            if s not in policy._a_leaders and s not in policy._b_leaders
        )
        base = follower * 64
        stride = 64 * 64
        for i in range(4):
            cache.access(base + i * stride)
        cache.access(base)  # touch block 0: MRU and LRU victims now differ
        policy._psel = 0  # use A = LRU
        lru_victim = policy.select_victim(follower, None)
        policy._psel = policy._psel_max  # use B = MRU
        mru_victim = policy.select_victim(follower, None)
        assert lru_victim != mru_victim

    def test_ghrp_vs_lru_duel_runs(self):
        cache, policy = dueling_cache(
            policy_a=make_policy("ghrp"), policy_b=make_policy("lru")
        )
        for i in range(3000):
            address = ((i * 37) % 1024) * 64
            cache.access(address, pc=address)
        assert cache.stats.accesses == 3000

    def test_validation(self):
        with pytest.raises(ValueError):
            SetDuelingPolicy(LRUPolicy(), MRUPolicy(), dueling_sets=1)
