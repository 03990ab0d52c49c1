"""Tests for the front-end simulator."""

import pytest

from repro.branch.perceptron import HashedPerceptronPredictor
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import build_frontend
from repro.policies.ghrp_policy import GHRPBTBPolicy, GHRPPolicy
from repro.policies.lru import LRUPolicy
from repro.traces.record import BranchRecord, BranchType
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


def tiny_workload(seed=1):
    return make_workload("w", Category.SHORT_MOBILE, seed=seed, trace_scale=0.05)


class TestConfig:
    def test_defaults_match_paper(self):
        config = FrontEndConfig()
        assert config.icache_bytes == 64 * 1024
        assert config.icache_assoc == 8
        assert config.block_size == 64
        assert config.btb_entries == 4096
        assert config.btb_assoc == 4
        # The paper's one direction predictor; there is no option for it.
        assert type(build_frontend(config).direction) is HashedPerceptronPredictor

    def test_btb_policy_mirrors_icache_by_default(self):
        assert FrontEndConfig(icache_policy="srrip").effective_btb_policy == "srrip"
        assert (
            FrontEndConfig(icache_policy="srrip", btb_policy="lru").effective_btb_policy
            == "lru"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FrontEndConfig(warmup_fraction=1.5)
        with pytest.raises(ValueError):
            FrontEndConfig(wrong_path_depth=-1)

    def test_with_overrides(self):
        config = FrontEndConfig().with_overrides(icache_policy="ghrp")
        assert config.icache_policy == "ghrp"


class TestBuildFrontend:
    def test_plain_policies(self):
        frontend = build_frontend(FrontEndConfig(icache_policy="lru"))
        assert isinstance(frontend.icache.policy, LRUPolicy)
        assert frontend.ghrp is None

    def test_ghrp_sharing(self):
        frontend = build_frontend(FrontEndConfig(icache_policy="ghrp"))
        icache_policy = frontend.icache.policy
        btb_policy = frontend.btb.policy
        assert isinstance(icache_policy, GHRPPolicy)
        assert isinstance(btb_policy, GHRPBTBPolicy)
        assert btb_policy.predictor is icache_policy.predictor
        assert btb_policy.icache_policy is icache_policy
        assert not btb_policy.standalone

    def test_ghrp_btb_only_is_standalone(self):
        frontend = build_frontend(
            FrontEndConfig(icache_policy="lru", btb_policy="ghrp")
        )
        assert isinstance(frontend.btb.policy, GHRPBTBPolicy)
        assert frontend.btb.policy.standalone

    def test_geometry_applied(self):
        config = FrontEndConfig(icache_bytes=16 * 1024, icache_assoc=4, btb_entries=256)
        frontend = build_frontend(config)
        assert frontend.icache.geometry.capacity_bytes == 16 * 1024
        assert frontend.btb.num_entries == 256


class TestRun:
    def test_deterministic_results(self):
        workload = tiny_workload()
        results = []
        for _ in range(2):
            frontend = build_frontend(FrontEndConfig(icache_policy="ghrp"))
            result = frontend.run(workload.records(), warmup_instructions=1000)
            results.append((result.icache_mpki, result.btb_mpki))
        assert results[0] == results[1]

    def test_warmup_subtracts(self):
        workload = tiny_workload()
        frontend = build_frontend(FrontEndConfig())
        result = frontend.run(workload.records(), warmup_instructions=5000)
        assert result.warmup_instructions >= 5000
        assert result.icache_measured.misses <= result.icache_total.misses
        assert result.icache_mpki <= result.icache_total.mpki * 5

    def test_warmup_longer_than_trace(self):
        workload = tiny_workload()
        frontend = build_frontend(FrontEndConfig())
        result = frontend.run(workload.records(), warmup_instructions=10**9)
        # Falls back to measuring the whole trace.
        assert result.warmup_instructions == 0
        assert result.icache_measured.misses == result.icache_total.misses

    def test_max_instructions_stops_early(self):
        workload = tiny_workload()
        frontend = build_frontend(FrontEndConfig())
        result = frontend.run(
            workload.records(), warmup_instructions=0, max_instructions=3000
        )
        assert result.instructions < 3200 + 600  # one chunk of slack

    def test_btb_only_counts_taken_non_returns(self):
        records = [
            BranchRecord(0x1000, BranchType.CONDITIONAL, False, 0x2000),  # not taken
            BranchRecord(0x1010, BranchType.CALL, True, 0x4000),          # taken, BTB
            BranchRecord(0x4008, BranchType.RETURN, True, 0x1014),        # RAS, no BTB
        ]
        frontend = build_frontend(FrontEndConfig())
        frontend.run(iter(records), warmup_instructions=0)
        assert frontend.btb.stats.accesses == 1

    def test_direction_stats_populated(self):
        workload = tiny_workload()
        frontend = build_frontend(FrontEndConfig())
        result = frontend.run(workload.records(), warmup_instructions=0)
        assert result.direction.predictions > 0
        assert 0.5 < result.direction_accuracy <= 1.0

    def test_summary_line(self):
        workload = tiny_workload()
        frontend = build_frontend(FrontEndConfig())
        result = frontend.run(workload.records(), warmup_instructions=0)
        line = result.summary_line()
        assert "icache_mpki" in line and "btb_mpki" in line

    def test_branch_mpki(self):
        workload = tiny_workload()
        frontend = build_frontend(FrontEndConfig())
        result = frontend.run(workload.records(), warmup_instructions=0)
        assert result.branch_mpki >= 0.0


class TestWrongPathSimulation:
    def test_wrong_path_accesses_counted(self):
        workload = tiny_workload()
        frontend = build_frontend(
            FrontEndConfig(icache_policy="ghrp", wrong_path_depth=2)
        )
        result = frontend.run(workload.records(), warmup_instructions=0)
        assert result.wrong_path_accesses > 0
        assert frontend.wrong_path_accesses == result.wrong_path_accesses

    def test_wrong_path_flag_restored(self):
        workload = tiny_workload()
        frontend = build_frontend(
            FrontEndConfig(icache_policy="ghrp", wrong_path_depth=2)
        )
        frontend.run(workload.records(), warmup_instructions=0)
        assert frontend.icache.policy.wrong_path is False

    def test_history_recovers_after_misprediction(self):
        """After a wrong-path excursion the speculative history must equal
        the retired history again."""
        workload = tiny_workload()
        frontend = build_frontend(
            FrontEndConfig(icache_policy="ghrp", wrong_path_depth=3)
        )
        frontend.run(workload.records(), warmup_instructions=0)
        ghrp = frontend.ghrp
        assert ghrp.history.speculative == ghrp.history.retired

    def test_zero_depth_disables(self):
        workload = tiny_workload()
        frontend = build_frontend(FrontEndConfig(icache_policy="ghrp"))
        result = frontend.run(workload.records(), warmup_instructions=0)
        assert result.wrong_path_accesses == 0

    def test_wrong_path_changes_results_but_stays_sane(self):
        workload = tiny_workload()
        plain = build_frontend(FrontEndConfig(icache_policy="ghrp"))
        result_plain = plain.run(workload.records(), warmup_instructions=0)
        spec = build_frontend(FrontEndConfig(icache_policy="ghrp", wrong_path_depth=4))
        result_spec = spec.run(workload.records(), warmup_instructions=0)
        # Wrong-path pollution should not catastrophically change MPKI.
        assert result_spec.icache_total.mpki <= result_plain.icache_total.mpki * 3 + 1
