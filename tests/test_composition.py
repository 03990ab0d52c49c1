"""Composition tests: wrong-path fetch combined with every policy.

Wrong-path simulation is the front end's optional part; it must compose
with any replacement policy without breaking determinism or accounting.
"""

import pytest

from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import build_frontend
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload("w", Category.SHORT_MOBILE, seed=8, trace_scale=0.06)


POLICIES = ("lru", "srrip", "sdbp", "ghrp", "ship", "reftrace")


class TestFullStackCombinations:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_wrong_path_plus_policy(self, workload, policy):
        config = FrontEndConfig(icache_policy=policy, wrong_path_depth=2)
        frontend = build_frontend(config)
        result = frontend.run(workload.records(), warmup_instructions=0)
        stats = frontend.icache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.bypasses <= stats.misses
        assert result.wrong_path_accesses > 0

    def test_wrong_path_accesses_add_to_demand_traffic(self, workload):
        """Wrong-path fetches go straight to the I-cache on top of the
        demand stream, which they leave unchanged."""

        def icache_accesses(depth):
            config = FrontEndConfig(icache_policy="ghrp", wrong_path_depth=depth)
            frontend = build_frontend(config)
            result = frontend.run(workload.records(), warmup_instructions=0)
            return frontend.icache.stats.accesses, result.wrong_path_accesses

        demand, none = icache_accesses(0)
        total, wrong_path = icache_accesses(2)
        assert none == 0 and wrong_path > 0
        assert total == demand + wrong_path

    @pytest.mark.parametrize("policy", ("lru", "ghrp"))
    def test_everything_on_is_deterministic(self, workload, policy):
        def run():
            config = FrontEndConfig(icache_policy=policy, wrong_path_depth=2)
            frontend = build_frontend(config)
            result = frontend.run(workload.records(), warmup_instructions=2000)
            return (
                result.icache_mpki,
                result.btb_mpki,
                result.wrong_path_accesses,
            )

        assert run() == run()
