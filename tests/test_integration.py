"""End-to-end integration tests: the paper's qualitative claims.

These run real simulations on a pressured server workload (scaled down)
and assert the *shape* of the paper's results: policy orderings and the
directions of the headline comparisons.  They are the scientific
regression tests for the reproduction; the benchmarks regenerate the
full figures.
"""

import pytest

from repro.experiments.runner import run_grid
from repro.frontend.config import FrontEndConfig
from repro.workloads.spec import Category


POLICIES = ("lru", "random", "srrip", "sdbp", "ghrp")


@pytest.fixture(scope="module")
def server_workloads():
    """Two capacity-pressured server suite members.

    Full-length traces: GHRP is an online learner, so truncated traces
    would measure its warm-up, not its steady state.
    """
    from repro.workloads.suite import make_suite

    suite = make_suite(base_seed=2018, mix={Category.SHORT_SERVER: 3})
    workloads = [suite[0], suite[2]]
    workloads[0].name = "srv-a"
    workloads[1].name = "srv-b"
    return workloads


@pytest.fixture(scope="module")
def server_grid(server_workloads):
    """Five-policy grid on the batched engine.

    Its results are bit-identical to the reference engine's; SRRIP and
    Random have no kernel and fall back to the reference engine.
    """
    return run_grid(server_workloads, POLICIES, FrontEndConfig(), engine="fast")


class TestReferenceOracle:
    def test_reference_engine_keeps_the_shape(self, server_workloads, server_grid):
        """The reference engine is the oracle: pin its GHRP < LRU shape on
        one workload, and that the batched grid above reproduces it."""
        grid = run_grid(server_workloads[:1], ("lru", "ghrp"), FrontEndConfig())
        assert grid.icache.mean("ghrp") < grid.icache.mean("lru")
        for policy in ("lru", "ghrp"):
            reference, fast = grid.cell(policy, "srv-a"), server_grid.cell(policy, "srv-a")
            assert (reference.icache_misses, reference.btb_misses) == (
                fast.icache_misses, fast.btb_misses
            )


class TestICacheShape:
    def test_random_worse_than_lru(self, server_grid):
        table = server_grid.icache
        assert table.mean("random") > table.mean("lru")

    def test_ghrp_beats_lru(self, server_grid):
        table = server_grid.icache
        assert table.mean("ghrp") < table.mean("lru")

    def test_ghrp_is_best_policy(self, server_grid):
        table = server_grid.icache
        best = min(table.policies, key=table.mean)
        assert best == "ghrp"

    def test_sdbp_close_to_lru(self, server_grid):
        """The paper's modified SDBP lands near LRU on average."""
        table = server_grid.icache
        assert table.mean("sdbp") == pytest.approx(table.mean("lru"), rel=0.15)


class TestBTBShape:
    def test_predictive_policies_beat_lru(self, server_grid):
        table = server_grid.btb
        assert table.mean("ghrp") < table.mean("lru")
        assert table.mean("srrip") < table.mean("lru")

    def test_random_not_better_than_lru(self, server_grid):
        table = server_grid.btb
        assert table.mean("random") >= table.mean("lru") * 0.98


class TestDeadBlockActivity:
    def test_ghrp_predictions_fire(self, server_grid):
        """GHRP must actually be predicting (dead evictions + bypasses),
        not silently degenerating to LRU."""
        for workload in ("srv-a", "srv-b"):
            cell = server_grid.cell("ghrp", workload)
            assert cell.dead_evictions > 0

    def test_non_predictive_policies_report_none(self, server_grid):
        cell = server_grid.cell("lru", "srv-a")
        assert cell.dead_evictions == 0
        assert cell.bypasses == 0


class TestInstrumentsAgree:
    def test_same_trace_same_instructions(self, server_grid):
        """Every policy must have simulated the identical trace."""
        for workload in ("srv-a", "srv-b"):
            instructions = {
                server_grid.cell(policy, workload).instructions
                for policy in POLICIES
            }
            assert len(instructions) == 1

    def test_direction_accuracy_policy_independent(self, server_grid):
        accuracies = {
            round(server_grid.cell(policy, "srv-a").direction_accuracy, 6)
            for policy in POLICIES
        }
        assert len(accuracies) == 1
