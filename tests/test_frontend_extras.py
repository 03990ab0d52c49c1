"""Additional front-end coverage: config-driven warm-up and the
experiments-runner warm-up rule."""

import pytest

from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import build_frontend
from repro.frontend.options import RunOptions
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload("w", Category.SHORT_MOBILE, seed=4, trace_scale=0.08)


class TestConfigWarmup:
    def test_config_warmup_rule(self, workload):
        config = FrontEndConfig(warmup_fraction=0.5, warmup_cap_instructions=2_000)
        frontend = build_frontend(config)
        result = frontend.run(
            workload.records(),
            RunOptions.from_config_warmup(config, workload.instruction_count()),
        )
        # Cap binds: warm-up ends at ~2000 instructions, not half the trace.
        assert 2_000 <= result.warmup_instructions <= 2_000 + 400

    def test_fraction_binds_when_smaller(self, workload):
        total = workload.instruction_count()
        config = FrontEndConfig(warmup_fraction=0.1, warmup_cap_instructions=10**9)
        frontend = build_frontend(config)
        result = frontend.run(
            workload.records(), RunOptions.from_config_warmup(config, total)
        )
        assert result.warmup_instructions == pytest.approx(total * 0.1, rel=0.1)


class TestRunnerWarmupRule:
    def test_run_cell_uses_paper_rule(self, workload):
        from repro.experiments.runner import run_cell

        config = FrontEndConfig(warmup_cap_instructions=3_000)
        cell = run_cell(workload, "lru", config)
        assert cell.instructions == workload.instruction_count()

    def test_run_workload_matches_direct(self, workload):
        from repro.experiments.runner import run_workload

        config = FrontEndConfig(icache_policy="srrip", warmup_cap_instructions=3_000)
        via_runner = run_workload(workload, config)
        frontend = build_frontend(config)
        direct = frontend.run(
            workload.records(),
            warmup_instructions=min(
                int(workload.instruction_count() * config.warmup_fraction),
                config.warmup_cap_instructions,
            ),
        )
        assert via_runner.icache_mpki == direct.icache_mpki
        assert via_runner.btb_mpki == direct.btb_mpki
