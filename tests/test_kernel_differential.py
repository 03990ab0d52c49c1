"""Differential suite: the batched fast path is bit-identical.

``engine="fast"`` is only allowed to be faster — every statistic in the
:class:`SimulationResult` and every piece of modeled state (tags, policy
metadata, prediction-table counters, path histories, perceptron weights)
must match the reference engine exactly after the run.  These tests run
both engines on the same records and compare results *and* deep internal
state, across every kernelized policy and several workload archetypes.

Also pinned here: the build-time gate (every configuration the batch
loop does not replay falls back to the reference engine with a recorded
reason and identical results), metrics-only observability staying on
the batch loop, and :func:`repro.util.hashing.full_space_table` (the
kernels' precomputed index lookup) agreeing with the scalar
:func:`repro.util.hashing.skewed_indices` everywhere.
"""

import io
from dataclasses import asdict, replace

import pytest

import repro.frontend.engine as frontend_engine
from repro.branch.bimodal import BimodalPredictor
from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.config import GHRPConfig
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import FrontEnd, build_frontend, build_policies
from repro.frontend.options import RunOptions
from repro.kernel.engine import FastFrontEnd
from repro.obs import NULL_OBS, EventTracer, Observability
from repro.policies.ghrp_policy import GHRPBTBPolicy, GHRPPolicy
from repro.policies.sdbp import SDBPConfig
from repro.util.hashing import full_space_table, skewed_indices
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


def deep_state(frontend):
    """Everything the simulation mutates, pulled out of the live objects."""
    out = {
        "icache_tags": frontend.icache._tags,
        "btb_tags": frontend.btb._cache._tags,
        "btb_targets": frontend.btb._targets,
        "btb_target_mispredictions": frontend.btb.target_mispredictions,
        "clocks": (frontend.icache.now, frontend.btb._cache.now),
        "direction_stats": (
            frontend.direction.stats.predictions,
            frontend.direction.stats.mispredictions,
        ),
    }
    for label, policy in (("ic", frontend.icache.policy), ("btb", frontend.btb.policy)):
        for attr in ("_signatures", "_pred_dead", "_last_use", "_clock"):
            if hasattr(policy, attr):
                out[f"{label}{attr}"] = getattr(policy, attr)
        if hasattr(policy, "tables"):
            bank = policy.tables
            out[f"{label}_tables"] = (
                bank._tables,
                bank.predictions,
                bank.increments,
                bank.decrements,
            )
        if hasattr(policy, "predictor"):
            history = policy.predictor.history
            out[f"{label}_history"] = (history.speculative, history.retired)
            bank = policy.predictor.tables
            out[f"{label}_ptables"] = (
                bank._tables,
                bank.predictions,
                bank.increments,
                bank.decrements,
            )
        if hasattr(policy, "_sampler"):
            out[f"{label}_sampler"] = [
                [(e.valid, e.partial_tag, e.signature, e.last_use) for e in row]
                for row in policy._sampler
            ]
    direction = frontend.direction
    if hasattr(direction, "_weights"):
        out["direction_state"] = (
            direction._weights,
            direction._outcome_history,
            direction._path_history,
            direction._last_sum,
            direction._last_indices,
        )
    return out


def run_both(config, category=Category.SHORT_SERVER, trace_scale=0.05, warmup=2000):
    workload = make_workload("diff", category, seed=2018, trace_scale=trace_scale)
    records = list(workload.records())
    options = RunOptions(warmup_instructions=warmup)

    reference = build_frontend(config, engine="reference")
    fast = build_frontend(config, engine="fast")
    assert type(reference) is FrontEnd
    assert type(fast) is FastFrontEnd, "config unexpectedly fell back to reference"

    ref_result = reference.run(records, options)
    fast_result = fast.run(records, options)
    return (ref_result, deep_state(reference)), (fast_result, deep_state(fast))


def assert_identical(config, **run_kwargs):
    (ref_result, ref_state), (fast_result, fast_state) = run_both(config, **run_kwargs)
    assert asdict(ref_result) == asdict(fast_result)
    assert ref_state.keys() == fast_state.keys()
    for key in ref_state:
        assert ref_state[key] == fast_state[key], f"state diverged: {key}"


class TestKernelDifferential:
    @pytest.mark.parametrize("policy", ["lru", "sdbp", "ghrp"])
    @pytest.mark.parametrize(
        "category",
        [Category.SHORT_SERVER, Category.SHORT_MOBILE, Category.LONG_MOBILE],
    )
    def test_policy_across_archetypes(self, policy, category):
        assert_identical(FrontEndConfig(icache_policy=policy), category=category)

    def test_standalone_ghrp_btb(self):
        assert_identical(FrontEndConfig(icache_policy="lru", btb_policy="ghrp"))


def _shared_standalone_btb(config):
    """``build_policies`` twin: a standalone GHRP BTB on the I-cache's predictor."""
    icache_policy, _btb_policy, ghrp = build_policies(config)
    return icache_policy, GHRPBTBPolicy(predictor=ghrp), ghrp


def _foreign_coupled_btb(config):
    """``build_policies`` twin: a GHRP BTB coupled to another front end's I-cache."""
    icache_policy, _btb_policy, ghrp = build_policies(config)
    foreign = GHRPPolicy(predictor=ghrp)
    geometry = CacheGeometry.from_capacity(
        config.icache_bytes, config.icache_assoc, config.block_size
    )
    SetAssociativeCache(geometry, foreign)
    return icache_policy, GHRPBTBPolicy(predictor=ghrp, icache_policy=foreign), ghrp


GHRP = dict(icache_policy="ghrp", btb_policy="ghrp")

# (config, build_policies override, traced, the cause the reason names)
GATE_CASES = [
    pytest.param(
        # Wrong-path fetches train the predictor off-path and the GHRP
        # history must be recovered afterwards.
        FrontEndConfig(icache_policy="ghrp", wrong_path_depth=4),
        None, False, "wrong-path", id="wrong-path-ghrp",
    ),
    pytest.param(
        FrontEndConfig(icache_policy="ghrp", btb_policy="lru", wrong_path_depth=3),
        None, False, "wrong-path", id="wrong-path-mixed",
    ),
    pytest.param(FrontEndConfig(**GHRP), None, True, "tracing", id="event-tracer"),
    pytest.param(
        FrontEndConfig(**GHRP, ghrp=GHRPConfig(aggregation="sum")),
        None, False, "sum aggregation", id="ghrp-sum",
    ),
    pytest.param(
        FrontEndConfig(**GHRP, ghrp=GHRPConfig(num_tables=5)),
        None, False, "5 prediction tables", id="ghrp-tables",
    ),
    pytest.param(
        FrontEndConfig(**GHRP, ghrp=GHRPConfig(history_bits=72)),
        None, False, "72-bit history", id="ghrp-wide-history",
    ),
    pytest.param(
        FrontEndConfig(icache_policy="sdbp", sdbp=SDBPConfig(num_tables=4)),
        None, False, "4 prediction tables", id="sdbp-tables",
    ),
    pytest.param(
        FrontEndConfig(**GHRP), _shared_standalone_btb, False,
        "shares its predictor", id="ghrp-standalone-shared",
    ),
    pytest.param(
        FrontEndConfig(**GHRP), _foreign_coupled_btb, False,
        "not coupled to this front end", id="ghrp-foreign-coupling",
    ),
]


class TestFastPathGate:
    """Every configuration the batch loop does not replay falls back at
    build time, says why, and produces the reference engine's results."""

    @pytest.mark.parametrize(("config", "policies", "traced", "cause"), GATE_CASES)
    def test_gated_config_falls_back(
        self, config, policies, traced, cause, monkeypatch
    ):
        if policies is not None:
            monkeypatch.setattr(frontend_engine, "build_policies", policies)
        workload = make_workload(
            "gate", Category.SHORT_SERVER, seed=2018, trace_scale=0.05
        )
        records = list(workload.records())
        options = RunOptions(warmup_instructions=2000)
        runs = {}
        for engine in ("reference", "fast"):
            obs = Observability(tracer=EventTracer(io.StringIO())) if traced else NULL_OBS
            frontend = build_frontend(config, obs=obs, engine=engine)
            assert type(frontend) is FrontEnd
            runs[engine] = (frontend.run(records, options), deep_state(frontend))
        (ref_result, ref_state), (fast_result, fast_state) = (
            runs["reference"], runs["fast"]
        )
        reason = fast_result.fast_path_fallback_reason
        assert reason is not None and cause in reason, reason
        assert ref_result.fast_path_fallback_reason is None
        assert asdict(fast_result) == asdict(
            replace(ref_result, fast_path_fallback_reason=reason)
        )
        assert fast_state == ref_state


    def test_only_the_stock_perceptron_is_kernelized(self):
        # build_frontend never builds another predictor; constructing the
        # fast engine around one directly is refused, not run half-fast.
        parts = build_frontend(FrontEndConfig(), engine="reference")
        with pytest.raises(ValueError, match="BimodalPredictor"):
            FastFrontEnd(
                icache=parts.icache, btb=parts.btb,
                direction=BimodalPredictor(), ras=parts.ras, ghrp=parts.ghrp,
            )


class TestMetricsOnlyObservability:
    """``Observability()`` without a tracer keeps the batch loop and
    counts exactly what the reference engine counts."""

    @pytest.mark.parametrize("policy", ["lru", "sdbp", "ghrp"])
    def test_obs_on_runs_only_batch_windows(self, policy, monkeypatch):
        windows = {"all": 0, "batch": 0}
        run_window = FastFrontEnd._run_window
        run_window_batch = FastFrontEnd._run_window_batch

        def counting_window(self, records, rs):
            windows["all"] += 1
            return run_window(self, records, rs)

        def counting_batch(self, tokens, rs):
            windows["batch"] += 1
            return run_window_batch(self, tokens, rs)

        monkeypatch.setattr(FastFrontEnd, "_run_window", counting_window)
        monkeypatch.setattr(FastFrontEnd, "_run_window_batch", counting_batch)
        workload = make_workload(
            "obs", Category.SHORT_SERVER, seed=2018, trace_scale=0.05
        )
        records = list(workload.records())
        config = FrontEndConfig(icache_policy=policy, btb_policy=policy)
        options = RunOptions(warmup_instructions=2000)
        snapshots = {}
        for engine in ("reference", "fast"):
            obs = Observability()
            frontend = build_frontend(config, obs=obs, engine=engine)
            result = frontend.run(records, options)
            assert result.fast_path_fallback_reason is None
            snapshots[engine] = obs.metrics.snapshot()
        assert windows["batch"] == windows["all"] > 0
        reference, fast = snapshots["reference"], snapshots["fast"]
        assert reference["counters"]["icache.hits"] > 0
        assert fast["counters"] == reference["counters"]
        assert fast["gauges"] == reference["gauges"]


class TestFastPathFallback:
    def test_unkernelized_policy_falls_back(self):
        frontend = build_frontend(
            FrontEndConfig(icache_policy="random"), engine="fast"
        )
        assert type(frontend) is FrontEnd


class TestFullSpaceTable:
    def test_matches_scalar_hash_everywhere(self):
        table = full_space_table(num_tables=3, index_bits=8, signature_bits=10)
        assert len(table) == 1 << 10
        for signature in range(1 << 10):
            assert table[signature] == skewed_indices(signature, 3, 8)

    def test_cache_miss_path_matches_precomputed(self):
        """The reference bank's on-demand memo agrees with the kernels' table."""
        from repro.core.tables import PredictionTableBank

        precomputed = full_space_table(num_tables=3, index_bits=12, signature_bits=8)
        on_demand = PredictionTableBank(num_tables=3, index_bits=12, counter_bits=2)
        for signature in range(1 << 8):
            assert on_demand.indices(signature) == precomputed[signature]

    def test_pickles_as_the_process_memo(self):
        import pickle

        table = full_space_table(num_tables=3, index_bits=12, signature_bits=16)
        body = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(body) < 200
        assert pickle.loads(body) is table
