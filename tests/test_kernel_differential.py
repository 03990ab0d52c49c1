"""Differential suite: the batched fast path is bit-identical.

``engine="fast"`` is only allowed to be faster — every statistic in the
:class:`SimulationResult` and every piece of modeled state (tags, policy
metadata, prediction-table counters, path histories, perceptron weights)
must match the reference engine exactly after the run.  These tests run
both engines on the same records and compare results *and* deep internal
state, across every kernelized policy and several workload archetypes.

Also pinned here: :func:`repro.util.hashing.full_space_table` (the
kernels' precomputed index lookup) agrees with the scalar
:func:`repro.util.hashing.skewed_indices` everywhere.
"""

from dataclasses import asdict

import pytest

from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import FrontEnd, build_frontend
from repro.frontend.options import RunOptions
from repro.kernel.engine import FastFrontEnd
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

    def test_wrong_path_with_history_recovery(self):
        # Wrong-path fetches train the predictor off-path and the GHRP
        # history must be recovered afterwards — the subtlest kernel path.
        assert_identical(
            FrontEndConfig(icache_policy="ghrp", wrong_path_depth=4),
            trace_scale=0.08,
        )

    def test_standalone_ghrp_btb(self):
        assert_identical(FrontEndConfig(icache_policy="lru", btb_policy="ghrp"))

    def test_mixed_policies_with_wrong_path(self):
        assert_identical(
            FrontEndConfig(
                icache_policy="ghrp", btb_policy="lru", wrong_path_depth=3
            )
        )


class TestFastPathFallback:
    def test_unkernelized_policy_falls_back(self):
        frontend = build_frontend(
            FrontEndConfig(icache_policy="random"), engine="fast"
        )
        assert type(frontend) is FrontEnd

    def test_prefetcher_falls_back(self):
        frontend = build_frontend(
            FrontEndConfig(icache_policy="lru", prefetcher="next-line"),
            engine="fast",
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
