"""Self-tests of the benchmark: its gate must be able to fail, and
untraced runs must execute the program's own, unwrapped functions.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gate  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def golden() -> dict:
    document = json.loads((BENCH_DIR / "golden" / "seed-2018.json").read_text())
    assert document["params"] == scenarios.params()
    return document["grid"]


def _altered(golden: dict, key: str) -> dict:
    altered = copy.deepcopy(golden)
    altered[key]["icache_misses"] += 1
    return altered


def test_gate_flags_one_altered_miss_count(golden):
    key = "ghrp/long-server-00"
    assert gate.compare(golden, golden) == []
    problems = gate.compare(golden, _altered(golden, key))
    assert problems == [
        f"{key}: icache_misses = {golden[key]['icache_misses']}, "
        f"golden {golden[key]['icache_misses'] + 1}"
    ]
    assert gate.gate_can_fail(golden)
    assert not gate.gate_can_fail({})


def test_gate_ignores_how_a_cell_was_computed(golden):
    key = "srrip/short-mobile-00"
    cell = dict(golden[key], policy="srrip", workload="short-mobile-00",
                fast_path_fallback_reason=None, degraded=True,
                elapsed_seconds=9.9, setup_seconds=1.0, simulate_seconds=8.9)
    assert gate.compare({key: gate.stats_of_cell(cell)}, golden) == []


def test_sweep_with_one_altered_cell_is_marked_failed(golden, tmp_path):
    doc = scenarios.run_sweep(
        scenarios.DEFAULT_SEED, time.monotonic(), str(tmp_path),
        _altered(golden, "lru/short-server-00"), traced=False)
    assert doc["attempted"] == 5 * len(scenarios.grid_descriptors(scenarios.DEFAULT_SEED))
    assert doc["failed"] == 1
    assert doc["problems"][0].startswith("lru/short-server-00: icache_misses")


def test_untraced_run_refuses_to_time_wrapped_functions(golden, tmp_path):
    installed = tracing.Installed(tracing.Tracer())
    try:
        assert len(tracing.wrapped_points()) == len(tracing.WRAP_POINTS)
        with pytest.raises(RuntimeError, match="wrapped entry points"):
            scenarios.run_sweep(scenarios.DEFAULT_SEED, time.monotonic(),
                                str(tmp_path), golden, traced=False)
    finally:
        installed.remove()


def test_removing_wrappers_restores_the_original_functions():
    originals = [
        getattr(*tracing._resolve(module, path))
        for module, path, _name in tracing.WRAP_POINTS
    ]
    installed = tracing.Installed(tracing.Tracer())
    installed.remove()
    restored = [
        getattr(*tracing._resolve(module, path))
        for module, path, _name in tracing.WRAP_POINTS
    ]
    assert all(a is b for a, b in zip(originals, restored, strict=True))
    assert tracing.wrapped_points() == []


def test_traced_sweep_accounts_for_its_wall_time(golden, tmp_path):
    doc = scenarios.run_sweep(scenarios.DEFAULT_SEED, time.monotonic(),
                              str(tmp_path), golden, traced=True)
    assert doc["failed"] == 0
    layers = doc["layers"]
    accounting = layers["accounting"]
    assert accounting["sum_s"] == pytest.approx(accounting["wall_s"], rel=1e-9)
    assert accounting["wall_s"] == pytest.approx(doc["walls_s"][0], rel=1e-9)
    assert 0.0 <= layers["trace.unattributed_s"] < 0.05 * layers["trace.wall_s"]
    assert layers["workloads.walks_per_workload"] == 6
    # random and srrip run on the reference engine, on every workload
    workloads = len(scenarios.grid_descriptors(scenarios.DEFAULT_SEED))
    assert layers["engine.fallback_cells"] == 2 * workloads
    assert tracing.wrapped_points() == []


def test_job_payloads_are_new_jobs_over_cached_cells():
    from repro.frontend.config import FrontEndConfig
    from repro.service.jobs import JobSpec

    descriptors = scenarios.service_descriptors()
    payloads = scenarios.job_payloads(scenarios.DEFAULT_SEED, descriptors)
    ids = set()
    for _ in range(500):
        spec = JobSpec.from_payload(next(payloads))
        ids.add(spec.fingerprint())
        assert spec.build_config() == FrontEndConfig()
        assert 1 <= len(spec.workloads) * len(spec.policies) <= 2
    assert len(ids) == 500


def test_benchmark_json_lists_every_metric_produced(golden):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    layers = scenarios.layer_metrics(tracing.Tracer(), 1, 1.0, golden, {})
    produced = {name for name, value in layers.items()
                if isinstance(value, float)}
    assert produced == {metric["name"] for metric in spec["per_layer"]}
