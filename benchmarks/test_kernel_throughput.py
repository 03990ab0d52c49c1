"""Throughput of the batched fast-path engine vs the reference engine.

Not a paper figure — engineering telemetry for the library itself.  Runs
each kernelized policy through both engines on the same benchmark
workload, checks the results are bit-identical (the differential suite
in ``tests/test_kernel_differential.py`` is the thorough version; this is
a tripwire), and records accesses/second plus the speedup ratio in
``BENCH_PERF.json`` at the repository root so future PRs have a perf
trajectory to beat.

Deliberately free of pytest-benchmark: one simulation is seconds, not
microseconds, so best-of-N wall timing with ``time.perf_counter`` is
both sufficient and dependency-free (``make bench-smoke`` runs this file
with the quick profile).
"""

import json
import os
import time
from dataclasses import asdict

import pytest

from benchmarks.conftest import PROFILE
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import FrontEnd, build_frontend
from repro.frontend.options import RunOptions
from repro.kernel.engine import FastFrontEnd
from repro.telemetry.bench import BENCH_HISTORY_NAME, append_bench_history
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PERF_PATH = os.path.join(_REPO_ROOT, "BENCH_PERF.json")
BENCH_HISTORY_PATH = os.path.join(_REPO_ROOT, BENCH_HISTORY_NAME)

# The benchmark workload: one SHORT_SERVER trace at half scale (standard)
# — large enough that per-access overheads dominate, small enough for CI.
_TRACE_SCALE = {"quick": 0.1, "standard": 0.5}[PROFILE]
_POLICIES = ("lru", "sdbp", "ghrp")
_ROUNDS = 3  # best-of-N: absorbs one-off scheduler noise

# The floor asserted here is intentionally far below the recorded
# numbers (3-4x for GHRP): CI machines are noisy, and the artifact —
# not the assertion — is the trajectory.
_MIN_SPEEDUP = 1.5


def _time_engine(engine, config, records, options):
    best = None
    accesses = None
    result = None
    for _ in range(_ROUNDS):
        frontend = build_frontend(config, engine=engine)
        expected = FastFrontEnd if engine == "fast" else FrontEnd
        assert type(frontend) is expected
        start = time.perf_counter()
        result = frontend.run(records, options)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
        accesses = result.icache_total.accesses + result.btb_total.accesses
    return result, accesses, best


def _tokenize(records):
    """Pre-tokenize the benchmark trace, timing the one-off pass.

    The steady-state fast-path number is measured with tokens in hand:
    tokenization is a one-off pass per trace, reported separately in the
    artifact (a ``TraceTokens`` stands in for the record iterable, so the
    same object feeds every round and policy).
    """
    from repro.kernel.tokenizer import tokenize_trace

    start = time.perf_counter()
    tokens = tokenize_trace(records)
    return tokens, time.perf_counter() - start


def _cache_microbench() -> dict:
    """Cold-then-warm scheduler sweep; returns cache stats for the ledger.

    Deliberately tiny (one workload, two policies): the point is the
    warm-run ``hit_rate`` trajectory in BENCH_HISTORY.jsonl, not wall
    time.  The warm run must serve every cell from the cache — a hit
    rate below 1.0 means content digests went unstable between two runs
    of the same process, which the assertion turns into a bench failure.
    """
    import tempfile

    from repro.experiments.scheduler import SweepScheduler

    workload = make_workload(
        "bench-cache", Category.SHORT_SERVER, seed=2018, trace_scale=0.05
    )
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache_dir:
        cold = SweepScheduler(cache_dir, FrontEndConfig(), engine="fast")
        start = time.perf_counter()
        cold.run(workload, ("lru", "ghrp"))
        cold_seconds = time.perf_counter() - start

        warm = SweepScheduler(cache_dir, FrontEndConfig(), engine="fast")
        start = time.perf_counter()
        warm.run(workload, ("lru", "ghrp"))
        warm_seconds = time.perf_counter() - start

    assert warm.stats.hit_rate == 1.0, warm.stats.as_dict()
    assert warm.stats.computed == 0, warm.stats.as_dict()
    stats = {
        "hit_rate": warm.stats.hit_rate,
        "cold_computed": cold.stats.computed,
        "cold_snapshot_writes": cold.stats.snapshot_writes,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
    }
    print(
        f"[kernel-throughput] cache microbench: cold {cold_seconds:.3f}s "
        f"({cold.stats.computed} computed), warm {warm_seconds:.3f}s "
        f"(hit rate {100.0 * warm.stats.hit_rate:.0f}%)"
    )
    return stats


def test_kernel_throughput():
    workload = make_workload(
        "bench-kernel", Category.SHORT_SERVER, seed=2018, trace_scale=_TRACE_SCALE
    )
    records = list(workload.records())
    tokens, tokenize_seconds = _tokenize(records)
    options = RunOptions.from_config_warmup(
        FrontEndConfig(), workload.instruction_count()
    )

    report = {
        "profile": PROFILE,
        "workload": {
            "category": Category.SHORT_SERVER.value,
            "seed": 2018,
            "trace_scale": _TRACE_SCALE,
            "records": len(records),
        },
        "tokenize_seconds": round(tokenize_seconds, 4),
        "policies": {},
    }
    speedups = {}
    for policy in _POLICIES:
        config = FrontEndConfig(icache_policy=policy)
        ref_result, accesses, ref_seconds = _time_engine(
            "reference", config, records, options
        )
        fast_result, fast_accesses, fast_seconds = _time_engine(
            "fast", config, tokens, options
        )
        assert asdict(ref_result) == asdict(fast_result), policy
        assert fast_accesses == accesses
        speedup = ref_seconds / fast_seconds
        speedups[policy] = speedup
        report["policies"][policy] = {
            "accesses": accesses,
            "reference_seconds": round(ref_seconds, 4),
            "fast_seconds": round(fast_seconds, 4),
            "reference_accesses_per_sec": round(accesses / ref_seconds),
            "fast_accesses_per_sec": round(accesses / fast_seconds),
            "speedup": round(speedup, 2),
        }
        print(
            f"[kernel-throughput] {policy:5s} reference {ref_seconds:.3f}s  "
            f"fast {fast_seconds:.3f}s  speedup {speedup:.2f}x  "
            f"({accesses / fast_seconds:,.0f} accesses/s)"
        )

    report["cache"] = _cache_microbench()

    with open(BENCH_PERF_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[kernel-throughput] wrote {BENCH_PERF_PATH}")
    append_bench_history(BENCH_HISTORY_PATH, report, source=f"bench-{PROFILE}")
    print(f"[kernel-throughput] appended to {BENCH_HISTORY_PATH}")

    for policy, speedup in speedups.items():
        assert speedup >= _MIN_SPEEDUP, (
            f"{policy}: fast engine only {speedup:.2f}x over reference "
            f"(floor {_MIN_SPEEDUP}x)"
        )


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
