"""Component microbenchmarks: throughput of the simulator's hot paths.

Not a paper figure — engineering telemetry for the library itself.  These
run as classic pytest-benchmark microbenchmarks (many rounds), unlike the
figure regenerations.
"""

import itertools

from repro.branch.perceptron import HashedPerceptronPredictor
from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.experiments.runner import run_cell
from repro.frontend.config import FrontEndConfig
from repro.policies.registry import make_policy
from repro.traces.reconstruct import FetchBlockStream
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


def test_cache_access_throughput_lru(benchmark):
    geometry = CacheGeometry.from_capacity(64 * 1024, 8, 64)
    cache = SetAssociativeCache(geometry, make_policy("lru"))
    addresses = itertools.cycle([(i * 2654435761) % (1 << 20) for i in range(4096)])

    benchmark(lambda: cache.access(next(addresses)))


def test_cache_access_throughput_ghrp(benchmark):
    geometry = CacheGeometry.from_capacity(64 * 1024, 8, 64)
    cache = SetAssociativeCache(geometry, make_policy("ghrp"))
    addresses = itertools.cycle([(i * 2654435761) % (1 << 20) for i in range(4096)])

    def step():
        address = next(addresses)
        cache.access(address, pc=address)

    benchmark(step)


def test_perceptron_predict_update(benchmark):
    predictor = HashedPerceptronPredictor()
    pcs = itertools.cycle(range(0x1000, 0x1400, 4))

    def step():
        pc = next(pcs)
        predictor.predict_and_update(pc, (pc >> 4) & 1 == 0)

    benchmark(step)


def test_reference_cell_srrip(benchmark):
    """One SRRIP cell end to end, records already walked.

    SRRIP and Random have no batch kernel, so their cells run the whole
    reference engine even when the fast engine is requested: perceptron,
    cache and BTB accesses, fetch reconstruction.  That is 16 of a
    paper-grid sweep's 40 cells.
    """
    workload = make_workload(
        "ref-cell", Category.SHORT_SERVER, seed=2018, trace_scale=0.015,
        jitter=False,
    )
    workload.instruction_count()  # walk once, outside the timed rounds
    config = FrontEndConfig()

    def cell():
        return run_cell(workload, "srrip", config, engine="fast")

    result = benchmark.pedantic(cell, rounds=5, iterations=1)
    assert result.fast_path_fallback_reason is not None


def test_workload_generation(benchmark):
    """Build + lay out a mobile-class program (the per-workload setup cost)."""
    counter = itertools.count()

    def build():
        return make_workload(
            "bench", Category.SHORT_MOBILE, seed=next(counter),
            trace_scale=0.05, footprint_scale=0.25,
        )

    benchmark.pedantic(build, rounds=5, iterations=1)


def test_trace_walk_and_reconstruct(benchmark):
    workload = make_workload("walk", Category.SHORT_MOBILE, seed=1, trace_scale=0.1)

    def walk():
        stream = FetchBlockStream(workload.records(2000))
        blocks = 0
        for chunk in stream:
            for _ in chunk.block_addresses(64):
                blocks += 1
        return blocks

    benchmark.pedantic(walk, rounds=5, iterations=1)
