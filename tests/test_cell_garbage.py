"""A finished cell leaves nothing for the cyclic garbage collector.

Every object a cell builds (caches, policies, predictor tables, kernels,
the SDBP sampler) must be freed by reference counting the moment the
cell returns.  A reference cycle among them keeps thousands of objects
alive until a full collection, whose cost grows with everything else a
sweep holds.  These tests run each paper policy on both engines, plain
and through the warm-up snapshot path, and with interval telemetry on,
and assert that a collection afterwards finds no unreachable object at
all.
"""

import gc
from collections import Counter

import pytest

from repro.experiments.cellcache import SnapshotStore
from repro.experiments.runner import run_cell
from repro.experiments.snapshots import run_cell_snapshotted
from repro.frontend.config import FrontEndConfig
from repro.obs import Observability
from repro.policies.registry import PAPER_POLICIES
from repro.telemetry.interval import TelemetryConfig
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


@pytest.fixture(scope="module")
def workload():
    built = make_workload(
        "short-server-00", Category.SHORT_SERVER, seed=2018,
        trace_scale=0.01, jitter=False,
    )
    built.instruction_count()  # memoize the records outside the checks
    return built


def unreachable_after(run) -> Counter:
    """Types of the objects a full collection finds after ``run()``."""
    gc.collect()
    gc.garbage.clear()
    run()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("policy", PAPER_POLICIES)
class TestCellStateIsFreedByRefcounting:
    def test_run_cell(self, workload, policy, engine):
        def run():
            run_cell(workload, policy, FrontEndConfig(), engine=engine)

        assert unreachable_after(run) == Counter()

    def test_run_cell_with_telemetry(self, workload, policy, engine):
        # The recorder holds the structures it samples, never the front
        # end, so a telemetry-on run builds no front-end cycle either.
        obs = Observability()

        def run():
            run_cell(
                workload, policy, FrontEndConfig(), obs=obs, engine=engine,
                telemetry=TelemetryConfig(interval_branches=512),
            )

        assert unreachable_after(run) == Counter()
        (series,) = obs.telemetry.values()
        assert len(series["samples"]) >= 2

    def test_run_cell_snapshotted(self, tmp_path, workload, policy, engine):
        snapshots = SnapshotStore(tmp_path / "snapshots")

        def run():
            for expected in ("snapshot-write", "snapshot-hit"):
                _, note = run_cell_snapshotted(
                    workload, policy, FrontEndConfig(), snapshots, engine=engine
                )
                assert note == expected

        assert unreachable_after(run) == Counter()
