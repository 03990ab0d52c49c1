"""The crash-safe sharded sweep scheduler and its durability primitives.

Covers the content-addressed stack bottom-up: digest identity
(`content`), the deduplicating cell cache and snapshot store
(`cellcache`), the write-ahead journal and lease manager (`journal`),
and the scheduler itself (`scheduler`) — idempotent re-runs, dedupe,
sharding, warm-up memoization, retry budgets that survive restarts, and
the headline robustness property: a ``SIGKILL`` mid-sweep, followed by a
plain re-run of the same command, yields a bit-identical grid with zero
completed cells recomputed (asserted through the journal, which records
every ``computed`` transition exactly once per digest).
"""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import textwrap

import pytest

from repro.api import SimulationSession, SweepOptions
from repro.experiments.cellcache import CellCache, SnapshotStore
from repro.experiments.content import (
    SNAPSHOT_FORMAT,
    cell_digest,
    grid_signature,
    shard_of,
    warmup_digest,
)
from repro.experiments.faults import ALWAYS, FaultPlan, FaultSpec
from repro.experiments.figures import PAPER_POLICIES
from repro.experiments.journal import CellJournal, LeaseManager
from repro.experiments.runner import run_cell, run_grid
from repro.experiments.scheduler import (
    SchedulerConfig,
    SweepScheduler,
    parse_shard,
)
from repro.experiments.snapshots import run_cell_snapshotted
from repro.experiments.supervisor import RetryPolicy, SupervisorConfig
from repro.frontend.config import FrontEndConfig
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload

START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

FAST_RETRY = RetryPolicy(
    max_retries=2, backoff_base_seconds=0.001, jitter_fraction=0.0
)

# Small enough that one cell simulates in well under a second; large
# enough that the warm-up boundary (capped at 1000 instructions) falls
# strictly inside the trace, so snapshot tests exercise a real resume.
WORKLOAD_KWARGS = dict(trace_scale=0.02, footprint_scale=0.3)
CONFIG_KWARGS = dict(
    icache_bytes=8 * 1024, icache_assoc=4, btb_entries=256,
    warmup_cap_instructions=1000,
)


@pytest.fixture(scope="module")
def workloads():
    return [
        make_workload("w0", Category.SHORT_MOBILE, seed=1, **WORKLOAD_KWARGS),
        make_workload("w1", Category.SHORT_SERVER, seed=2, **WORKLOAD_KWARGS),
    ]


@pytest.fixture(scope="module")
def config():
    return FrontEndConfig(**CONFIG_KWARGS)


@pytest.fixture(scope="module")
def baseline(workloads, config):
    """The uninterrupted serial grid every scheduler run must reproduce."""
    return run_grid(workloads, ["lru", "ghrp"], config)


def scheduler_for(tmp_path, config, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("sleep", lambda seconds: None)
    return SweepScheduler(tmp_path / "cache", config, **kwargs)


# ---------------------------------------------------------------------------
# Content digests
# ---------------------------------------------------------------------------
class TestContentDigests:
    def test_digest_is_stable_and_hex(self, workloads, config):
        first = cell_digest(workloads[0], "lru", config)
        assert first == cell_digest(workloads[0], "lru", config)
        assert len(first) == 64
        int(first, 16)  # valid hex

    def test_digest_covers_policy_workload_and_config(self, workloads, config):
        base = cell_digest(workloads[0], "lru", config)
        assert cell_digest(workloads[0], "ghrp", config) != base
        assert cell_digest(workloads[1], "lru", config) != base
        assert cell_digest(
            workloads[0], "lru", config.with_overrides(icache_bytes=16 * 1024)
        ) != base
        reseeded = make_workload(
            "w0", Category.SHORT_MOBILE, seed=99, **WORKLOAD_KWARGS
        )
        assert cell_digest(reseeded, "lru", config) != base

    def test_warmup_digest_is_engine_specific(self, workloads, config):
        # Cell results are interchangeable across engines (bit-identical
        # by contract, so cell_digest takes no engine) — but a snapshot
        # is pickled engine-*internal* state and must never be resumed
        # by the other engine.
        assert warmup_digest(
            workloads[0], "ghrp", config, 1000, engine="reference"
        ) != warmup_digest(workloads[0], "ghrp", config, 1000, engine="fast")

    def test_warmup_digest_ignores_measurement_length(self, workloads, config):
        longer = config.with_overrides(max_instructions=40_000)
        assert cell_digest(workloads[0], "lru", config) != cell_digest(
            workloads[0], "lru", longer
        )
        assert warmup_digest(
            workloads[0], "lru", config, 1000, engine="reference"
        ) == warmup_digest(workloads[0], "lru", longer, 1000, engine="reference")

    @staticmethod
    def format_1_digests(workload, config):
        """``(cell, warm-up)`` digests as computed before the snapshot
        format joined the warm-up payload (spelled out independently)."""
        import repro
        from repro.experiments.content import config_payload, workload_payload
        from repro.sentinel.digest import canonical_fingerprint

        cell_config = config.with_overrides(icache_policy="ghrp", btb_policy="ghrp")
        common = {"schema": 1, "workload": workload_payload(workload),
                  "policy": "ghrp", "version": repro.__version__}
        cell = canonical_fingerprint(
            {**common, "kind": "cell", "config": config_payload(config)}
        )
        fields = config_payload(cell_config)
        fields.pop("max_instructions")
        warmup = canonical_fingerprint(
            {**common, "kind": "warmup", "config": fields,
             "warmup_instructions": 1000, "engine": "fast"}
        )
        return cell, warmup

    def test_snapshot_format_moves_warmup_digest_but_not_cell_digest(
        self, workloads, config
    ):
        old_cell, old_warmup = self.format_1_digests(workloads[0], config)
        assert SNAPSHOT_FORMAT >= 2
        # Cached cells (scheduler and service alike) keep hitting ...
        assert cell_digest(workloads[0], "ghrp", config) == old_cell
        # ... while warm-up snapshots of the old pickle layout are not found.
        cell_config = config.with_overrides(icache_policy="ghrp", btb_policy="ghrp")
        assert warmup_digest(
            workloads[0], "ghrp", cell_config, 1000, engine="fast"
        ) != old_warmup

    def test_shard_of_partitions_completely(self):
        digests = [f"{value:064x}" for value in range(100)]
        owners = [shard_of(digest, 4) for digest in digests]
        assert set(owners) <= {0, 1, 2, 3}
        assert all(
            sum(shard_of(d, 4) == k for k in range(4)) == 1 for d in digests
        )

    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "-1/4", "0", "a/b", "1/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)


# ---------------------------------------------------------------------------
# Cell cache
# ---------------------------------------------------------------------------
class TestCellCache:
    def test_put_get_round_trip(self, tmp_path, workloads, config):
        cache = CellCache(tmp_path / "cache")
        cell = run_cell(workloads[0], "lru", config)
        digest = cell_digest(workloads[0], "lru", config)
        assert cache.get(digest) is None
        assert cache.put(digest, cell) is True
        assert cache.get(digest) == cell
        assert cache.digests() == [digest]
        assert len(cache) == 1

    def test_put_is_idempotent(self, tmp_path, workloads, config):
        cache = CellCache(tmp_path / "cache")
        cell = run_cell(workloads[0], "lru", config)
        digest = cell_digest(workloads[0], "lru", config)
        assert cache.put(digest, cell) is True
        assert cache.put(digest, cell) is False  # second writer drops out
        assert len(cache) == 1

    def test_put_refuses_garbage(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.put("ab" * 32, {"not": "a cell"})

    def test_corrupt_entry_is_quarantined_miss(self, tmp_path, workloads, config):
        cache = CellCache(tmp_path / "cache")
        cell = run_cell(workloads[0], "lru", config)
        digest = cell_digest(workloads[0], "lru", config)
        cache.put(digest, cell)
        path = cache._cell_path(digest)
        path.write_text(path.read_text()[:40], encoding="utf-8")  # torn write
        assert cache.get(digest) is None
        assert path.with_name(path.name + ".corrupt").exists()
        assert not path.exists()  # the miss is permanent, evidence kept


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------
class TestJournal:
    def test_replay_recovers_attempts_and_computed(self, tmp_path):
        journal = CellJournal(tmp_path / "journal.jsonl")
        journal.append("claimed", "d1", owner="o")
        journal.append("attempt_failed", "d1", attempt=0, kind="error")
        journal.append("attempt_failed", "d1", attempt=1, kind="error")
        journal.append("computed", "d1", attempt=2)
        journal.append("claimed", "d2", owner="o")
        journal.append("attempt_failed", "d2", attempt=0, kind="garbage")
        journal.append("failed", "d2", attempts=1, kind="garbage")
        journal.close()

        state = CellJournal(tmp_path / "journal.jsonl").replay()
        assert state.attempts == {"d1": 2, "d2": 1}
        assert state.computed == {"d1"}
        assert state.failed == {"d2"}
        assert state.events == 7

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CellJournal(path)
        journal.append("computed", "d1")
        journal.append("computed", "d2")
        journal.close()
        intact = path.read_text(encoding="utf-8")
        # A kill -9 mid-append can only tear the final line.
        path.write_text(intact + intact.splitlines()[0][:25], encoding="utf-8")
        state = CellJournal(path).replay()
        assert state.computed == {"d1", "d2"}

    def test_tampered_line_fails_checksum(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CellJournal(path)
        journal.append("computed", "d1")
        journal.close()
        path.write_text(
            path.read_text(encoding="utf-8").replace('"d1"', '"d9"'),
            encoding="utf-8",
        )
        assert CellJournal(path).replay().computed == set()


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------
class TestLeases:
    def test_claim_conflict_and_release(self, tmp_path):
        first = LeaseManager(tmp_path, owner="a", expiry_seconds=60)
        second = LeaseManager(tmp_path, owner="b", expiry_seconds=60)
        assert first.claim("d1") is not None
        assert second.claim("d1") is None
        assert second.conflicts == 1
        first.release("d1")
        assert second.claim("d1") is not None

    def test_reclaim_by_same_owner_is_reentrant(self, tmp_path):
        manager = LeaseManager(tmp_path, owner="a", expiry_seconds=60)
        assert manager.claim("d1") is not None
        assert manager.claim("d1") is not None  # restart with the same owner

    def test_expired_lease_is_broken(self, tmp_path):
        clock_now = [0.0]
        stale = LeaseManager(
            tmp_path, owner="a", expiry_seconds=10, clock=lambda: clock_now[0]
        )
        stale.claim("d1")
        # Forge a foreign pid so the same-host dead-pid fast path cannot
        # mask the expiry logic under test (our own pid is always alive).
        path = stale._path("d1")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["host"] = "elsewhere"
        path.write_text(json.dumps(payload), encoding="utf-8")

        clock_now[0] = 5.0
        live = LeaseManager(
            tmp_path, owner="b", expiry_seconds=10, clock=lambda: clock_now[0]
        )
        assert live.claim("d1") is None  # not yet expired
        clock_now[0] = 20.0
        assert live.claim("d1") is not None
        assert live.recovered == 1

    def test_dead_pid_lease_is_broken_before_expiry(self, tmp_path):
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(probe.stdout)
        manager = LeaseManager(tmp_path, owner="b", expiry_seconds=3600)
        path = manager._path("d1")
        path.write_text(json.dumps({
            "digest": "d1", "owner": "a", "acquired_at": manager.clock(),
            "heartbeat_at": manager.clock(),
            "expires_at": manager.clock() + 3600,
            "host": socket.gethostname(), "pid": dead_pid,
        }), encoding="utf-8")
        assert manager.claim("d1") is not None
        assert manager.recovered == 1

    def test_heartbeat_extends_expiry(self, tmp_path):
        clock_now = [0.0]
        manager = LeaseManager(
            tmp_path, owner="a", expiry_seconds=10, clock=lambda: clock_now[0]
        )
        lease = manager.claim("d1")
        assert lease.expires_at == 10.0
        clock_now[0] = 8.0
        manager.heartbeat()
        assert manager.held["d1"].expires_at == 18.0
        on_disk = json.loads(manager._path("d1").read_text(encoding="utf-8"))
        assert on_disk["expires_at"] == 18.0


# ---------------------------------------------------------------------------
# Snapshots (bit-identity of the memoized warm-up path)
# ---------------------------------------------------------------------------
class TestSnapshots:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_write_then_hit_both_match_plain_run(
        self, tmp_path, workloads, config, engine
    ):
        snapshots = SnapshotStore(tmp_path / "snapshots")
        plain = run_cell(workloads[0], "ghrp", config, engine=engine)
        first, note_first = run_cell_snapshotted(
            workloads[0], "ghrp", config, snapshots, engine=engine
        )
        second, note_second = run_cell_snapshotted(
            workloads[0], "ghrp", config, snapshots, engine=engine
        )
        assert note_first == "snapshot-write"
        assert note_second == "snapshot-hit"
        assert grid_signature_of(first) == grid_signature_of(plain)
        assert grid_signature_of(second) == grid_signature_of(plain)
        assert snapshots.writes == 1 and snapshots.hits == 1

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_every_paper_policy_resumes_bit_identically(
        self, tmp_path, workloads, config, policy, engine
    ):
        snapshots = SnapshotStore(tmp_path / "snapshots")
        plain = run_cell(workloads[1], policy, config, engine=engine)
        _, note_first = run_cell_snapshotted(
            workloads[1], policy, config, snapshots, engine=engine
        )
        resumed, note_second = run_cell_snapshotted(
            workloads[1], policy, config, snapshots, engine=engine
        )
        assert (note_first, note_second) == ("snapshot-write", "snapshot-hit")
        assert grid_signature_of(resumed) == grid_signature_of(plain)

    def test_old_format_snapshot_reads_as_a_miss(self, tmp_path, workloads, config):
        """A snapshot filed under its pre-format-2 digest is never loaded."""
        snapshots = SnapshotStore(tmp_path / "snapshots")
        _, old_warmup = TestContentDigests.format_1_digests(workloads[0], config)
        # Anything filed under the old key would be unpickled as the engine.
        snapshots.save(old_warmup, ("not", "an engine"))
        plain = run_cell(workloads[0], "ghrp", config, engine="fast")
        cell, note = run_cell_snapshotted(
            workloads[0], "ghrp", config, snapshots, engine="fast"
        )
        assert note == "snapshot-write"
        assert snapshots.hits == 0
        assert grid_signature_of(cell) == grid_signature_of(plain)

    def test_fast_ghrp_snapshot_carries_no_derivable_tables(self, tmp_path):
        """The full-signature index tables pickle as their keys."""
        workload = make_workload(
            "long-server-00", Category.LONG_SERVER, seed=2018,
            trace_scale=0.015, jitter=False,
        )
        snapshots = SnapshotStore(tmp_path / "snapshots")
        _, note = run_cell_snapshotted(
            workload, "ghrp", FrontEndConfig(), snapshots, engine="fast"
        )
        assert note == "snapshot-write"
        (path,) = (tmp_path / "snapshots").rglob("*.pkl")
        assert path.stat().st_size < 500_000

    def test_corrupt_snapshot_falls_back_to_full_run(
        self, tmp_path, workloads, config
    ):
        snapshots = SnapshotStore(tmp_path / "snapshots")
        _, note = run_cell_snapshotted(workloads[0], "lru", config, snapshots)
        assert note == "snapshot-write"
        digest = warmup_digest(
            workloads[0], "lru",
            config.with_overrides(icache_policy="lru", btb_policy="lru"),
            1000, engine="reference",
        )
        path = snapshots._path(digest)
        path.write_bytes(path.read_bytes()[:64])  # truncate the pickle
        plain = run_cell(workloads[0], "lru", config)
        cell, note = run_cell_snapshotted(workloads[0], "lru", config, snapshots)
        assert note == "snapshot-write"  # quarantined, re-warmed, re-saved
        assert grid_signature_of(cell) == grid_signature_of(plain)


def grid_signature_of(cell):
    """One cell's signature via the grid helper (timings stripped)."""
    from repro.experiments.runner import GridResult

    grid = GridResult()
    grid.add(cell)
    return grid_signature(grid)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------
class TestScheduler:
    def test_cold_run_matches_serial_grid(
        self, tmp_path, workloads, config, baseline
    ):
        scheduler = scheduler_for(tmp_path, config)
        grid = scheduler.run(workloads, ["lru", "ghrp"])
        assert grid_signature(grid) == grid_signature(baseline)
        assert scheduler.stats.computed == 4
        assert scheduler.stats.cache_hits == 0

    def test_identical_rerun_is_pure_cache_read(
        self, tmp_path, workloads, config, baseline
    ):
        scheduler_for(tmp_path, config).run(workloads, ["lru", "ghrp"])
        warm = scheduler_for(tmp_path, config)
        grid = warm.run(workloads, ["lru", "ghrp"])
        assert grid_signature(grid) == grid_signature(baseline)
        assert warm.stats.computed == 0
        assert warm.stats.cache_hits == 4
        assert warm.stats.hit_rate == 1.0

    def test_duplicate_slots_collapse_before_dispatch(
        self, tmp_path, workloads, config
    ):
        scheduler = scheduler_for(tmp_path, config)
        grid = scheduler.run([workloads[0], workloads[0]], ["lru"])
        assert scheduler.stats.planned == 2
        assert scheduler.stats.deduped == 1
        assert scheduler.stats.computed == 1
        assert len(grid.cells) == 1

    def test_sharded_runs_partition_and_assemble(
        self, tmp_path, workloads, config, baseline
    ):
        computed = 0
        for index in range(2):
            shard = scheduler_for(
                tmp_path, config,
                scheduler=SchedulerConfig(shard=(index, 2)),
            )
            shard.run(workloads, ["lru", "ghrp"])
            assert shard.stats.other_shard + shard.stats.computed == 4
            computed += shard.stats.computed
        assert computed == 4  # every cell computed exactly once overall
        assembler = scheduler_for(tmp_path, config)
        grid = assembler.run(workloads, ["lru", "ghrp"])
        assert assembler.stats.computed == 0
        assert grid_signature(grid) == grid_signature(baseline)

    def test_warm_prefix_sweep_replays_only_measurement_windows(
        self, tmp_path, workloads, config
    ):
        scheduler_for(tmp_path, config).run(workloads, ["lru", "ghrp"])
        longer = config.with_overrides(max_instructions=40_000)
        followup = scheduler_for(tmp_path, longer)
        grid = followup.run(workloads, ["lru", "ghrp"])
        # Different measurement length => different cell digests (all
        # misses), but identical warm-up prefixes => every warm-up is
        # resumed from a snapshot rather than re-simulated.
        assert followup.stats.cache_hits == 0
        assert followup.stats.computed == 4
        assert followup.stats.snapshot_hits == 4
        assert grid_signature(grid) == grid_signature(
            run_grid(workloads, ["lru", "ghrp"], longer)
        )

    def test_supervised_run_matches_serial_grid(
        self, tmp_path, workloads, config, baseline
    ):
        scheduler = scheduler_for(
            tmp_path, config,
            supervisor=SupervisorConfig(
                workers=2, retry=FAST_RETRY, start_method=START_METHOD
            ),
        )
        grid = scheduler.run(workloads, ["lru", "ghrp"])
        assert grid_signature(grid) == grid_signature(baseline)
        assert scheduler.stats.computed == 4

    def test_transient_fault_retries_then_succeeds(
        self, tmp_path, workloads, config, baseline
    ):
        plan = FaultPlan()
        plan.add("lru", "w0", FaultSpec("raise", 1))
        scheduler = scheduler_for(tmp_path, config, fault_plan=plan)
        grid = scheduler.run(workloads, ["lru", "ghrp"])
        assert grid_signature(grid) == grid_signature(baseline)
        assert scheduler.stats.failed == 0
        events = CellJournal.read(scheduler.cache.journal_path)
        assert sum(e["event"] == "attempt_failed" for e in events) == 1

    def test_retry_budget_survives_restarts(self, tmp_path, workloads, config):
        plan = FaultPlan()
        plan.add("lru", "w0", FaultSpec("raise", ALWAYS))

        first = scheduler_for(tmp_path, config, fault_plan=plan)
        grid = first.run([workloads[0]], ["lru"])
        assert first.stats.failed == 1
        assert len(grid.failed) == 1
        assert grid.failed[0].attempts == FAST_RETRY.max_retries + 1

        # A restarted scheduler inherits the exhausted budget from the
        # journal: one fresh terminal attempt, not a full retry cycle.
        second = scheduler_for(tmp_path, config, fault_plan=plan)
        regrid = second.run([workloads[0]], ["lru"])
        assert len(regrid.failed) == 1
        events = CellJournal.read(second.cache.journal_path)
        attempts = [e for e in events if e["event"] == "attempt_failed"]
        assert len(attempts) == (FAST_RETRY.max_retries + 1) + 1

    def test_live_lease_skips_cell(self, tmp_path, workloads, config):
        scheduler = scheduler_for(tmp_path, config)
        foreign = LeaseManager(
            scheduler.cache.leases_dir, owner="someone-else",
            expiry_seconds=3600,
        )
        digest = cell_digest(workloads[0], "lru", scheduler.config)
        # Forge a foreign live holder (our own pid would be reclaimed by
        # the dead-pid fast path if it exited; a foreign host never is).
        assert foreign.claim(digest) is not None
        path = foreign._path(digest)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["host"] = "elsewhere"
        path.write_text(json.dumps(payload), encoding="utf-8")

        grid = scheduler.run([workloads[0]], ["lru", "ghrp"])
        assert scheduler.stats.lease_conflicts == 1
        assert scheduler.stats.computed == 1  # only the unleased cell
        assert [cell.policy for cell in grid.cells] == ["ghrp"]

    def test_orphaned_lease_is_recovered(self, tmp_path, workloads, config):
        scheduler = scheduler_for(tmp_path, config)
        digest = cell_digest(workloads[0], "lru", scheduler.config)
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        (scheduler.cache.leases_dir / f"{digest}.lease").write_text(
            json.dumps({
                "digest": digest, "owner": "crashed", "acquired_at": 0.0,
                "heartbeat_at": 0.0, "expires_at": 10.0 ** 12,
                "host": socket.gethostname(), "pid": int(probe.stdout),
            }), encoding="utf-8",
        )
        grid = scheduler.run([workloads[0]], ["lru"])
        assert scheduler.stats.leases_recovered == 1
        assert scheduler.stats.computed == 1
        assert len(grid.cells) == 1


# ---------------------------------------------------------------------------
# Facade integration
# ---------------------------------------------------------------------------
class TestSweepOptionsIntegration:
    def test_shard_requires_cache(self):
        with pytest.raises(ValueError, match="requires cache"):
            SweepOptions(policies=("lru",), shard=(0, 2))

    def test_shard_string_is_parsed(self, tmp_path):
        options = SweepOptions(
            policies=("lru",), cache=str(tmp_path / "c"), shard="1/4"
        )
        assert options.shard == (1, 4)
        with pytest.raises(ValueError):
            SweepOptions(policies=("lru",), cache=str(tmp_path / "c"),
                         shard="4/4")

    def test_session_sweep_uses_the_cache(self, tmp_path, workloads, config):
        session = SimulationSession(config=config)
        options = SweepOptions(
            policies=("lru", "ghrp"), cache=str(tmp_path / "cache")
        )
        cold = session.sweep(workloads, options)
        cache = CellCache(tmp_path / "cache")
        assert len(cache) == 4
        warm = session.sweep(workloads, options)
        assert grid_signature(warm) == grid_signature(cold)
        # The warm pass journaled pure cache hits, no new computes.
        events = CellJournal.read(cache.journal_path)
        assert sum(e["event"] == "computed" for e in events) == 4
        assert sum(e["event"] == "cache_hit" for e in events) == 4


# ---------------------------------------------------------------------------
# Crash-resume: SIGKILL mid-sweep, restart, bit-identical grid
# ---------------------------------------------------------------------------
_CHILD_SCRIPT = textwrap.dedent("""
    import os, signal, sys
    from repro.experiments.scheduler import SweepScheduler
    from repro.frontend.config import FrontEndConfig
    from repro.workloads.spec import Category
    from repro.workloads.suite import make_workload

    cache_dir, kill_after = sys.argv[1], int(sys.argv[2])
    workloads = [
        make_workload("w0", Category.SHORT_MOBILE, seed=1,
                      trace_scale=0.02, footprint_scale=0.3),
        make_workload("w1", Category.SHORT_SERVER, seed=2,
                      trace_scale=0.02, footprint_scale=0.3),
    ]
    config = FrontEndConfig(
        icache_bytes=8 * 1024, icache_assoc=4, btb_entries=256,
        warmup_cap_instructions=1000,
    )
    done = 0

    def progress(cell):
        global done
        done += 1
        if done >= kill_after:
            # The real thing: no atexit, no finally blocks, no flushes.
            os.kill(os.getpid(), signal.SIGKILL)

    SweepScheduler(cache_dir, config).run(
        workloads, ("lru", "ghrp"), progress=progress
    )
""")


class TestCrashResume:
    def test_sigkill_then_resume_is_bit_identical_with_zero_recomputes(
        self, tmp_path, workloads, config, baseline
    ):
        cache_dir = tmp_path / "cache"
        kill_after = 2
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(cache_dir),
             str(kill_after)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr

        cache = CellCache(cache_dir)
        survived = cache.digests()
        assert len(survived) == kill_after  # durably cached before the kill

        resumed = scheduler_for(tmp_path, config)
        grid = resumed.run(workloads, ["lru", "ghrp"])
        assert grid_signature(grid) == grid_signature(baseline)
        assert resumed.stats.cache_hits == kill_after
        assert resumed.stats.computed == 4 - kill_after
        assert resumed.stats.failed == 0

        # Zero recomputes, proven from the write-ahead journal: every
        # digest transitions to "computed" exactly once across both the
        # killed process and the resume.
        events = CellJournal.read(cache.journal_path)
        computed = [e["digest"] for e in events if e["event"] == "computed"]
        assert len(computed) == 4
        assert len(set(computed)) == 4
        assert set(survived) <= set(computed)
