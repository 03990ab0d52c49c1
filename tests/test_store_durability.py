"""Durability of the durable result store: the content-addressed cell cache.

Covers the hardening the sweep scheduler leans on: corrupt-entry
quarantine that never loses evidence (not even on a second quarantine
of the same entry), checksummed entries, crash-mid-write atomicity,
fsync of both the data and the directory entry, and schema-evolution
tolerance when rehydrating records (:func:`rehydrate_cell`).
"""

import json
import logging
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cellcache import (
    CellCache,
    atomic_write_json,
    read_checked_json,
    rehydrate_cell,
)
from repro.experiments.content import cell_digest
from repro.experiments.runner import CellResult
from repro.experiments.scheduler import SweepScheduler
from repro.frontend.config import FrontEndConfig
from repro.sentinel.digest import canonical_fingerprint
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload

DIGEST = "ab" * 32


@pytest.fixture()
def workload():
    return make_workload(
        "w", Category.SHORT_MOBILE, seed=1, trace_scale=0.02, footprint_scale=0.3
    )


@pytest.fixture()
def config():
    return FrontEndConfig(
        icache_bytes=8 * 1024, icache_assoc=4, btb_entries=256,
        warmup_cap_instructions=1000,
    )


def sample_cell(**overrides) -> CellResult:
    fields = dict(
        policy="lru", workload="w", icache_mpki=9.5, btb_mpki=6.0,
        icache_misses=193, btb_misses=128, instructions=22165, branches=2060,
        direction_accuracy=0.85, dead_evictions=3, bypasses=1,
        elapsed_seconds=0.07, setup_seconds=0.01, simulate_seconds=0.06,
    )
    fields.update(overrides)
    return CellResult(**fields)


def stored_cache(root, cell=None) -> CellCache:
    cache = CellCache(root)
    cache.put(DIGEST, cell or sample_cell())
    return cache


def entry_path(cache: CellCache, digest: str = DIGEST):
    return cache.cells_dir / digest[:2] / f"{digest}.json"


class TestCorruptionHandling:
    def test_corrupt_file_is_backed_up_not_lost(self, tmp_path):
        cache = stored_cache(tmp_path)
        path = entry_path(cache)
        path.write_text("not json at all", encoding="utf-8")
        assert cache.get(DIGEST) is None
        backup = path.with_name(path.name + ".corrupt")
        assert backup.read_text(encoding="utf-8") == "not json at all"
        assert not path.exists()  # the miss is permanent

    def test_recover_mode_quarantines_and_starts_empty(
        self, tmp_path, workload, config, caplog
    ):
        # The scheduler always recovers: a corrupt entry is moved aside
        # with a logged warning and the cell is simulated afresh.
        scheduler = SweepScheduler(tmp_path, config)
        scheduler.run([workload], ["lru"])
        digest = cell_digest(workload, "lru", config)
        path = entry_path(scheduler.cache, digest)
        path.write_text("{broken", encoding="utf-8")
        rerun = SweepScheduler(tmp_path, config)
        with caplog.at_level(logging.WARNING,
                             logger="repro.experiments.cellcache"):
            grid = rerun.run([workload], ["lru"])
        assert "quarantined" in caplog.text
        assert (rerun.stats.cache_hits, rerun.stats.computed) == (0, 1)
        assert grid.complete
        assert path.with_name(path.name + ".corrupt").read_text() == "{broken"
        assert rerun.cache.get(digest) == grid.cells[0]

    def test_repeated_quarantine_never_overwrites_earlier_backups(self, tmp_path):
        cache = CellCache(tmp_path)
        path = entry_path(cache)
        for i in range(3):
            cache.put(DIGEST, sample_cell())
            path.write_text(f"broken #{i}", encoding="utf-8")
            assert cache.get(DIGEST) is None
        assert path.with_name(path.name + ".corrupt").read_text() == "broken #0"
        assert path.with_name(path.name + ".corrupt.1").read_text() == "broken #1"
        assert path.with_name(path.name + ".corrupt.2").read_text() == "broken #2"

    def test_checksum_mismatch_detected(self, tmp_path, caplog):
        cache = stored_cache(tmp_path)
        path = entry_path(cache)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["payload"]["cell"]["icache_mpki"] = 0.0
        path.write_text(json.dumps(document), encoding="utf-8")
        with caplog.at_level(logging.WARNING,
                             logger="repro.experiments.cellcache"):
            assert cache.get(DIGEST) is None
        assert "checksum mismatch" in caplog.text
        assert path.with_name(path.name + ".corrupt").exists()

    def test_non_object_top_level_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert read_checked_json(path) is None
        assert (tmp_path / "doc.json.corrupt").read_text() == "[1, 2, 3]"


class TestAtomicSave:
    def test_crash_mid_save_leaves_previous_store_intact(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"generation": 1})
        before = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("disk full")  # the bytes never reached storage

        monkeypatch.setattr("repro.experiments.cellcache.os.fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_json(path, {"generation": 2})
        # The real document never saw the unsynced replacement, and the
        # scratch file was cleaned up.
        assert path.read_bytes() == before
        assert read_checked_json(path) == {"generation": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

        # The next write goes through.
        monkeypatch.undo()
        atomic_write_json(path, {"generation": 2})
        assert read_checked_json(path) == {"generation": 2}

        # A put interrupted the same way leaves no entry: a miss, and a
        # later put of the same digest succeeds.
        cache = CellCache(tmp_path / "cache")
        monkeypatch.setattr("repro.experiments.cellcache.os.fsync", failing_fsync)
        with pytest.raises(OSError):
            cache.put(DIGEST, sample_cell())
        monkeypatch.undo()
        assert cache.get(DIGEST) is None
        assert cache.put(DIGEST, sample_cell()) is True
        assert cache.get(DIGEST) == sample_cell()

    def test_save_replaces_atomically_leaving_no_scratch_file(self, tmp_path):
        cache = stored_cache(tmp_path)
        path = entry_path(cache)
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["checksum"] == canonical_fingerprint(document["payload"])

    def test_save_fsyncs_data_and_directory(self, tmp_path, monkeypatch):
        """A put must push both the data and the rename to stable
        storage: fsync the tmp file before the replace (so the bytes
        exist), then the containing directory (so the entry does)."""
        synced_files = []
        synced_dirs = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                synced_dirs.append(fd)
            else:
                synced_files.append(fd)
            real_fsync(fd)

        monkeypatch.setattr("repro.experiments.cellcache.os.fsync",
                            recording_fsync)
        stored_cache(tmp_path)
        assert synced_files, "put() never fsynced the data file"
        # Directory fsync is best-effort, but on this platform (the one
        # CI runs on) it must happen.
        assert synced_dirs, "put() never fsynced the containing directory"

    def test_put_refuses_malformed_cells(self, tmp_path):
        cache = CellCache(tmp_path)
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.put(DIGEST, sample_cell(icache_mpki=float("nan")))
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.put(DIGEST, {"not": "a cell"})
        assert len(cache) == 0


class TestSchemaEvolution:
    def rewrite_record(self, cache, mutate):
        path = entry_path(cache)
        payload = read_checked_json(path)
        mutate(payload["cell"])
        atomic_write_json(path, payload)  # re-checksummed, as a writer would

    def test_unknown_keys_from_newer_versions_are_ignored(self, tmp_path):
        cache = stored_cache(tmp_path)
        self.rewrite_record(cache, lambda r: r.update(future_field=42))
        assert cache.get(DIGEST) == sample_cell()

    def test_missing_optional_fields_take_defaults(self, tmp_path):
        cache = stored_cache(tmp_path)
        self.rewrite_record(
            cache, lambda r: (r.pop("setup_seconds"), r.pop("simulate_seconds"))
        )
        cell = cache.get(DIGEST)
        assert cell is not None
        assert cell.setup_seconds == 0.0 and cell.simulate_seconds == 0.0

    def test_missing_required_field_is_a_cache_miss_not_an_error(self, tmp_path):
        cache = stored_cache(tmp_path)
        self.rewrite_record(cache, lambda r: r.pop("icache_mpki"))
        assert cache.get(DIGEST) is None
        assert rehydrate_cell({"policy": "lru"}) is None

    def test_malformed_record_value_is_a_cache_miss(self, tmp_path):
        cache = stored_cache(tmp_path)
        self.rewrite_record(cache, lambda r: r.update(instructions="many"))
        assert cache.get(DIGEST) is None
        assert rehydrate_cell(["not", "a", "record"]) is None


class TestRoundTripProperties:
    @given(
        mpki=st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False),
        misses=st.integers(0, 10**9),
        accuracy=st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        shuffle_seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_put_get_round_trips_across_field_reordering(
        self, tmp_path_factory, mpki, misses, accuracy, shuffle_seed
    ):
        """Records survive arbitrary on-disk key order (dict reordering
        across json dumps, field reordering across versions)."""
        cell = sample_cell(
            icache_mpki=mpki, icache_misses=misses, direction_accuracy=accuracy
        )
        cache = stored_cache(tmp_path_factory.mktemp("cache"), cell)
        path = entry_path(cache)

        document = json.loads(path.read_text(encoding="utf-8"))
        items = list(document["payload"]["cell"].items())
        shuffle_seed.shuffle(items)
        document["payload"]["cell"] = dict(items)
        path.write_text(json.dumps(document), encoding="utf-8")

        assert cache.get(DIGEST) == cell
