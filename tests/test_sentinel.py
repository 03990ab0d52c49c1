"""The sentinel layer: divergence detection, failover, repro bundles.

The acceptance path pinned here is the ISSUE's: a seeded GHRP
flipped-prediction-bit fault is caught by ``--verify sampled``, the run
finishes on the reference engine with ``degraded=True`` and final stats
bit-identical to a pure reference run, and the emitted bundle replays to
the same ``DivergenceError``.  Clean verified runs must stay
bit-identical to ``verify="off"`` (which itself is differentially tested
against the reference engine).

The injected fault fires late in the first verification window (window 0
is always a barrier) so the corrupted prediction bit survives until the
barrier compare: GHRP rewrites ``_pred_dead`` on every touch of a way,
so a flip injected too early is absorbed — which is also why
``verify="off"`` runs it silently (see TestSilentCorruption).
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import FrontEnd, build_frontend
from repro.frontend.options import RunOptions, WorkloadRef
from repro.obs import Observability
from repro.sentinel import (
    DivergenceError,
    InjectedKernelError,
    KernelFault,
    diff_digest,
    digest_fingerprint,
    frontend_digest,
    load_manifest,
    replay_bundle,
)
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload

WARMUP = 2_000


@pytest.fixture(scope="module")
def config():
    return FrontEndConfig(icache_policy="ghrp", btb_policy="ghrp")


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        "sentinel", Category.SHORT_SERVER, seed=2018, trace_scale=0.05
    )


@pytest.fixture(scope="module")
def records(workload):
    return list(workload.records())


@pytest.fixture(scope="module")
def ref_result(config, records):
    frontend = build_frontend(config, engine="reference")
    return frontend.run(iter(records), RunOptions(warmup_instructions=WARMUP))


@pytest.fixture(scope="module")
def fault_access(config, records):
    """A fault access index whose flipped bit survives to the barrier.

    GHRP rewrites ``_pred_dead`` on every touch of a way, so a flip is
    only observable at the window-0 barrier if the corrupted way is not
    touched again first.  The workload is seeded, so this probe is
    deterministic — but probing (rather than a hard-coded index) keeps
    the suite robust to changes in workload synthesis.
    """
    for candidate in range(3_000, 1_000, -100):
        frontend = build_frontend(config, engine="fast")
        try:
            frontend.run(
                iter(records),
                RunOptions(
                    warmup_instructions=WARMUP,
                    verify="sampled",
                    failover=False,
                    repro_bundle_dir=None,
                    inject_kernel_fault=KernelFault(
                        structure="icache",
                        access_index=candidate,
                        kind="flip-pred-bit",
                    ),
                ),
            )
        except DivergenceError:
            return candidate
    pytest.fail("no probed flip-pred-bit index survives to the barrier")


def run_options(workload, config, **overrides):
    base = dict(
        warmup_instructions=WARMUP,
        verify="sampled",
        workload_ref=WorkloadRef.from_workload(workload),
        config_ref=config,
    )
    base.update(overrides)
    return RunOptions(**base)


def flip_fault(access_index, kind="flip-pred-bit"):
    return KernelFault(
        structure="icache", access_index=access_index, kind=kind
    )


# ----------------------------------------------------------------------
# Options and fault validation
# ----------------------------------------------------------------------
class TestOptionValidation:
    def test_bad_verify_mode_rejected(self):
        with pytest.raises(ValueError, match="verify"):
            RunOptions(verify="sometimes")

    @pytest.mark.parametrize("field", ["verify_window", "verify_interval"])
    def test_nonpositive_window_knobs_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            RunOptions(**{field: 0})

    def test_bad_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            KernelFault(kind="melt")

    def test_bad_fault_structure_rejected(self):
        with pytest.raises(ValueError, match="structure"):
            KernelFault(structure="dcache")

    def test_fault_dict_round_trip(self):
        fault = flip_fault(2_000)
        assert KernelFault.from_dict(fault.to_dict()) == fault


# ----------------------------------------------------------------------
# State digests
# ----------------------------------------------------------------------
class TestKernelDigests:
    @pytest.mark.parametrize("policy", ["ghrp", "sdbp", "lru"])
    def test_every_kernel_exports_state(self, policy, records):
        config = FrontEndConfig(icache_policy=policy, btb_policy="lru")
        frontend = build_frontend(config, engine="fast")
        for kernel in (frontend._icache_kernel, frontend._btb_kernel):
            digest = kernel.state_digest()
            assert digest["kernel"] == type(kernel).__name__

    def test_fingerprint_tracks_simulated_state(self, config, records):
        frontend = build_frontend(config, engine="fast")
        frontend._reload_kernels()
        before = digest_fingerprint(frontend._icache_kernel.state_digest())
        assert before == digest_fingerprint(
            frontend._icache_kernel.state_digest()
        )
        frontend.run(iter(records[:500]), RunOptions())
        after = digest_fingerprint(frontend._icache_kernel.state_digest())
        assert after != before

    def test_frontend_digests_match_across_engines(self, config, records):
        opts = RunOptions(warmup_instructions=WARMUP)
        ref = build_frontend(config, engine="reference")
        ref.run(iter(records), opts)
        fast = build_frontend(config, engine="fast")
        fast.run(iter(records), opts)
        assert frontend_digest(ref) == frontend_digest(fast)

    def test_diff_digest_names_the_divergent_field(self):
        expected = {"icache": {"tags": [[1, 2], [3, 4]], "now": 7}}
        actual = {"icache": {"tags": [[1, 2], [3, 9]], "now": 7}}
        (line,) = diff_digest(expected, actual)
        assert "icache.tags[1][1]" in line
        assert "expected 4" in line and "got 9" in line

    def test_diff_digest_respects_the_limit(self):
        expected = {"xs": list(range(100))}
        actual = {"xs": [x + 1 for x in range(100)]}
        assert len(diff_digest(expected, actual, limit=5)) == 5


# ----------------------------------------------------------------------
# Clean verified runs stay bit-identical
# ----------------------------------------------------------------------
class TestCleanVerifiedRuns:
    @pytest.mark.parametrize("verify", ["sampled", "full"])
    def test_verified_run_matches_reference(
        self, verify, config, workload, records, ref_result
    ):
        frontend = build_frontend(config, engine="fast")
        result = frontend.run(
            iter(records), run_options(workload, config, verify=verify)
        )
        assert asdict(result) == asdict(ref_result)
        assert result.degraded is False

    def test_barriers_are_counted(self, config, workload, records):
        obs = Observability()
        frontend = build_frontend(config, obs=obs, engine="fast")
        frontend.run(iter(records), run_options(workload, config, verify="full"))
        assert obs.metrics.counter("sentinel.windows_verified") >= 3
        assert obs.metrics.counter("sentinel.divergences") == 0

    def test_reference_engine_ignores_verify(self, config, records, ref_result):
        frontend = build_frontend(config, engine="reference")
        result = frontend.run(
            iter(records),
            RunOptions(warmup_instructions=WARMUP, verify="sampled"),
        )
        assert asdict(result) == asdict(ref_result)


# ----------------------------------------------------------------------
# verify="off" runs injected corruption silently — the failure mode the
# sentinel exists to close
# ----------------------------------------------------------------------
class TestSilentCorruption:
    def test_fault_fires_but_nothing_notices(self, config, records, fault_access):
        frontend = build_frontend(config, engine="fast")
        result = frontend.run(
            iter(records),
            RunOptions(
                warmup_instructions=WARMUP,
                inject_kernel_fault=flip_fault(fault_access),
            ),
        )
        assert result.degraded is False
        assert frontend._fault_arm.fired
        assert frontend._fault_arm.count >= fault_access


# ----------------------------------------------------------------------
# Divergence: detection, failover, bundle, replay (the acceptance path)
# ----------------------------------------------------------------------
class TestDivergence:
    @pytest.fixture(scope="class")
    def bundle_dir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("repro-bundles"))

    @pytest.fixture(scope="class")
    def divergence(self, config, workload, records, bundle_dir, fault_access):
        """One detected divergence with failover disabled."""
        frontend = build_frontend(config, engine="fast")
        with pytest.raises(DivergenceError) as excinfo:
            frontend.run(
                iter(records),
                run_options(
                    workload, config,
                    inject_kernel_fault=flip_fault(fault_access),
                    failover=False,
                    repro_bundle_dir=bundle_dir,
                ),
            )
        return excinfo.value

    def test_error_localizes_the_first_divergent_access(self, divergence):
        assert divergence.access_index is not None
        assert 0 < divergence.access_index <= divergence.window[1]
        assert divergence.window == (0, 2000)
        assert divergence.field_diff
        assert any("_pred_dead" in line for line in divergence.field_diff)
        assert divergence.expected_fingerprint != divergence.actual_fingerprint
        assert str(divergence.access_index) in str(divergence)

    def test_bundle_is_written_and_loads(self, divergence, workload):
        manifest = load_manifest(divergence.bundle_path)
        assert manifest["kind"] == "divergence"
        assert manifest["error"]["type"] == "DivergenceError"
        assert manifest["error"]["access_index"] == divergence.access_index
        assert manifest["workload"]["name"] == workload.name
        assert manifest["engines"]["primary"] == "fast"
        assert manifest["engines"]["shadow"] == "reference"

    def test_bundle_replays_to_the_same_divergence(self, divergence):
        report = replay_bundle(divergence.bundle_path)
        assert report.reproduced
        assert report.kind == "divergence"
        assert report.access_index == divergence.access_index

    def test_cli_replay_reproduces(self, divergence, capsys):
        from repro.cli import main

        assert main(["replay", divergence.bundle_path]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_failover_finishes_on_the_reference_path(
        self, config, workload, records, ref_result, bundle_dir, fault_access
    ):
        obs = Observability()
        frontend = build_frontend(config, obs=obs, engine="fast")
        result = frontend.run(
            iter(records),
            run_options(
                workload, config,
                inject_kernel_fault=flip_fault(fault_access),
                repro_bundle_dir=bundle_dir,
            ),
        )
        assert result.degraded is True
        # Bit-identical to a pure reference run, modulo the degraded flag.
        assert asdict(result) == asdict(replace(ref_result, degraded=True))
        assert obs.metrics.counter("sentinel.divergences") == 1
        assert obs.metrics.counter("sentinel.failovers") == 1
        # Post-run structure reads (grid cell collection) see the engine
        # that actually finished the run.
        assert frontend.icache.stats.misses == ref_result.icache_total.misses


# ----------------------------------------------------------------------
# Kernel crashes take the same failover path
# ----------------------------------------------------------------------
class TestCrashFailover:
    def test_crash_fails_over_and_matches_reference(
        self, config, workload, records, ref_result, tmp_path
    ):
        obs = Observability()
        frontend = build_frontend(config, obs=obs, engine="fast")
        result = frontend.run(
            iter(records),
            run_options(
                workload, config,
                inject_kernel_fault=flip_fault(2_000, kind="raise"),
                repro_bundle_dir=str(tmp_path),
            ),
        )
        assert result.degraded is True
        assert asdict(result) == asdict(replace(ref_result, degraded=True))
        assert obs.metrics.counter("sentinel.failovers") == 1

    def test_crash_bundle_replays(self, config, workload, records, tmp_path):
        frontend = build_frontend(config, engine="fast")
        with pytest.raises(InjectedKernelError) as excinfo:
            frontend.run(
                iter(records),
                run_options(
                    workload, config,
                    inject_kernel_fault=flip_fault(2_000, kind="raise"),
                    failover=False,
                    repro_bundle_dir=str(tmp_path),
                ),
            )
        bundle = excinfo.value.bundle_path
        manifest = load_manifest(bundle)
        assert manifest["kind"] == "kernel-crash"
        assert manifest["error"]["type"] == "InjectedKernelError"
        report = replay_bundle(bundle)
        assert report.reproduced
        assert report.kind == "kernel-crash"

    def test_bundle_dir_none_skips_capture(
        self, config, workload, records, fault_access
    ):
        frontend = build_frontend(config, engine="fast")
        with pytest.raises(DivergenceError) as excinfo:
            frontend.run(
                iter(records),
                run_options(
                    workload, config,
                    inject_kernel_fault=flip_fault(fault_access),
                    failover=False,
                    repro_bundle_dir=None,
                ),
            )
        assert excinfo.value.bundle_path is None


# ----------------------------------------------------------------------
# Metrics survive a failover
# ----------------------------------------------------------------------
class TestObsCountersAcrossFailover:
    @pytest.mark.parametrize("policy", ["lru", "ghrp"])
    @pytest.mark.parametrize("fault_at", [None, 5_000], ids=["clean", "failover"])
    def test_structure_counters_equal_final_stats(
        self, policy, fault_at, workload, tmp_path
    ):
        # The takeover engine replays the window since the last barrier:
        # its structures must keep counting, and the replayed window must
        # not be counted twice.
        config = FrontEndConfig(icache_policy=policy, btb_policy=policy)
        fault = (
            None if fault_at is None else flip_fault(fault_at, kind="raise")
        )
        obs = Observability()
        frontend = build_frontend(config, obs=obs, engine="fast")
        result = frontend.run(
            workload.records(),
            run_options(
                workload, config, inject_kernel_fault=fault,
                repro_bundle_dir=str(tmp_path),
            ),
        )
        assert result.degraded is (fault is not None)
        counter = obs.metrics.counter
        for scope, stats in (
            ("icache", result.icache_total),
            ("btb", result.btb_total),
        ):
            for name in ("hits", "misses", "bypasses", "evictions", "dead_evictions"):
                assert counter(f"{scope}.{name}") == getattr(stats, name), (
                    f"{scope}.{name}"
                )
        assert counter("btb.target_mispredictions") == result.target_mispredictions


# ----------------------------------------------------------------------
# Surfacing through the grid runner and CLI
# ----------------------------------------------------------------------
class TestSurfacing:
    def test_run_cell_records_degradation(self, config, workload, tmp_path):
        from repro.experiments.runner import run_cell

        cell = run_cell(workload, "ghrp", config, engine="fast", verify="sampled")
        assert cell.degraded is False
        assert cell.fast_path_fallback_reason is None

    def test_fallback_reason_reaches_the_result(self, records):
        # MRU has no registered kernel, so engine="fast" falls back.
        config = FrontEndConfig(icache_policy="mru", btb_policy="lru")
        frontend = build_frontend(config, engine="fast")
        assert isinstance(frontend, FrontEnd)
        result = frontend.run(iter(records[:500]), RunOptions())
        assert result.fast_path_fallback_reason is not None
        assert "mru" in result.fast_path_fallback_reason

    def test_failed_cell_summary_names_the_bundle(self):
        from repro.experiments.runner import FailedCell

        failure = FailedCell(
            policy="ghrp", workload="w", kind="error",
            error_type="DivergenceError", message="diverged", attempts=1,
            elapsed_seconds=1.0, bundle_path="artifacts/repro-bundles/x",
        )
        assert "artifacts/repro-bundles/x" in failure.summary_line()

    def test_cli_simulate_with_verify(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "--engine", "fast", "--verify", "sampled",
            "--trace-scale", "0.02", "--seed", "7",
        ])
        assert code == 0
        assert "mpki" in capsys.readouterr().out

    def test_cli_simulate_surfaces_fallback(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "--engine", "fast", "--policy", "mru",
            "--trace-scale", "0.02", "--seed", "7",
        ])
        assert code == 0
        assert "fast path unavailable" in capsys.readouterr().out

    def test_cli_replay_rejects_missing_bundle(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["replay", str(tmp_path / "nope")]) == 2
