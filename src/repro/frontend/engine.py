"""The front-end engine.

Reconstructs the fetch-block stream from a branch trace (Section IV-A) and
drives the I-cache, BTB, direction predictor, and return-address stack in
program order.  GHRP's speculative machinery is wired through:

- the GHRP policies advance the shared path history on every access they
  see (Algorithm 2);
- on a direction or target misprediction, the engine optionally simulates
  ``wrong_path_depth`` blocks of wrong-path fetch (flagging the GHRP
  policies so they do not train, per Section III-F), then restores the
  speculative history from the retired one (:meth:`GHRPPredictor.
  recover_history`).

The engine is policy-agnostic: non-predictive policies simply ignore the
wrong-path flag and see the same access stream.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.branch.base import BranchDirectionPredictor
from repro.branch.perceptron import HashedPerceptronPredictor
from repro.branch.ras import ReturnAddressStack
from repro.btb.btb import BranchTargetBuffer
from repro.cache.geometry import CacheGeometry
from repro.cache.policy_api import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.ghrp import GHRPPredictor
from repro.frontend.config import FrontEndConfig
from repro.frontend.options import RunOptions, resolve_run_options
from repro.frontend.results import SimulationResult
from repro.obs import NULL_OBS, Observability, get_logger
from repro.policies.ghrp_policy import GHRPBTBPolicy, GHRPPolicy
from repro.policies.registry import make_policy
from repro.traces.record import BranchRecord, BranchType
from repro.traces.reconstruct import FetchBlockStream

__all__ = ["FrontEnd", "build_frontend", "build_policies"]

ENGINES = ("reference", "fast")
"""Engine choices: the reference event-driven path and the batched kernel."""


@dataclass(slots=True)
class _RunState:
    """Mutable simulation-loop state, threaded through ``_run_window``.

    Pulling the loop state out of ``run``'s local variables lets a run be
    split into windows: the sentinel layer (:mod:`repro.sentinel`) runs
    the fast engine window-by-window, snapshots this state at barriers,
    and can seed a shadow or takeover reference engine mid-stream.
    ``next_start`` uses the :class:`~repro.traces.reconstruct.
    FetchBlockStream` convention (None = no previous branch).
    """

    warmup_boundary: int
    instruction_limit: int | None
    next_start: int | None = None
    instructions_seen: int = 0
    branches_seen: int = 0
    icache_warm: object | None = None
    btb_warm: object | None = None
    warmed_at: int = 0
    done: bool = False
    phase_span: object | None = None


class FrontEnd:
    """A complete front end: I-cache + BTB + direction predictor + RAS."""

    def __init__(
        self,
        icache: SetAssociativeCache,
        btb: BranchTargetBuffer,
        direction: BranchDirectionPredictor,
        ras: ReturnAddressStack,
        ghrp: GHRPPredictor | None = None,
        wrong_path_depth: int = 0,
        obs: Observability = NULL_OBS,
    ):
        self.icache = icache
        self.btb = btb
        self.direction = direction
        self.ras = ras
        self.ghrp = ghrp
        self.obs = obs
        # Interval-telemetry recorder; stays None unless RunOptions asks
        # for sampling, so the default hot loop carries no telemetry code.
        self.telemetry = None
        self.wrong_path_depth = wrong_path_depth
        self.wrong_path_accesses = 0
        self.degraded = False
        self.fast_path_fallback_reason: str | None = None
        self._ghrp_policies = [
            policy
            for policy in (icache.policy, btb.policy)
            if isinstance(policy, (GHRPPolicy, GHRPBTBPolicy))
        ]

    # ------------------------------------------------------------------
    # Wrong-path speculation
    # ------------------------------------------------------------------
    def _simulate_wrong_path(self, wrong_next_pc: int) -> None:
        """Fetch a few blocks down the not-taken (wrong) path.

        The paper: "the I-cache and BTB may be updated according to
        wrong-path cache accesses"; GHRP suppresses table training while
        the wrong-path flag is up, then recovers its speculative history.
        """
        obs = self.obs
        if obs.enabled:
            obs.inc("frontend.wrong_path_episodes")
            obs.event(
                "wrong_path_enter", pc=wrong_next_pc, depth=self.wrong_path_depth
            )
        for policy in self._ghrp_policies:
            if isinstance(policy, GHRPPolicy):
                policy.wrong_path = True
        block_size = self.icache.geometry.block_size
        block = self.icache.geometry.block_address(wrong_next_pc)
        for i in range(self.wrong_path_depth):
            address = block + i * block_size
            self.icache.access(address, pc=max(wrong_next_pc, address))
            self.wrong_path_accesses += 1
        for policy in self._ghrp_policies:
            if isinstance(policy, GHRPPolicy):
                policy.wrong_path = False
        if self.ghrp is not None:
            self.ghrp.recover_history()
        if obs.enabled:
            obs.event("wrong_path_exit", accesses=self.wrong_path_depth)
            if self.ghrp is not None:
                obs.inc("frontend.history_recoveries")
                obs.event("history_recovery", pc=wrong_next_pc)

    def _emit_table_saturation(self, phase: str) -> None:
        """Trace how saturated the GHRP prediction tables are right now.

        The training dynamics of Section III are invisible in MPKI alone;
        this exposes them at the warm-up boundary and at end of run.
        Only called with observability enabled.
        """
        if self.ghrp is None:
            return
        tables = self.ghrp.tables
        fraction = tables.saturation_fraction(self.ghrp.config.dead_threshold)
        self.obs.set_gauge("ghrp.table_saturation", fraction)
        self.obs.event(
            "table_saturation",
            phase=phase,
            fraction=fraction,
            predictions=tables.predictions,
            increments=tables.increments,
            decrements=tables.decrements,
        )

    def _observe_warmup(self, rs: _RunState) -> None:
        """Close the warm-up phase span and record the boundary.

        Shared by both engines; only called with observability enabled,
        right after the warm-up statistics snapshot.
        """
        obs = self.obs
        obs.finish_span(rs.phase_span)
        rs.phase_span = obs.start_span("measured")
        obs.set_gauge("sim.warmup_instructions", rs.warmed_at)
        obs.event(
            "warmup_complete",
            instructions=rs.warmed_at,
            icache_misses=rs.icache_warm.misses,
            btb_misses=rs.btb_warm.misses,
        )
        self._emit_table_saturation(phase="warmup")

    def _setup_telemetry(self, options: RunOptions) -> None:
        """Attach an :class:`~repro.telemetry.interval.IntervalRecorder`
        when the run options request sampling; otherwise leave the
        telemetry reference None so the hot loops skip the pipeline."""
        if options.telemetry is None:
            self.telemetry = None
            return
        from repro.telemetry.interval import IntervalRecorder

        self.telemetry = IntervalRecorder(
            options.telemetry,
            icache=self.icache,
            btb=self.btb,
            ghrp=self.ghrp,
            obs=self.obs,
            sync=self._before_stats_collect,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        records: Iterable[BranchRecord],
        options: RunOptions | None = None,
        *,
        warmup_instructions: int | None = None,
        max_instructions: int | None = None,
    ) -> SimulationResult:
        """Simulate ``records``; return post-warm-up and total statistics.

        ``options`` is the one supported way to parameterize a run; the
        ``warmup_instructions``/``max_instructions`` keywords remain as a
        convenience spelling for the two most common fields.
        """
        options = resolve_run_options(options, warmup_instructions, max_instructions)
        self._setup_telemetry(options)
        rs = _RunState(
            warmup_boundary=options.warmup_instructions,
            instruction_limit=options.max_instructions,
        )
        # The warm-up/measured boundary falls mid-loop, so the phase spans
        # use explicit start/finish rather than ``with`` blocks.
        rs.phase_span = self.obs.start_span("warm-up")
        self._run_window(records, rs)
        return self._finish_run(rs)

    def _run_window(self, records: Iterable[BranchRecord], rs: _RunState) -> None:
        """Simulate one window of records, continuing from ``rs``.

        A full run is one window over the whole stream; the sentinel
        layer calls this repeatedly with slices of the stream, carrying
        the fetch-reconstruction state across calls through ``rs``.
        """
        warmup_boundary = rs.warmup_boundary
        instruction_limit = rs.instruction_limit
        icache, btb, direction, ras = self.icache, self.btb, self.direction, self.ras
        obs = self.obs
        telemetry = self.telemetry
        block_size = icache.geometry.block_size
        simulate_wrong_path = self.wrong_path_depth > 0
        stream = FetchBlockStream(records)
        # A window continues the same logical stream, so the
        # reconstruction state carries over from the previous one.
        stream._next_start = rs.next_start
        stream.instructions_seen = rs.instructions_seen
        stream.branches_seen = rs.branches_seen

        for chunk in stream:
            start_pc = chunk.start_pc
            for block in chunk.block_addresses(block_size):
                icache.access(block, pc=max(start_pc, block))

            record = chunk.branch
            branch_type = record.branch_type
            mispredicted = False

            if branch_type is BranchType.CONDITIONAL:
                predicted = direction.predict_and_update(record.pc, record.taken)
                mispredicted = predicted != record.taken
            elif branch_type.is_call:
                ras.push(record.pc + 4)
            elif branch_type.is_return:
                mispredicted = not ras.pop_and_check(record.target)

            if record.taken and branch_type.uses_btb:
                btb_result = btb.access(record.pc, record.target)
                if btb_result.hit and not btb_result.target_correct:
                    mispredicted = True

            if mispredicted and simulate_wrong_path:
                wrong_next = record.pc + 4 if record.taken else record.target
                self._simulate_wrong_path(wrong_next)

            # Warm-up boundary: first crossing snapshots both structures.
            if rs.icache_warm is None and stream.instructions_seen >= warmup_boundary:
                icache.stats.instructions = stream.instructions_seen
                btb.stats.instructions = stream.instructions_seen
                rs.icache_warm = icache.stats.snapshot()
                rs.btb_warm = btb.stats.snapshot()
                rs.warmed_at = stream.instructions_seen
                if obs.enabled:
                    self._observe_warmup(rs)

            # Interval boundary: both engines test the same branch count,
            # so the sample series is engine-independent.
            if telemetry is not None and stream.branches_seen >= telemetry.next_boundary:
                telemetry.take_sample(
                    stream.instructions_seen, stream.branches_seen
                )

            if instruction_limit is not None and stream.instructions_seen >= instruction_limit:
                rs.done = True
                break

        rs.next_start = stream._next_start
        rs.instructions_seen = stream.instructions_seen
        rs.branches_seen = stream.branches_seen

    def _before_stats_collect(self) -> None:
        """Hook for the fast engine to flush kernel deltas."""

    def _finish_run(self, rs: _RunState) -> SimulationResult:
        """Close the phase spans, finalize the structures, build the result."""
        obs = self.obs
        icache, btb = self.icache, self.btb
        obs.finish_span(rs.phase_span)
        rs.phase_span = None
        stats_span = obs.start_span("stats-collect")
        self._before_stats_collect()
        if self.telemetry is not None:
            self.telemetry.finish(rs.instructions_seen, rs.branches_seen)
        icache.stats.instructions = rs.instructions_seen
        btb.stats.instructions = rs.instructions_seen
        if rs.icache_warm is None:
            # Trace ended inside warm-up; measure everything instead of
            # reporting an empty region.
            rs.icache_warm = type(icache.stats)()
            rs.btb_warm = type(btb.stats)()
            rs.warmed_at = 0
        icache.finalize()
        btb.finalize()
        if obs.enabled:
            obs.set_gauge("sim.instructions", rs.instructions_seen)
            obs.set_gauge("sim.branches", rs.branches_seen)
            self._emit_table_saturation(phase="end")
        obs.finish_span(stats_span)
        return self._collect_result(rs)

    def _collect_result(self, rs: _RunState) -> SimulationResult:
        icache, btb = self.icache, self.btb
        telemetry = None
        if self.telemetry is not None:
            telemetry = self.telemetry.export()
        return SimulationResult(
            instructions=rs.instructions_seen,
            branches=rs.branches_seen,
            warmup_instructions=rs.warmed_at,
            icache_total=icache.stats,
            icache_measured=icache.stats.since(rs.icache_warm),
            btb_total=btb.stats,
            btb_measured=btb.stats.since(rs.btb_warm),
            direction=self.direction.stats,
            target_mispredictions=btb.target_mispredictions,
            ras_underflows=self.ras.underflows,
            wrong_path_accesses=self.wrong_path_accesses,
            degraded=self.degraded,
            fast_path_fallback_reason=self.fast_path_fallback_reason,
            telemetry=telemetry,
        )


def build_policies(
    config: FrontEndConfig,
) -> tuple[ReplacementPolicy, ReplacementPolicy, GHRPPredictor | None]:
    """Construct the I-cache and BTB policies, wiring GHRP sharing.

    When both structures use GHRP, they share one predictor and the BTB
    policy is coupled to the I-cache policy's metadata (Section III-E).
    A GHRP BTB without a GHRP I-cache runs in standalone mode.

    This is the single source of truth for policy construction: the
    facade (:func:`repro.api.build_policies`), the examples, and
    :func:`build_frontend` all route through it.
    """
    icache_name = config.icache_policy
    btb_name = config.effective_btb_policy
    ghrp: GHRPPredictor | None = None
    if "ghrp" in (icache_name, btb_name):
        ghrp = GHRPPredictor(config.ghrp)

    def build(name: str, for_btb: bool, icache_policy: ReplacementPolicy | None):
        if name == "ghrp":
            assert ghrp is not None
            if for_btb:
                coupled = icache_policy if isinstance(icache_policy, GHRPPolicy) else None
                return GHRPBTBPolicy(predictor=ghrp, icache_policy=coupled)
            return GHRPPolicy(predictor=ghrp)
        if name == "sdbp":
            return make_policy(name, config=config.sdbp)
        if name == "random":
            # Distinct, deterministic streams per structure.
            return make_policy(name, seed=config.random_seed + (1 if for_btb else 0))
        return make_policy(name)

    icache_policy = build(icache_name, for_btb=False, icache_policy=None)
    btb_policy = build(btb_name, for_btb=True, icache_policy=icache_policy)
    return icache_policy, btb_policy, ghrp


def build_frontend(
    config: FrontEndConfig | None = None,
    obs: Observability = NULL_OBS,
    engine: str = "reference",
) -> FrontEnd:
    """Construct a complete front end from a configuration.

    ``obs`` is shared by the I-cache (scope ``icache``), the BTB (scope
    ``btb``), and the engine itself; the default no-op instance keeps
    results bit-identical to an uninstrumented build.

    ``engine`` selects the simulation path: ``"reference"`` is the
    event-driven engine above; ``"fast"`` requests the batched kernel
    (:mod:`repro.kernel`), which is bit-identical but only available when
    :func:`~repro.kernel.engine.fast_path_unsupported_reason` finds no
    reason against the configuration — otherwise this falls back to the
    reference engine and records the reason as
    ``fast_path_fallback_reason``.
    """
    config = config or FrontEndConfig()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    icache_policy, btb_policy, ghrp = build_policies(config)
    geometry = CacheGeometry.from_capacity(
        config.icache_bytes, config.icache_assoc, config.block_size
    )
    icache = SetAssociativeCache(
        geometry,
        icache_policy,
        track_efficiency=config.track_efficiency,
        obs=obs,
        obs_scope="icache",
    )
    btb = BranchTargetBuffer(
        config.btb_entries,
        config.btb_assoc,
        btb_policy,
        track_efficiency=config.track_efficiency,
        obs=obs,
    )
    direction = HashedPerceptronPredictor()
    ras = ReturnAddressStack(config.ras_depth)
    parts = dict(
        icache=icache,
        btb=btb,
        direction=direction,
        ras=ras,
        ghrp=ghrp,
        wrong_path_depth=config.wrong_path_depth,
        obs=obs,
    )
    if engine == "fast":
        from repro.kernel.engine import FastFrontEnd, fast_path_unsupported_reason

        reason = fast_path_unsupported_reason(
            icache,
            btb,
            wrong_path_depth=config.wrong_path_depth,
            obs=obs,
        )
        if reason is None:
            return FastFrontEnd(**parts)
        # The fallback must be visible, not implicit: count it, trace it,
        # log it, and stamp the reason on the front end so results and
        # the CLI can surface it.
        obs.inc("frontend.fast_path_fallbacks")
        if obs.enabled:
            obs.event("fast_path_fallback", reason=reason)
        get_logger("frontend").info(
            "fast engine unavailable (%s); using the reference engine", reason
        )
        frontend = FrontEnd(**parts)
        frontend.fast_path_fallback_reason = reason
        return frontend
    return FrontEnd(**parts)
