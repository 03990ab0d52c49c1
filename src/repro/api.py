"""The stable high-level facade: simulate, sweep, and sessions.

This module is the supported entry point for scripting the simulator.  It
wraps the lower layers (workload synthesis, front-end construction, the
reference and batched engines, the grid runner) behind three things:

- :func:`simulate` — one workload, one configuration, one result.
- :func:`sweep` — a (policy, workload) grid, returning MPKI tables.
- :class:`SimulationSession` — a reusable context (config + engine +
  observability) when you run many simulations and don't want to repeat
  yourself.

All knobs are keyword-only dataclasses (:class:`RunOptions`,
:class:`SweepOptions`), so call sites stay readable and adding a field is
never a breaking change.  The ``engine`` knob selects the reference
per-access engine (``"reference"``) or the batched fast path (``"fast"``);
the two are bit-identical, and configurations the fast path does not
support fall back to the reference engine transparently.

Everything exported here is also re-exported from :mod:`repro` itself::

    from repro import Category, make_workload, simulate

    workload = make_workload("demo", Category.SHORT_SERVER, seed=1)
    result = simulate(workload, policy="ghrp", engine="fast")
    print(result.summary_line())
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace as dc_replace

from repro.experiments.runner import CellResult, GridResult, run_grid
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import ENGINES, build_frontend, build_policies
from repro.frontend.options import RunOptions, WorkloadRef
from repro.frontend.results import SimulationResult
from repro.obs import NULL_OBS, Observability
from repro.telemetry import TelemetryConfig, TelemetryRun
from repro.workloads.suite import Workload

__all__ = [
    "RunOptions",
    "SweepOptions",
    "SimulationSession",
    "simulate",
    "sweep",
    # Construction helpers, re-exported so facade users never need to
    # import from the internals.
    "ENGINES",
    "build_frontend",
    "build_policies",
    "FrontEndConfig",
    "SimulationResult",
    # Interval telemetry: pass RunOptions(telemetry=TelemetryConfig(...))
    # and read SimulationResult.telemetry (a TelemetryRun) back.
    "TelemetryConfig",
    "TelemetryRun",
    # The batch-kernel API: the BatchKernel protocol and its @batch_kernel
    # registration (the fast-path opt-in), plus trace pre-tokenization —
    # tokenize once with tokenize_trace, then pass the TraceTokens
    # wherever records go to amortize the lowering across runs.
    "BatchKernel",
    "TraceTokens",
    "batch_kernel",
    "tokenize_trace",
    # The job-service client: submit sweeps to a `repro-sim serve` daemon
    # and fetch durable results (see docs/service.md).
    "ServiceClient",
    "ServiceError",
]

# The kernel package stays a lazy import (it is optional-numpy machinery
# the facade's import path should not pay for), so its exports resolve on
# first attribute access rather than at module import.
_KERNEL_EXPORTS = frozenset(
    {"BatchKernel", "TraceTokens", "batch_kernel", "tokenize_trace"}
)

# The service client stays lazy for the same reason: importing the facade
# should not pay for the daemon machinery (HTTP plumbing, job store).
_SERVICE_EXPORTS = frozenset({"ServiceClient", "ServiceError"})


def __getattr__(name: str):
    if name in _KERNEL_EXPORTS:
        import repro.kernel as kernel

        value = getattr(kernel, name)
        globals()[name] = value  # cache: next access skips __getattr__
        return value
    if name in _SERVICE_EXPORTS:
        import repro.service as service

        value = getattr(service, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, slots=True, kw_only=True)
class SweepOptions:
    """What a sweep covers and how its results are cached.

    Attributes
    ----------
    policies:
        Replacement policies to race; each cell simulates with fresh
        front-end state and the policy driving both the I-cache and the
        BTB (the paper's grid methodology).
    cache:
        Directory of a content-addressed result cache (created on first
        use).  When set, the sweep runs through the crash-safe scheduler
        (:mod:`repro.experiments.scheduler`): cells already cached are
        never recomputed, results are journaled and written durably as
        the sweep runs, and an interrupted sweep resumes from where it
        stopped by simply re-running the same call.  ``None`` (default)
        keeps the plain uncached sweep.
    shard:
        ``"K/N"`` (or a ``(K, N)`` tuple, K 0-based): this process
        simulates only the cells whose content digest maps to shard K of
        N.  Run one process per shard against the same ``cache``
        directory, then re-run unsharded to assemble the full grid from
        cache hits.  Requires ``cache``.
    snapshots:
        Memoize warmed engine state so sweeps sharing a warm-up prefix
        replay only their measurement windows (default True; only
        meaningful with ``cache``).
    """

    policies: tuple[str, ...]
    cache: str | None = None
    shard: tuple[int, int] | None = None
    snapshots: bool = True

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("SweepOptions.policies must not be empty")
        # Accept any sequence of names but normalize to a tuple so the
        # options object stays hashable/frozen.
        if not isinstance(self.policies, tuple):
            object.__setattr__(self, "policies", tuple(self.policies))
        for name in self.policies:
            if not isinstance(name, str) or not name:
                raise ValueError(f"policy names must be non-empty strings, got {name!r}")
        if self.cache is not None and not isinstance(self.cache, str):
            object.__setattr__(self, "cache", str(self.cache))
        if self.shard is not None:
            if isinstance(self.shard, str):
                from repro.experiments.scheduler import parse_shard

                object.__setattr__(self, "shard", parse_shard(self.shard))
            else:
                index, count = self.shard
                object.__setattr__(self, "shard", (int(index), int(count)))
                if count < 1 or not 0 <= index < count:
                    raise ValueError(
                        f"shard index must satisfy 0 <= K < N, got {index}/{count}"
                    )
            if self.cache is None:
                raise ValueError("SweepOptions.shard requires cache=")


class SimulationSession:
    """A reusable simulation context: one config, one engine, one obs.

    Sessions exist so scripts that run many simulations (policy studies,
    sweeps, notebooks) configure the front end once::

        session = SimulationSession(
            config=FrontEndConfig(wrong_path_depth=4), engine="fast"
        )
        for policy in ("lru", "sdbp", "ghrp"):
            result = session.simulate(workload, policy=policy)

    The session itself is stateless between runs — every ``simulate`` and
    ``sweep`` call builds a fresh front end, so results never leak state
    from one run into the next.
    """

    __slots__ = ("config", "engine", "obs")

    def __init__(
        self,
        *,
        config: FrontEndConfig | None = None,
        engine: str = "reference",
        obs: Observability = NULL_OBS,
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.config = config if config is not None else FrontEndConfig()
        self.engine = engine
        self.obs = obs

    # ------------------------------------------------------------------
    # Single runs
    # ------------------------------------------------------------------
    def simulate(
        self,
        workload: Workload | Iterable,
        *,
        policy: str | None = None,
        btb_policy: str | None = None,
        options: RunOptions | None = None,
    ) -> SimulationResult:
        """Simulate one workload; returns the :class:`SimulationResult`.

        ``workload`` is either a :class:`~repro.workloads.suite.Workload`
        or any iterable of branch records.  ``policy``/``btb_policy``
        override the session config's I-cache/BTB policies for this run.
        When ``options`` is omitted and the workload can report its
        instruction count, the paper's warm-up rule (half the trace,
        capped) is applied; a bare record iterable runs unwarmed.
        """
        config = self.config
        overrides = {}
        if policy is not None:
            overrides["icache_policy"] = policy
        if btb_policy is not None:
            overrides["btb_policy"] = btb_policy
        if overrides:
            config = config.with_overrides(**overrides)

        if isinstance(workload, Workload):
            records = workload.records()
            if options is None:
                options = RunOptions.from_config_warmup(
                    config, workload.instruction_count()
                )
            if options.verify != "off" and options.workload_ref is None:
                # Verified runs carry their provenance so the sentinel's
                # repro bundles are replayable without the call site.
                options = dc_replace(
                    options,
                    workload_ref=WorkloadRef.from_workload(workload),
                    config_ref=options.config_ref or config,
                )
        else:
            records = workload
            if options is None:
                options = RunOptions(max_instructions=config.max_instructions)

        frontend = build_frontend(config, obs=self.obs, engine=self.engine)
        return frontend.run(records, options)

    # ------------------------------------------------------------------
    # Grids
    # ------------------------------------------------------------------
    def sweep(
        self,
        workloads: Workload | Sequence[Workload],
        options: SweepOptions,
        *,
        progress: Callable[[CellResult], None] | None = None,
    ) -> GridResult:
        """Run every (policy, workload) cell; returns the grid.

        Each cell gets fresh front-end state with the policy driving both
        the I-cache and the BTB, warmed by the paper's rule — the same
        methodology as :func:`repro.experiments.runner.run_grid`, with the
        session's engine applied to every cell.

        With ``options.cache`` set, the sweep runs through the
        content-addressed scheduler: previously computed cells (from any
        earlier run sharing the cache directory) are served without
        simulation, new results are journaled and durably cached as they
        complete, and warm-up state is memoized across cells.
        """
        if isinstance(workloads, Workload):
            workloads = (workloads,)
        if options.cache is not None:
            # Imported lazily: the scheduler pulls in multiprocessing
            # machinery that plain sweeps never need.
            from repro.experiments.scheduler import SchedulerConfig, SweepScheduler

            runner = SweepScheduler(
                options.cache,
                self.config,
                scheduler=SchedulerConfig(
                    shard=options.shard, snapshots=options.snapshots
                ),
                obs=self.obs,
                engine=self.engine,
            )
            return runner.run(workloads, options.policies, progress=progress)
        return run_grid(
            workloads, options.policies, self.config,
            progress=progress, obs=self.obs, engine=self.engine,
        )


def simulate(
    workload: Workload | Iterable,
    *,
    policy: str | None = None,
    btb_policy: str | None = None,
    config: FrontEndConfig | None = None,
    engine: str = "reference",
    options: RunOptions | None = None,
    obs: Observability = NULL_OBS,
) -> SimulationResult:
    """Simulate one workload (one-shot form of :class:`SimulationSession`)."""
    session = SimulationSession(config=config, engine=engine, obs=obs)
    return session.simulate(
        workload, policy=policy, btb_policy=btb_policy, options=options
    )


def sweep(
    workloads: Workload | Sequence[Workload],
    options: SweepOptions,
    *,
    config: FrontEndConfig | None = None,
    engine: str = "reference",
    obs: Observability = NULL_OBS,
    progress: Callable[[CellResult], None] | None = None,
) -> GridResult:
    """Run a (policy, workload) grid (one-shot form of a session sweep)."""
    session = SimulationSession(config=config, engine=engine, obs=obs)
    return session.sweep(workloads, options, progress=progress)
