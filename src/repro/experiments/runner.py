"""Grid execution: policies x workloads -> MPKI tables.

The runner owns the methodology plumbing shared by every figure:

- the paper's warm-up rule (half the trace's instructions, capped),
- fresh front-end state per (policy, workload) cell,
- capture of both I-cache and BTB MPKI (plus auxiliary statistics) so
  one grid pass feeds both the I-cache figures and the BTB figures,
- per-cell wall-clock accounting, split into setup (workload
  materialization + front-end construction) and simulation proper.

Every entry point takes an optional :class:`~repro.obs.Observability`;
the default no-op instance keeps results bit-identical to an
uninstrumented run.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import build_frontend
from repro.frontend.options import RunOptions, WorkloadRef
from repro.obs import NULL_OBS, Observability, get_logger
from repro.stats.mpki import MPKITable
from repro.workloads.suite import Workload

__all__ = [
    "CellResult",
    "FailedCell",
    "GridResult",
    "run_cell",
    "run_workload",
    "run_grid",
    "validate_cell",
]

_LOG = get_logger("experiments.runner")


@dataclass(frozen=True, slots=True)
class CellResult:
    """Measured outcome of one (policy, workload) simulation.

    ``elapsed_seconds`` is total wall time and always equals
    ``setup_seconds + simulate_seconds``; the split keeps front-end
    construction and trace materialization from skewing throughput
    numbers.  (The split fields default to 0.0 so result stores written
    before they existed still load.)
    """

    policy: str
    workload: str
    icache_mpki: float
    btb_mpki: float
    icache_misses: int
    btb_misses: int
    instructions: int
    branches: int
    direction_accuracy: float
    dead_evictions: int
    bypasses: int
    elapsed_seconds: float
    setup_seconds: float = 0.0
    simulate_seconds: float = 0.0
    #: True when the sentinel failed the run over to the reference engine
    #: mid-run (statistics are still exact; throughput is not comparable).
    degraded: bool = False
    #: Why the fast path was refused at build time, when it was requested
    #: but the front end fell back to the reference engine.
    fast_path_fallback_reason: str | None = None


_CELL_INT_FIELDS = frozenset(
    {"icache_misses", "btb_misses", "instructions", "branches",
     "dead_evictions", "bypasses"}
)
_CELL_FLOAT_FIELDS = frozenset(
    {"icache_mpki", "btb_mpki", "direction_accuracy",
     "elapsed_seconds", "setup_seconds", "simulate_seconds"}
)


def validate_cell(
    cell: object, policy: str | None = None, workload: str | None = None
) -> str | None:
    """Schema-check one cell result; return a problem description or None.

    Shared by the cell cache (refuse to persist garbage), the sweep
    scheduler and the supervised executor (a worker returning a malformed result is treated
    as a failed attempt, not silently recorded).  ``policy``/``workload``
    additionally pin the cell to the task that produced it.
    """
    if not isinstance(cell, CellResult):
        return f"not a CellResult (got {type(cell).__name__})"
    if not isinstance(cell.policy, str) or not isinstance(cell.workload, str):
        return "policy/workload are not strings"
    if policy is not None and cell.policy != policy:
        return f"policy mismatch (expected {policy!r}, got {cell.policy!r})"
    if workload is not None and cell.workload != workload:
        return f"workload mismatch (expected {workload!r}, got {cell.workload!r})"
    for name in _CELL_INT_FIELDS:
        value = getattr(cell, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            return f"field {name}={value!r} is not a non-negative int"
    for name in _CELL_FLOAT_FIELDS:
        value = getattr(cell, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            return f"field {name}={value!r} is not a finite number"
    return None


@dataclass(frozen=True, slots=True)
class FailedCell:
    """A (policy, workload) cell that could not produce a result.

    Produced by the supervised grid executor when a cell exhausts its
    retries; carried alongside the successful cells so reports and
    figures can render a partial grid with annotated gaps instead of
    pretending the cell never existed.

    ``kind`` classifies the terminal failure: ``"error"`` (the worker
    raised), ``"timeout"`` (killed at the per-cell deadline),
    ``"crash"`` (the worker process died without reporting — segfault,
    OOM kill, ``os._exit``), or ``"garbage"`` (the worker returned
    something that failed result validation).
    """

    policy: str
    workload: str
    kind: str
    error_type: str
    message: str
    attempts: int
    elapsed_seconds: float
    #: Repro bundle captured by the sentinel for the terminal attempt
    #: (divergence or kernel crash), when one was written.
    bundle_path: str | None = None

    def summary_line(self) -> str:
        line = (
            f"{self.policy}/{self.workload}: {self.kind} "
            f"({self.error_type}: {self.message}) after {self.attempts} attempt(s), "
            f"{self.elapsed_seconds:.1f}s"
        )
        if self.bundle_path is not None:
            line += f" [bundle: {self.bundle_path}]"
        return line


@dataclass(slots=True)
class GridResult:
    """All cells of a grid, with MPKI table views.

    Lookups go through a (policy, workload) index maintained by
    :meth:`add`; duplicate keys keep the first cell and log a warning
    (a duplicate usually means a suite built two workloads with the
    same name, which would silently shadow results otherwise).

    ``failed`` carries the cells that exhausted their retries under the
    supervised executor; a plain serial ``run_grid`` never adds any.
    """

    cells: list[CellResult] = field(default_factory=list)
    failed: list[FailedCell] = field(default_factory=list)
    _index: dict[tuple[str, str], CellResult] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        deduped: list[CellResult] = []
        for cell in self.cells:
            if self._note_duplicate(cell):
                continue
            self._index[(cell.policy, cell.workload)] = cell
            deduped.append(cell)
        self.cells = deduped

    def _note_duplicate(self, cell: CellResult) -> bool:
        existing = self._index.get((cell.policy, cell.workload))
        if existing is None:
            return False
        _LOG.warning(
            "duplicate grid cell (%s, %s): keeping the first result, "
            "dropping the duplicate", cell.policy, cell.workload,
        )
        return True

    def add(self, cell: CellResult) -> None:
        if self._note_duplicate(cell):
            return
        self.cells.append(cell)
        self._index[(cell.policy, cell.workload)] = cell

    def add_failure(self, failure: FailedCell) -> None:
        self.failed.append(failure)

    @property
    def complete(self) -> bool:
        """True when no cell of the grid ended as a failure."""
        return not self.failed

    @property
    def icache(self) -> MPKITable:
        table = MPKITable()
        for cell in self.cells:
            table.set(cell.policy, cell.workload, cell.icache_mpki)
        return table

    @property
    def btb(self) -> MPKITable:
        table = MPKITable()
        for cell in self.cells:
            table.set(cell.policy, cell.workload, cell.btb_mpki)
        return table

    def cell(self, policy: str, workload: str) -> CellResult:
        try:
            return self._index[(policy, workload)]
        except KeyError:
            raise KeyError(f"no cell for ({policy!r}, {workload!r})") from None


def _run_options_for(
    workload: Workload, config: FrontEndConfig, verify: str, telemetry=None
) -> RunOptions:
    """Cell run options: the paper's warm-up rule
    (:meth:`RunOptions.from_config_warmup`) plus verification and
    telemetry.  Verified runs carry the provenance the sentinel's repro
    bundles need (workload spec + seed, front-end config)."""
    refs = {}
    if verify != "off":
        refs = {
            "workload_ref": WorkloadRef.from_workload(workload),
            "config_ref": config,
        }
    return replace(
        RunOptions.from_config_warmup(config, workload.instruction_count()),
        verify=verify,
        telemetry=telemetry,
        **refs,
    )


def run_workload(
    workload: Workload,
    config: FrontEndConfig,
    obs: Observability = NULL_OBS,
    engine: str = "reference",
    verify: str = "off",
    telemetry=None,
):
    """Simulate one workload under ``config``; returns SimulationResult."""
    with obs.span("setup"):
        frontend = build_frontend(config, obs=obs, engine=engine)
        options = _run_options_for(workload, config, verify, telemetry)
    with obs.span("simulate"):
        return frontend.run(workload.records(), options)


def run_cell(
    workload: Workload,
    policy: str,
    config: FrontEndConfig,
    obs: Observability = NULL_OBS,
    engine: str = "reference",
    verify: str = "off",
    telemetry=None,
) -> CellResult:
    """Simulate one (policy, workload) cell with fresh front-end state."""
    cell_config = config.with_overrides(icache_policy=policy, btb_policy=policy)
    cell_span = obs.start_span(f"cell:{policy}/{workload.name}")

    # Setup phase: workload materialization (the warm-up rule walks the
    # trace to count instructions) plus front-end construction.  Kept out
    # of the simulation time so MPKI/s throughput numbers stay honest.
    setup_started = time.perf_counter()
    with obs.span("setup"):
        frontend = build_frontend(cell_config, obs=obs, engine=engine)
        options = _run_options_for(workload, cell_config, verify, telemetry)
    setup_seconds = time.perf_counter() - setup_started

    simulate_started = time.perf_counter()
    with obs.span("simulate"):
        result = frontend.run(workload.records(), options)
    simulate_seconds = time.perf_counter() - simulate_started

    if result.telemetry is not None:
        # The interval series is not part of the (cache-persisted)
        # CellResult schema; it travels on the observability facade and
        # merges across workers like metrics and spans do.
        obs.record_telemetry(
            f"{policy}/{workload.name}", result.telemetry.to_dict()
        )

    with obs.span("collect"):
        cell = _collect_cell(
            policy, workload, result, frontend, setup_seconds, simulate_seconds
        )
    obs.finish_span(cell_span)
    return cell


def _collect_cell(
    policy: str,
    workload: Workload,
    result,
    frontend,
    setup_seconds: float,
    simulate_seconds: float,
) -> CellResult:
    """Fold a finished simulation into a CellResult.

    Shared by :func:`run_cell` and the warm-up-memoizing executor
    (:mod:`repro.experiments.snapshots`), so both paths produce cells
    with identical field derivations.
    """
    return CellResult(
        policy=policy,
        workload=workload.name,
        icache_mpki=result.icache_mpki,
        btb_mpki=result.btb_mpki,
        icache_misses=result.icache_measured.misses,
        btb_misses=result.btb_measured.misses,
        instructions=result.instructions,
        branches=result.branches,
        direction_accuracy=result.direction_accuracy,
        dead_evictions=frontend.icache.stats.dead_evictions,
        bypasses=frontend.icache.stats.bypasses,
        elapsed_seconds=setup_seconds + simulate_seconds,
        setup_seconds=setup_seconds,
        simulate_seconds=simulate_seconds,
        degraded=result.degraded,
        fast_path_fallback_reason=result.fast_path_fallback_reason,
    )


def run_grid(
    workloads: Sequence[Workload],
    policies: Sequence[str],
    config: FrontEndConfig | None = None,
    progress: Callable[[CellResult], None] | None = None,
    obs: Observability = NULL_OBS,
    engine: str = "reference",
    verify: str = "off",
    telemetry=None,
) -> GridResult:
    """Run every (policy, workload) cell; optionally report progress."""
    config = config or FrontEndConfig()
    grid = GridResult()
    for workload in workloads:
        for policy in policies:
            cell = run_cell(
                workload, policy, config, obs=obs, engine=engine,
                verify=verify, telemetry=telemetry,
            )
            grid.add(cell)
            if progress is not None:
                progress(cell)
    return grid
