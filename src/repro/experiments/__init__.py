"""The experiment harness.

Runs the policy x workload grids behind every table and figure in the
paper's evaluation and renders them as terminal-friendly reports:

- :mod:`repro.experiments.runner`: serial grid execution with the
  paper's warm-up rule and per-cell result capture (no persistence);
- :mod:`repro.experiments.scheduler`: the one persistent grid executor —
  a content-addressed sweep scheduler over the durable
  :mod:`repro.experiments.cellcache` (re-running against the same cache
  directory is the resume mechanism);
- :mod:`repro.experiments.supervisor`: the fault-tolerant worker pool
  the scheduler runs cells in (timeouts, retries, crash isolation);
- :mod:`repro.experiments.faults`: deterministic fault injection for
  exercising the supervisor's recovery paths;
- :mod:`repro.experiments.figures`: one generator per paper artifact
  (fig1..fig11, table1, the headline numbers);
- :mod:`repro.experiments.report`: shared text-rendering helpers.
"""

import importlib

from repro.experiments.faults import FaultInjected, FaultPlan, FaultSpec
from repro.experiments.runner import (
    CellResult,
    FailedCell,
    GridResult,
    run_cell,
    run_grid,
    run_workload,
    validate_cell,
)
from repro.experiments.supervisor import RetryPolicy, SupervisorConfig
from repro.experiments.tuning import TuningResult, sweep_ghrp

__all__ = [
    "CellResult",
    "FailedCell",
    "GridResult",
    "run_cell",
    "run_grid",
    "run_workload",
    "validate_cell",
    "RetryPolicy",
    "SupervisorConfig",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "TuningResult",
    "sweep_ghrp",
    "figures",
]


def __getattr__(name: str):
    # ``figures`` pulls in numpy and the statistics stack; load it on
    # first use so importing the harness (and ``repro``) stays light.
    if name == "figures":
        return importlib.import_module("repro.experiments.figures")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
