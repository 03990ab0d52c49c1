"""repro — a reproduction of GHRP (ISCA 2018).

Predictive replacement for instruction caches and branch target buffers:
*Exploring Predictive Replacement Policies for Instruction Cache and
Branch Target Buffer*, Mirbagher Ajorpaz, Garza, Jindal, Jiménez,
ISCA 2018.

Quickstart (via the stable facade, :mod:`repro.api`)::

    from repro import Category, make_workload, simulate

    workload = make_workload("demo", Category.SHORT_SERVER, seed=1)
    result = simulate(workload, policy="ghrp", engine="fast")
    print(result.summary_line())

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.api` — the stable facade (simulate / sweep / sessions)
- :mod:`repro.core` — the GHRP predictor (history, signatures, tables)
- :mod:`repro.policies` — LRU/Random/SRRIP/SDBP/GHRP and friends
- :mod:`repro.cache`, :mod:`repro.btb` — the cached structures
- :mod:`repro.kernel` — the batched fast-path engine (bit-identical)
- :mod:`repro.branch` — direction predictors and the RAS
- :mod:`repro.traces`, :mod:`repro.workloads` — traces and their synthesis
- :mod:`repro.frontend` — the decoupled front-end simulator
- :mod:`repro.experiments`, :mod:`repro.stats` — the evaluation harness
"""

from repro.core.config import GHRPConfig
from repro.core.ghrp import GHRPPredictor
from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.btb.btb import BranchTargetBuffer
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import ENGINES, FrontEnd, build_frontend, build_policies
from repro.frontend.options import RunOptions
from repro.frontend.results import SimulationResult
from repro.api import SimulationSession, SweepOptions, simulate, sweep
from repro.policies.registry import available_policies, make_policy
from repro.telemetry import TelemetryConfig, TelemetryRun
from repro.traces.record import BranchRecord, BranchType
from repro.workloads.spec import Category
from repro.workloads.suite import Workload, make_suite, make_workload

__version__ = "1.4.0"

__all__ = [
    "GHRPConfig",
    "GHRPPredictor",
    "CacheGeometry",
    "SetAssociativeCache",
    "BranchTargetBuffer",
    "FrontEndConfig",
    "FrontEnd",
    "ENGINES",
    "build_frontend",
    "build_policies",
    "RunOptions",
    "SweepOptions",
    "SimulationSession",
    "simulate",
    "sweep",
    "SimulationResult",
    "TelemetryConfig",
    "TelemetryRun",
    "available_policies",
    "make_policy",
    "BranchRecord",
    "BranchType",
    "Category",
    "Workload",
    "make_suite",
    "make_workload",
    "BatchKernel",
    "TraceTokens",
    "batch_kernel",
    "tokenize_trace",
    "ServiceClient",
    "ServiceError",
    "__version__",
]

#: Facade names resolved lazily through :mod:`repro.api` (the kernel and
#: service packages behind them are deferred imports there too).
_LAZY_EXPORTS = frozenset(
    {"BatchKernel", "TraceTokens", "batch_kernel", "tokenize_trace",
     "ServiceClient", "ServiceError"}
)


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        from repro import api

        value = getattr(api, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
