"""Interval telemetry, exporters, and the perf ledger.

This package is the observability layer *above* :mod:`repro.obs`: where
``obs`` collects end-of-run aggregates with zero hot-path cost, telemetry
adds the time axis —

- :mod:`repro.telemetry.interval` — per-interval samples (MPKI, hit/miss
  deltas, predictor activity, sentinel counters, set heatmaps) recorded
  by both engines through a ring-buffered :class:`IntervalRecorder`;
- :mod:`repro.telemetry.openmetrics` — deterministic OpenMetrics text
  export of a finished run's registry + interval series;
- :mod:`repro.telemetry.manifest` — the JSON run-manifest (config
  digest, engine, seed, spans, git revision);
- :mod:`repro.telemetry.bench` — the BENCH_HISTORY.jsonl perf ledger and
  the ``bench-diff`` comparison behind the CI annotation step.

The engine-facing contract: a run with ``RunOptions(telemetry=None)``
(the default) is byte-identical to a build without this package.  Engine
call sites must use the ``if <x>.telemetry is not None:`` guard idiom,
statically enforced by the ``det-telemetry-off`` lint rule.
"""

from repro.telemetry.bench import (
    append_bench_history,
    diff_bench_entries,
    read_bench_history,
    render_bench_diff,
)
from repro.telemetry.interval import IntervalRecorder, TelemetryConfig, TelemetryRun
from repro.telemetry.manifest import (
    build_run_manifest,
    config_digest,
    write_run_manifest,
)
from repro.telemetry.openmetrics import render_openmetrics

__all__ = [
    "TelemetryConfig",
    "TelemetryRun",
    "IntervalRecorder",
    "render_openmetrics",
    "build_run_manifest",
    "write_run_manifest",
    "config_digest",
    "append_bench_history",
    "read_bench_history",
    "diff_bench_entries",
    "render_bench_diff",
]
