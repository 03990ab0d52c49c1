"""Export-surface snapshot for the stable facade.

The facade's promise is that ``repro.api.__all__`` and the ``repro``
top-level exports only grow deliberately: removing or renaming a name is
a breaking change that must update this snapshot (and the deprecation
notes in docs/api.md) in the same commit.  Silent drift fails here.

1.3.0 removed no exported name.  It removed the
``FrontEndConfig.direction_predictor`` field (pinned by
``FRONTEND_CONFIG_FIELDS`` below) and modules below the facade; see
"Migrating to 1.3.0" in docs/api.md.
"""

import dataclasses

import repro
import repro.api as api

API_EXPORTS = frozenset(
    {
        "RunOptions",
        "SweepOptions",
        "SimulationSession",
        "simulate",
        "sweep",
        "ENGINES",
        "build_frontend",
        "build_policies",
        "FrontEndConfig",
        "SimulationResult",
        "TelemetryConfig",
        "TelemetryRun",
        "BatchKernel",
        "TraceTokens",
        "batch_kernel",
        "tokenize_trace",
        "ServiceClient",
        "ServiceError",
    }
)

TOP_LEVEL_EXPORTS = frozenset(
    {
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
    }
)


FRONTEND_CONFIG_FIELDS = (
    "icache_bytes",
    "icache_assoc",
    "block_size",
    "btb_entries",
    "btb_assoc",
    "icache_policy",
    "btb_policy",
    "ras_depth",
    "warmup_fraction",
    "warmup_cap_instructions",
    "max_instructions",
    "wrong_path_depth",
    "track_efficiency",
    "ghrp",
    "sdbp",
    "random_seed",
)


class TestApiSurface:
    def test_api_all_matches_snapshot(self):
        assert frozenset(api.__all__) == API_EXPORTS

    def test_top_level_all_matches_snapshot(self):
        assert frozenset(repro.__all__) == TOP_LEVEL_EXPORTS

    def test_every_declared_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, name
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_facade_is_reexported_from_top_level(self):
        # Everything the facade exports is importable from `repro` itself,
        # so user code needs exactly one import line (docs/api.md).
        for name in API_EXPORTS:
            assert getattr(repro, name) is getattr(api, name), name

    def test_frontend_config_fields_match_snapshot(self):
        # Every field is part of every cell digest: adding or removing one
        # changes all cached results, so it is a versioned API change.
        fields = tuple(f.name for f in dataclasses.fields(repro.FrontEndConfig))
        assert fields == FRONTEND_CONFIG_FIELDS
        assert repro.__version__ == "1.3.0"

    def test_engines_tuple(self):
        assert repro.ENGINES == ("reference", "fast")
