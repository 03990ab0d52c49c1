"""Content addressing for sweep cells: canonical payloads and digests.

A *cell* is one (workload, policy, front-end configuration) simulation.
Because cell simulation is a pure function of those inputs plus the
engine version, a canonical sha256 digest of them identifies the result
itself: two submissions with equal digests are the same work, and a
cache keyed by the digest can dedupe across sweeps, processes, and
machines.  The hashing convention is the sentinel's
:func:`~repro.sentinel.digest.canonical_fingerprint` (canonical JSON,
sorted keys, ``repr`` fallback), applied here to *inputs* instead of
engine state.

Two digests are defined:

- :func:`cell_digest` — the cache key of a finished
  :class:`~repro.experiments.runner.CellResult`.  Covers the workload
  identity (name + seed + spec — the trace is a pure function of those),
  the policy, every ``FrontEndConfig`` field, and the library version.
  The engine name is deliberately *excluded*: the fast and reference
  engines are bit-identical by contract (enforced by the differential
  suite and the runtime sentinel), so their results share one cache
  entry.

- :func:`warmup_digest` — the key of a memoized warm-up snapshot
  (pickled mid-run engine state).  Unlike results, pickled state *is*
  engine-specific, so the engine name joins the key; the
  ``max_instructions`` field leaves it, so sweeps that differ only in
  measurement length share one warm-up.  The pickle layout's version
  (:data:`SNAPSHOT_FORMAT`) joins it too, so a snapshot written in an
  older layout reads as a miss rather than a half-restored engine.

:func:`grid_signature` is the output-side twin: a digest of a
``GridResult``'s deterministic fields (wall-clock timings excluded),
used by the crash-resume tests to assert that an interrupted-and-resumed
sweep is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import dataclasses

from repro.frontend.config import FrontEndConfig
from repro.sentinel.digest import canonical_fingerprint
from repro.workloads.suite import Workload

__all__ = [
    "CELL_DIGEST_SCHEMA",
    "SNAPSHOT_FORMAT",
    "config_payload",
    "workload_payload",
    "cell_digest",
    "warmup_digest",
    "shard_of",
    "cell_signature",
    "grid_signature",
]

#: Bump when the digest payload shape changes; old cache entries then
#: miss instead of aliasing new ones.
CELL_DIGEST_SCHEMA = 1

#: Version of the pickled warm-up snapshot layout, part of every
#: :func:`warmup_digest`.  Bump it whenever what a snapshot pickles
#: changes shape (format 2: derivable signature tables and the SDBP
#: sampler pickle compactly; format 3: kernels without per-access state
#: and a fast front end carrying its fault arm; format 4: a front end
#: without the three extension-hook attributes of earlier releases;
#: format 5: policies holding their cache's tag rows instead of the
#: cache, and one pickle-by-key signature-index memo; format 6: a
#: perceptron carrying its precomputed segment parameters and history
#: masks; format 7: kernels without window-span slots and an SDBP kernel
#: without the per-access set/way outcome; format 8: a GHRP BTB kernel
#: that subclasses the I-cache kernel, without the fused-window flag);
#: results and ``cell_digest`` are unaffected.
SNAPSHOT_FORMAT = 8


def _library_version() -> str:
    # Imported lazily: repro/__init__ pulls in the facade, which reaches
    # back into repro.experiments — a module-level import here would be
    # circular during package init.
    import repro

    return getattr(repro, "__version__", "0")


def config_payload(config: FrontEndConfig) -> dict:
    """Every ``FrontEndConfig`` field as a canonical JSON-able dict."""
    fields = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        fields[field.name] = value
    return fields


def workload_payload(workload: Workload) -> dict:
    """Workload identity: name, seed, and full spec (category by value)."""
    spec = dataclasses.asdict(workload.spec)
    spec["category"] = workload.spec.category.value
    return {"name": workload.name, "seed": workload.seed, "spec": spec}


def cell_digest(workload: Workload, policy: str, config: FrontEndConfig) -> str:
    """The content address of one cell's result (full sha256 hex)."""
    payload = {
        "schema": CELL_DIGEST_SCHEMA,
        "kind": "cell",
        "workload": workload_payload(workload),
        "policy": policy,
        "config": config_payload(config),
        "version": _library_version(),
    }
    return canonical_fingerprint(payload)


def warmup_digest(
    workload: Workload,
    policy: str,
    config: FrontEndConfig,
    warmup_instructions: int,
    *,
    engine: str,
) -> str:
    """The content address of a warm-up snapshot (full sha256 hex).

    ``max_instructions`` is dropped from the config payload: runs that
    differ only in how far past warm-up they measure share the same
    warmed state.  The engine name is included because the snapshot is
    pickled engine internals, not an engine-neutral result.
    """
    fields = config_payload(config)
    fields.pop("max_instructions", None)
    payload = {
        "schema": CELL_DIGEST_SCHEMA,
        "kind": "warmup",
        "snapshot_format": SNAPSHOT_FORMAT,
        "workload": workload_payload(workload),
        "policy": policy,
        "config": fields,
        "warmup_instructions": warmup_instructions,
        "engine": engine,
        "version": _library_version(),
    }
    return canonical_fingerprint(payload)


def shard_of(digest: str, shards: int) -> int:
    """Which of ``shards`` partitions owns ``digest`` (stable modulo)."""
    return int(digest, 16) % shards


# ---------------------------------------------------------------------------
# Output-side signatures
# ---------------------------------------------------------------------------

#: CellResult fields that depend on wall clock, never on the simulation.
_TIMING_FIELDS = frozenset(
    {"elapsed_seconds", "setup_seconds", "simulate_seconds"}
)


def cell_signature(cell) -> dict:
    """The deterministic fields of a cell result, timings excluded."""
    payload = dataclasses.asdict(cell)
    for name in _TIMING_FIELDS:
        payload.pop(name, None)
    return payload


def grid_signature(grid) -> str:
    """Order-independent digest of a grid's deterministic content.

    Equal signatures mean bit-identical simulation outcomes: the same
    cells (timings excluded) and the same terminal failures.  Used to
    assert that a killed-and-resumed sweep matches an uninterrupted one.
    """
    cells = sorted(
        (cell_signature(cell) for cell in grid.cells),
        key=lambda sig: (sig["policy"], sig["workload"]),
    )
    failed = sorted(
        (
            {
                "policy": failure.policy,
                "workload": failure.workload,
                "kind": failure.kind,
                "error_type": failure.error_type,
            }
            for failure in grid.failed
        ),
        key=lambda sig: (sig["policy"], sig["workload"]),
    )
    return canonical_fingerprint({"cells": cells, "failed": failed})
