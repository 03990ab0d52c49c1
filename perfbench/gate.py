"""Output-correctness gate: simulated statistics against a golden.

The golden for every cell comes from a reference-engine run of the same
workload, policy and ``FrontEndConfig``.  For the pinned default seed it
is committed under ``golden/``; for any other seed it is derived by a
reference-engine run before anything is timed, so a claim can be checked
again on a seed nobody tuned against.

Only simulated statistics are compared, exactly.  Host timings,
``fast_path_fallback_reason`` and ``degraded`` are left out on purpose:
they describe how a result was computed, not what it is, and a later
change that kernelizes SRRIP or Random must not trip the gate.
"""

from __future__ import annotations

import copy
import hashlib
import json

#: Per-cell statistics compared for exact identity.
GATE_FIELDS: tuple[str, ...] = (
    "icache_misses", "btb_misses", "icache_mpki", "btb_mpki", "instructions",
    "branches", "direction_accuracy", "dead_evictions", "bypasses",
)


def cell_key(policy: str, workload: str) -> str:
    return f"{policy}/{workload}"


def telemetry_digest(telemetry) -> str:
    """sha256 of a finished interval-telemetry series, canonical JSON."""
    text = json.dumps(telemetry.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stats_of_cell(cell) -> dict:
    """The gated fields of a ``CellResult`` (as a sweep or job returns it)."""
    if isinstance(cell, dict):
        return {name: cell[name] for name in GATE_FIELDS}
    return {name: getattr(cell, name) for name in GATE_FIELDS}


def stats_of_result(result) -> dict:
    """The gated fields of a ``SimulationResult``, derived as a cell would be."""
    stats = {
        "icache_misses": result.icache_measured.misses,
        "btb_misses": result.btb_measured.misses,
        "icache_mpki": result.icache_mpki,
        "btb_mpki": result.btb_mpki,
        "instructions": result.instructions,
        "branches": result.branches,
        "direction_accuracy": result.direction_accuracy,
        "dead_evictions": result.icache_total.dead_evictions,
        "bypasses": result.icache_total.bypasses,
    }
    if result.telemetry is not None:
        stats["telemetry"] = telemetry_digest(result.telemetry)
    return stats


def compare(observed: dict[str, dict], golden: dict[str, dict]) -> list[str]:
    """Every difference between observed cells and the golden, by cell key."""
    problems = []
    for key, stats in sorted(observed.items()):
        want = golden.get(key)
        if want is None:
            problems.append(f"{key}: no golden entry")
            continue
        names = GATE_FIELDS + (("telemetry",) if "telemetry" in want else ())
        for name in names:
            if stats.get(name) != want[name]:
                problems.append(
                    f"{key}: {name} = {stats.get(name)!r}, golden {want[name]!r}"
                )
    return problems


def gate_can_fail(golden: dict[str, dict]) -> bool:
    """True when one altered miss count is caught (checked on every run)."""
    if not golden:
        return False
    key = sorted(golden)[0]
    altered = {key: copy.deepcopy(golden[key])}
    altered[key]["icache_misses"] += 1
    return bool(compare(altered, golden)) and not compare(
        {key: golden[key]}, golden
    )
