"""Canonical state digests of a front end.

A digest is a nested, deterministically ordered dict of everything a
simulation mutates: per-set tags and replacement metadata (LRU stacks,
signatures, prediction bits), skewed-table counters, path histories, BTB
entries and targets, perceptron weights, RAS contents, and the running
statistics counters.  Two front ends that produce equal digests are in
the same simulation state.

The runtime verifier compares digests between the fast engine and a
shadow reference engine at window barriers; :func:`diff_digest` renders
the first mismatching fields for :class:`~repro.sentinel.errors.
DivergenceError`, and :func:`digest_fingerprint` condenses a digest into
a short stable hash for repro-bundle manifests.

Values in a digest alias live engine state — compare or fingerprint them
immediately; they are not snapshots.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "frontend_digest",
    "canonical_fingerprint",
    "digest_fingerprint",
    "diff_digest",
]


def _stats_digest(stats) -> dict:
    out = {}
    for attr in (
        "accesses", "hits", "misses", "evictions", "dead_evictions",
        "bypasses", "instructions", "predictions", "mispredictions",
    ):
        if hasattr(stats, attr):
            out[attr] = getattr(stats, attr)
    return out


def _bank_digest(bank) -> dict:
    return {
        "tables": bank._tables,
        "predictions": bank.predictions,
        "increments": bank.increments,
        "decrements": bank.decrements,
    }


def _policy_digest(policy) -> dict:
    out = {"type": type(policy).__name__}
    for attr in ("_signatures", "_pred_dead", "_last_use", "_clock"):
        if hasattr(policy, attr):
            out[attr] = getattr(policy, attr)
    if hasattr(policy, "tables"):
        out["tables"] = _bank_digest(policy.tables)
    if hasattr(policy, "predictor"):
        history = policy.predictor.history
        out["history"] = {
            "speculative": history.speculative,
            "retired": history.retired,
        }
        out["predictor_tables"] = _bank_digest(policy.predictor.tables)
    if hasattr(policy, "_sampler"):
        out["sampler"] = [
            [(e.valid, e.partial_tag, e.signature, e.last_use) for e in row]
            for row in policy._sampler
        ]
    return out


def _cache_digest(cache) -> dict:
    return {
        "tags": cache._tags,
        "now": cache.now,
        "stats": _stats_digest(cache.stats),
        "policy": _policy_digest(cache.policy),
    }


def _direction_digest(direction) -> dict:
    out = {
        "type": type(direction).__name__,
        "stats": _stats_digest(direction.stats),
    }
    if hasattr(direction, "_weights"):
        out["state"] = {
            "weights": direction._weights,
            "outcome_history": direction._outcome_history,
            "path_history": direction._path_history,
            "last_sum": direction._last_sum,
            "last_indices": direction._last_indices,
        }
    return out


def _ras_digest(ras) -> dict:
    return {
        "entries": ras._entries,
        "top": ras._top,
        "pos": ras._pos,
        "pushes": ras.pushes,
        "pops": ras.pops,
        "underflows": ras.underflows,
        "correct_pops": ras.correct_pops,
    }


def frontend_digest(frontend) -> dict:
    """The canonical mutable state of ``frontend`` as a nested dict."""
    btb = frontend.btb
    return {
        "icache": _cache_digest(frontend.icache),
        "btb": {
            "cache": _cache_digest(btb._cache),
            "targets": btb._targets,
            "target_mispredictions": btb.target_mispredictions,
        },
        "direction": _direction_digest(frontend.direction),
        "ras": _ras_digest(frontend.ras),
        "wrong_path_accesses": frontend.wrong_path_accesses,
    }


def canonical_fingerprint(payload, *, length: int | None = None) -> str:
    """sha256 of the canonical JSON form of ``payload``.

    The canonical form sorts keys and falls back to ``repr`` for
    non-JSON values, so any two structurally equal payloads hash
    identically regardless of construction order.  This is the single
    hashing convention shared by the runtime verifier's state digests
    and the content-addressed result cache
    (:mod:`repro.experiments.content`).  ``length`` truncates the hex
    digest (the verifier uses 16 chars for log lines; cache keys keep
    all 64).
    """
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return digest if length is None else digest[:length]


def digest_fingerprint(digest: dict) -> str:
    """A short stable hash of a digest for manifests and log lines."""
    return canonical_fingerprint(digest, length=16)


def diff_digest(expected: dict, actual: dict, limit: int = 24) -> list[str]:
    """Field-level diff, reference (expected) values first."""
    diffs: list[str] = []
    _walk(expected, actual, "", diffs, limit)
    return diffs


def _walk(expected, actual, path, diffs, limit) -> None:
    if len(diffs) >= limit:
        return
    if type(expected) is dict and type(actual) is dict:
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected or key not in actual:
                diffs.append(f"{path}.{key}: present on one side only")
                continue
            _walk(expected[key], actual[key], f"{path}.{key}" if path else str(key),
                  diffs, limit)
            if len(diffs) >= limit:
                return
        return
    if isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        if len(expected) != len(actual):
            diffs.append(
                f"{path}: length {len(expected)} != {len(actual)}"
            )
            return
        for index, (left, right) in enumerate(zip(expected, actual, strict=True)):
            _walk(left, right, f"{path}[{index}]", diffs, limit)
            if len(diffs) >= limit:
                return
        return
    if expected != actual:
        diffs.append(f"{path}: expected {expected!r}, got {actual!r}")
