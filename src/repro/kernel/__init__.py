"""The batched fast-path simulation kernel.

This package is a *semantic twin* of the reference simulation stack
(:mod:`repro.cache.set_assoc` + :mod:`repro.policies` +
:mod:`repro.frontend.engine`), flattened for throughput:

- the trace pre-tokenizer (:mod:`repro.kernel.tokenizer`) lowers each
  reconstructed fetch stream into flat struct-of-arrays token streams;
- one :class:`~repro.kernel.base.CacheKernel` fuses the cache engine and
  its replacement policy into *window executors* that replay whole
  chunks of the token stream per call — no ``AccessContext``/
  ``AccessResult`` allocation, no virtual dispatch per policy event;
- per-set metadata (tags, signatures, prediction bits, recency) is
  **aliased**, not copied: kernels mutate the reference objects' own state
  lists in place, so mid-run introspection (``probe``, telemetry) and
  end-of-run state comparisons see exactly the reference layout;
- signature hashing goes through the process-wide full-space table of
  :func:`repro.util.hashing.full_space_table`, shared read-only by every
  kernel and pickled as its key;
- scalar state (path histories, statistic counters, telemetry) is kept in
  kernel-local integers and flushed back at synchronization points (chunk
  barriers, the warm-up boundary, and end of run).

Kernels implement the declarative :class:`~repro.kernel.base.BatchKernel`
protocol and register against the *exact* policy class they replay with
the :func:`~repro.kernel.base.batch_kernel` decorator — registration is
the fast-path opt-in; policies without a registered kernel fall back to
the reference engine through the build-time gate
(:func:`~repro.kernel.engine.fast_path_unsupported_reason`).  The differential suite
(``tests/test_kernel_differential.py``) pins the two paths bit-identical:
same hit/miss/eviction/bypass counts, same predictor-table contents, same
per-block metadata.
"""

from __future__ import annotations

from repro.kernel.base import (
    BatchKernel,
    BTBKernel,
    CacheKernel,
    KernelContext,
    WindowPlan,
    batch_kernel,
    batch_kernel_for,
    registered_batch_kernels,
)
from repro.kernel.engine import FastFrontEnd, fast_path_unsupported_reason
from repro.kernel.tokenizer import TraceTokens, tokenize_trace

# Importing the kernel modules registers their kernels.
from repro.kernel import direction, ghrp, lru, sdbp  # noqa: E402,F401  (registration side effects)

__all__ = [
    "BatchKernel",
    "BTBKernel",
    "CacheKernel",
    "FastFrontEnd",
    "KernelContext",
    "TraceTokens",
    "WindowPlan",
    "batch_kernel",
    "batch_kernel_for",
    "fast_path_unsupported_reason",
    "registered_batch_kernels",
    "tokenize_trace",
]
