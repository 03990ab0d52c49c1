"""The ``BatchKernel`` protocol, registry, and base cache/BTB kernels.

A *kernel* replays one replacement policy's event protocol (hit / bypass /
victim / evict / fill) against the reference cache's own state arrays.
Kernels implement the declarative :class:`BatchKernel` protocol:

- :meth:`~BatchKernel.begin_window` binds the kernel to one tokenized
  window and returns its chunk executor, which the fast engine's batch
  loop calls once per chunk;
- :meth:`~BatchKernel.sync` flushes delta counters and window-local
  scalar state back into the reference objects (idempotent, called at
  every chunk barrier);
- :meth:`~BatchKernel.state_digest` exports canonical state for the
  sentinel layer (safe mid-update).

Registering a kernel with :func:`batch_kernel` **is** the fast-path
opt-in: there is no separate ``supports_fast_path`` flag.  Registration
is by **exact** policy class: a subclass with different semantics (e.g.
MRU subclassing LRU) must register its own kernel or fall back to the
reference engine.

Kernels run only through window executors: a :class:`CacheKernel`
provides :meth:`~CacheKernel._make_window` for the I-cache stream and
:meth:`~CacheKernel.begin_btb_window` for the BTB stream.  A kernel that
lacks the executor for a structure is refused at build time
(:meth:`~CacheKernel.unsupported_reason`), so that front end runs on the
reference engine.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar

from repro.cache.set_assoc import _INVALID_TAG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.btb.btb import BranchTargetBuffer
    from repro.cache.policy_api import ReplacementPolicy
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.core.ghrp import GHRPPredictor
    from repro.kernel.tokenizer import TraceTokens

__all__ = [
    "BatchKernel",
    "WindowPlan",
    "CacheKernel",
    "BTBKernel",
    "KernelContext",
    "batch_kernel",
    "batch_kernel_for",
    "registered_batch_kernels",
]

_BATCH_KERNELS: dict[type, type["BatchKernel"]] = {}


def batch_kernel(policy_cls: type):
    """Class decorator registering a :class:`BatchKernel` for one exact
    policy class.  Registration is the *only* fast-path opt-in: a policy
    with a registered kernel batches; one without runs on the reference
    engine.
    """

    def decorate(kernel_cls: type["BatchKernel"]) -> type["BatchKernel"]:
        if policy_cls in _BATCH_KERNELS:
            raise ValueError(
                f"policy {policy_cls.__name__} already has a kernel "
                f"({_BATCH_KERNELS[policy_cls].__name__})"
            )
        _BATCH_KERNELS[policy_cls] = kernel_cls
        kernel_cls.policy_class = policy_cls
        return kernel_cls

    return decorate


def batch_kernel_for(policy: "ReplacementPolicy") -> type["BatchKernel"] | None:
    """The kernel registered for ``policy``'s exact class, or None.

    Deliberately not subclass-aware: a policy subclass may override any
    event callback, which would silently diverge from the parent's kernel.
    """
    return _BATCH_KERNELS.get(type(policy))


def registered_batch_kernels() -> dict[type, type["BatchKernel"]]:
    """A copy of the policy-class → kernel-class registry."""
    return dict(_BATCH_KERNELS)


class WindowPlan:
    """Everything a kernel needs to bind to one tokenized window.

    ``icache_kernel``/``btb_kernel`` carry the sibling kernels of the same
    front end, so the GHRP I-cache executor can run a coupled BTB's
    lookups (Section III-E) in record order.
    """

    __slots__ = ("tokens", "icache_kernel", "btb_kernel")

    def __init__(self, tokens: "TraceTokens", icache_kernel=None, btb_kernel=None):
        self.tokens = tokens
        self.icache_kernel = icache_kernel
        self.btb_kernel = btb_kernel


class BatchKernel(abc.ABC):
    """Declarative protocol every fast-path kernel implements.

    The engine drives a window as::

        span = kernel.begin_window(plan)   # bind token views, build executor
        span(lo, hi)                       # per chunk
        kernel.sync()                      # at each barrier

    ``begin_window`` returns the chunk executor directly so the engine's
    chunk loop calls the bound closure without method dispatch.
    """

    #: Matching reference policy class, set by ``batch_kernel``.
    policy_class: ClassVar[type | None] = None

    @abc.abstractmethod
    def begin_window(self, plan: WindowPlan):
        """Bind to one tokenized window; return the chunk executor.

        The executor ``span(lo, hi)`` executes records ``[lo, hi)``.
        Chunks partition the window in order: each call continues where
        the previous one stopped (executors track their own stream
        cursors).
        """

    @abc.abstractmethod
    def sync(self) -> None:
        """Flush window-local state into the reference objects (idempotent)."""

    @abc.abstractmethod
    def state_digest(self) -> dict:
        """Canonical export of the kernel's live state for the sentinel.

        Feeds divergence-bundle manifests and crash capture, and — unlike
        :meth:`sync` — must be safe to call when the kernel may be
        mid-update, so it reads without flushing (delta counters may
        under-report work buffered in an open window).
        """


class KernelContext:
    """Build-time state shared between the kernels of one front end.

    Its one job today is deduplicating GHRP scalar state: when the I-cache
    and BTB policies share a :class:`~repro.core.ghrp.GHRPPredictor`
    (Section III-E), both kernels must read and advance the *same* path
    history, so they share one ``GHRPKernelState``.
    """

    def __init__(self) -> None:
        # (predictor, state) pairs, matched by identity.  A front end has
        # at most two predictors, so a linear scan beats any keyed lookup
        # (and id()-keyed dicts are banned by the determinism lint).
        self._ghrp_states: list[tuple[object, object]] = []

    def ghrp_state(self, predictor: "GHRPPredictor"):
        from repro.kernel.ghrp import GHRPKernelState

        for known, state in self._ghrp_states:
            if known is predictor:
                return state
        state = GHRPKernelState(predictor)
        self._ghrp_states.append((predictor, state))
        return state

    def reload(self) -> None:
        for _, state in self._ghrp_states:
            state.reload()

    def sync(self) -> None:
        for _, state in self._ghrp_states:
            state.sync()


class CacheKernel(BatchKernel):
    """Flattened twin of one ``SetAssociativeCache`` + its policy.

    Statistic counters accumulate in kernel-local deltas; :meth:`sync`
    flushes them into the reference ``CacheStats`` (and, with
    observability on, into the ``<scope>.*`` counters the reference
    engine counts per access) and is idempotent, so engines may sync
    mid-run (warm-up boundary) and again at the end.

    Subclasses provide their I-cache-stream executor by overriding
    :meth:`_make_window` and their BTB-stream executor by overriding
    :meth:`begin_btb_window`.  :meth:`unsupported_reason` names the
    structures and policy shapes the executors do not replay, so the
    build-time gate sends them to the reference engine.
    """

    def __init__(self, cache: "SetAssociativeCache"):
        self.cache = cache
        self._tags = cache._tags  # aliased per-set rows
        self._offset_bits = cache._offset_bits
        self._index_mask = cache._index_mask
        self._tag_shift = cache._tag_shift
        self.obs = cache.obs
        self.scope = cache.obs_scope
        self._d_hits = 0
        self._d_misses = 0
        self._d_bypasses = 0
        self._d_evictions = 0
        self._d_dead_evictions = 0
        # The bound window's flush (begin_window) and the derived
        # block-address → way map the executors maintain.
        self._window_flush = None
        self._blockmap: dict[int, int] | None = None

    @classmethod
    def build(
        cls, cache: "SetAssociativeCache", policy, context: KernelContext
    ) -> "CacheKernel":
        """Construct a kernel; override to pull shared state from ``context``."""
        return cls(cache, policy)

    @classmethod
    def unsupported_reason(cls, policy, structure: str) -> str | None:
        """Why this kernel's executors cannot replay ``policy`` on
        ``structure`` (``"icache"`` or ``"btb"``); None when they can.

        Consulted once per front end by
        :func:`repro.kernel.engine.fast_path_unsupported_reason`.  The
        default refuses a structure whose executor the kernel class does
        not provide; subclasses add the policy shapes they do not unroll.
        """
        if structure == "icache":
            provided = cls._make_window is not CacheKernel._make_window
        else:
            provided = cls.begin_btb_window is not CacheKernel.begin_btb_window
        if not provided:
            return f"{cls.__name__} has no {structure} executor"
        return None

    def reload(self) -> None:
        """Re-capture scalar state from the reference objects (run start)."""
        self._window_flush = None
        self._blockmap = None

    # ------------------------------------------------------------------
    # BatchKernel protocol
    # ------------------------------------------------------------------
    def begin_window(self, plan: WindowPlan):
        """Bind token views for one window; returns the chunk executor."""
        span, flush = self._make_window(plan)
        self._window_flush = flush
        return span

    def _make_window(self, plan: WindowPlan):
        """The I-cache-stream executor: return ``(span, flush)``.

        ``span(lo, hi)`` executes records ``[lo, hi)``; ``flush()`` (or
        None) writes closure-buffered deltas back onto the kernel so
        :meth:`sync` sees them.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no I-cache executor"
        )

    def begin_btb_window(self, plan: WindowPlan, wrapper: "BTBKernel"):
        """The BTB-stream executor: return ``(span, flush)`` as
        :meth:`_make_window` does, handling ``wrapper``'s target array
        inline with the replacement decision."""
        raise NotImplementedError(
            f"{type(self).__name__} has no BTB executor"
        )

    def _build_blockmap(self) -> dict[int, int]:
        """block address → way for every valid line (the executors probe
        with one dict get instead of ``row.index(tag)``, maintaining the
        map incrementally on fill/evict)."""
        tag_shift = self._tag_shift
        offset_bits = self._offset_bits
        blockmap: dict[int, int] = {}
        for set_index, row in enumerate(self._tags):
            base = set_index << offset_bits
            for way, tag in enumerate(row):
                if tag != _INVALID_TAG:
                    blockmap[(tag << tag_shift) | base] = way
        return blockmap

    def state_digest(self) -> dict:
        """Canonical export of the kernel's live state for the sentinel.

        Every registered kernel must implement this (enforced by the
        ``contract-fast-path`` lint rule): it feeds divergence-bundle
        manifests and crash capture, and — unlike :meth:`sync` — must be
        safe to call when the kernel may be mid-update, so it reads
        without flushing.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state_digest(); "
            "every registered kernel must export its canonical state"
        )

    def _base_digest(self) -> dict:
        """The state every kernel shares: tags, deltas, the block map."""
        return {
            "kernel": type(self).__name__,
            "tags": self._tags,
            "deltas": {
                "hits": self._d_hits,
                "misses": self._d_misses,
                "bypasses": self._d_bypasses,
                "evictions": self._d_evictions,
                "dead_evictions": self._d_dead_evictions,
            },
            "blockmap": (
                sorted(self._blockmap.items()) if self._blockmap is not None else None
            ),
        }

    def sync(self) -> None:
        """Flush statistic deltas into the reference cache's counters."""
        flush = self._window_flush
        if flush is not None:
            flush()
        stats = self.cache.stats
        hits = self._d_hits
        misses = self._d_misses
        bypasses = self._d_bypasses
        evictions = self._d_evictions
        dead_evictions = self._d_dead_evictions
        stats.accesses += hits + misses
        stats.hits += hits
        stats.misses += misses
        stats.bypasses += bypasses
        stats.evictions += evictions
        stats.dead_evictions += dead_evictions
        # The reference engine ticks ``now`` once per access.
        self.cache.now += hits + misses
        obs = self.obs
        if obs.enabled:
            # The reference engine counts these per access; a counter it
            # never touches must not appear, so zero deltas are skipped.
            scope = self.scope
            for name, delta in (
                ("hits", hits),
                ("misses", misses),
                ("bypasses", bypasses),
                ("evictions", evictions),
                ("dead_evictions", dead_evictions),
            ):
                if delta:
                    obs.inc(f"{scope}.{name}", delta)
        self._d_hits = 0
        self._d_misses = 0
        self._d_bypasses = 0
        self._d_evictions = 0
        self._d_dead_evictions = 0



class BTBKernel(BatchKernel):
    """Fast-path twin of :class:`~repro.btb.btb.BranchTargetBuffer`.

    Wraps the inner cache kernel (which replays the BTB's replacement
    policy) and adds the per-way target array plus target-misprediction
    accounting.

    The inner kernel's BTB-stream executor
    (:meth:`CacheKernel.begin_btb_window`) runs the target handling
    inline with the replacement decision.
    """

    __slots__ = (
        "btb",
        "inner",
        "_targets",
        "_d_target_mispredictions",
        "obs",
        "_window_flush",
    )

    def __init__(self, btb: "BranchTargetBuffer", inner: CacheKernel):
        self.btb = btb
        self.inner = inner
        self._targets = btb._targets  # aliased per-set rows
        self._d_target_mispredictions = 0
        self.obs = btb.obs
        self._window_flush = None

    def reload(self) -> None:
        self.inner.reload()
        self._window_flush = None

    # ------------------------------------------------------------------
    # BatchKernel protocol
    # ------------------------------------------------------------------
    def begin_window(self, plan: WindowPlan):
        span, flush = self.inner.begin_btb_window(plan, self)
        self._window_flush = flush
        return span

    def state_digest(self) -> dict:
        return {
            "kernel": type(self).__name__,
            "targets": self._targets,
            "delta_target_mispredictions": self._d_target_mispredictions,
            "inner": self.inner.state_digest(),
        }

    def sync(self) -> None:
        flush = self._window_flush
        if flush is not None:
            flush()
        self.inner.sync()
        delta = self._d_target_mispredictions
        self.btb.target_mispredictions += delta
        if delta and self.obs.enabled:
            self.obs.inc("btb.target_mispredictions", delta)
        self._d_target_mispredictions = 0
