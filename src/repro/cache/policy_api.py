"""The replacement-policy plug interface.

The cache engine (:mod:`repro.cache.set_assoc`) is policy-agnostic: every
decision about victimization, bypass, and recency bookkeeping is delegated
to a :class:`ReplacementPolicy`.  Concrete policies (LRU, SRRIP, SDBP, GHRP,
...) live in :mod:`repro.policies` and implement this interface.

The interface is event-shaped the way the paper's Algorithm 1 is: the cache
calls ``should_bypass`` and ``select_victim`` on misses, and ``on_hit`` /
``on_fill`` / ``on_evict`` as the access proceeds, always passing an
:class:`AccessContext` so predictive policies can see the PC driving the
access.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cache.geometry import CacheGeometry

__all__ = ["AccessContext", "ReplacementPolicy", "PolicyError"]


class PolicyError(RuntimeError):
    """Raised when a policy is used before being bound to a geometry."""


@dataclass(slots=True)
class AccessContext:
    """Everything a policy may want to know about the access in flight.

    Attributes
    ----------
    address:
        The block-aligned address being accessed.
    pc:
        The program counter driving the access.  For the I-cache this is the
        address of the first instruction fetched from the block; for the BTB
        it is the branch PC.  Predictive policies hash it into signatures.

    Policies read a context and never mutate it: one object serves every
    callback of an access.  It is not frozen only because the reference
    engine builds one per access, and a frozen dataclass's ``__init__``
    (one ``object.__setattr__`` per field) costs 2-3 times as much.
    """

    address: int
    pc: int


class ReplacementPolicy(abc.ABC):
    """Abstract replacement policy.

    Lifecycle: construct, then :meth:`bind` to the owning structure's
    geometry (which allocates per-set/per-way state), then receive event
    callbacks.  A policy instance manages exactly one structure.

    Subclasses must set the class attribute ``name`` (the registry key used
    by the experiment harness and CLI).

    The batched simulation kernel (:mod:`repro.kernel`) is opted into by
    registering a :class:`~repro.kernel.base.BatchKernel` for the policy's
    exact class with the ``@batch_kernel`` decorator — registration is the
    promise that the kernel replays these event callbacks bit-identically
    on flattened state.  Policies without a registered kernel transparently
    run on the reference engine.
    """

    name: ClassVar[str] = ""

    def __init__(self) -> None:
        self._geometry: "CacheGeometry | None" = None
        # The owning structure's per-set tag rows (aliased), handed over by
        # SetAssociativeCache after bind(); see attach_tag_rows().
        self._tag_rows: list[list[int]] | None = None

    @property
    def geometry(self) -> "CacheGeometry":
        if self._geometry is None:
            raise PolicyError(f"policy {type(self).__name__} used before bind()")
        return self._geometry

    @property
    def is_bound(self) -> bool:
        return self._geometry is not None

    def bind(self, geometry: "CacheGeometry") -> None:
        """Attach the policy to a structure and allocate its state."""
        if self._geometry is not None:
            raise PolicyError(f"policy {type(self).__name__} is already bound")
        self._geometry = geometry
        self._allocate_state(geometry)

    def attach_tag_rows(self, tag_rows: list[list[int]]) -> None:
        """Receive the owning structure's per-set tag rows (after bind()).

        With the geometry from :meth:`bind`, the rows are all a probe
        reads (:meth:`CacheGeometry.find_way`), so metadata-coupled
        policies (GHRP's I-cache side, which its BTB probes) never hold a
        reference back to their cache.
        """
        self._tag_rows = tag_rows

    @abc.abstractmethod
    def _allocate_state(self, geometry: "CacheGeometry") -> None:
        """Allocate per-set/per-way bookkeeping for ``geometry``."""

    @abc.abstractmethod
    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        """The access hit in ``way``; update recency/predictor state."""

    @abc.abstractmethod
    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        """A new block for ``ctx.address`` was placed in ``way``."""

    def on_evict(self, set_index: int, way: int, victim_address: int) -> None:
        """The valid block in ``way`` is about to be replaced.

        Predictive policies train here (the block is now provably dead).
        The default does nothing.
        """

    @abc.abstractmethod
    def select_victim(self, set_index: int, ctx: AccessContext) -> int:
        """Choose the way to replace; every way in the set is valid.

        Called only when the set is full — the cache engine fills invalid
        ways itself, in way order, without consulting the policy.
        """

    def should_bypass(self, set_index: int, ctx: AccessContext) -> bool:
        """Whether to bypass the missing block instead of placing it.

        The default never bypasses; dead-block policies override this.
        """
        return False

    def predicts_dead(self, set_index: int, way: int) -> bool:
        """Whether the policy currently believes the block in ``way`` is dead.

        Used for statistics and the efficiency analysis; non-predictive
        policies report False.
        """
        return False

    def victim_telemetry(self, set_index: int, way: int) -> dict:
        """Extra per-victim detail for the event tracer.

        Called only when event tracing is enabled, after
        :meth:`select_victim` and *before* :meth:`on_evict` clears any
        per-block metadata.  Predictive policies override this to expose
        what drove the decision (GHRP: stored signature, prediction bit,
        LRU position).  Keys land verbatim in the eviction event record.
        """
        return {}

    def reset_generation(self) -> None:
        """Forget transient state between traces (keep learned tables).

        The default does nothing; policies with path history override this
        so that one trace's tail does not leak into the next trace's head.
        """
