"""Deterministic kernel fault injection.

The sentinel layer's guarantees are only testable if we can make the fast
path *actually* diverge on demand.  A :class:`KernelFault` corrupts one
piece of kernel-aliased state (or raises) at an exact access count —
deterministic, so a fault captured in a repro bundle re-fires at the same
access when replayed.

This module is dependency-free (dataclasses and ``bisect``) so it can be
imported by :mod:`repro.frontend.options` and serialized into bundles
without dragging the engines in.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass

__all__ = ["KernelFault", "FaultArm", "arm_kernel_fault", "FAULT_KINDS"]

FAULT_KINDS = ("flip-pred-bit", "zero-recency", "raise")
"""Supported corruptions:

- ``flip-pred-bit``: invert the dead-block prediction bit of the block
  the faulted access touched (GHRP/SDBP kernels) — the canonical
  silent-divergence bug.
- ``zero-recency``: clobber that block's LRU timestamp (any kernel) —
  corrupts future victim selection.
- ``raise``: raise :class:`~repro.sentinel.errors.InjectedKernelError` —
  a stand-in for a kernel crash, exercising the failover path.
"""

_STRUCTURES = ("icache", "btb")


@dataclass(frozen=True, slots=True)
class KernelFault:
    """One seeded fault: corrupt ``structure``'s kernel at access #N.

    ``access_index`` counts the structure's kernel accesses (1-based),
    so the trigger point is a pure function of the record stream.  The
    fault fires at the end of the record performing that access.
    """

    structure: str = "icache"
    access_index: int = 1
    kind: str = "flip-pred-bit"

    def __post_init__(self) -> None:
        if self.structure not in _STRUCTURES:
            raise ValueError(
                f"structure must be one of {_STRUCTURES}, got {self.structure!r}"
            )
        if self.access_index < 1:
            raise ValueError(
                f"access_index must be >= 1, got {self.access_index}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "KernelFault":
        return cls(**data)


class FaultArm:
    """Live handle for an armed fault, driven by the fast engine's batch
    loop: :meth:`begin_window` names the window record performing kernel
    access #``access_index``, the loop ends a chunk after that record and
    calls :meth:`fire`, and :meth:`end_window` advances ``count``.

    ``count`` is the number of accesses the armed structure has executed
    (the sentinel rebases ``access_index`` on it when replaying a window
    on a shadow engine).
    """

    __slots__ = ("fault", "kernel", "count", "fired", "_base", "_ends", "_addresses")

    def __init__(self, fault: KernelFault, kernel):
        self.fault = fault
        self.kernel = kernel
        self.count = 0
        self.fired = False
        self._base = 0
        self._ends: list[int] = []
        self._addresses: list[int] = []

    def begin_window(self, tokens, block_size: int) -> int:
        """Bind one tokenized window (``block_size`` is the I-cache's);
        return the index of the record performing the faulted access, or
        ``tokens.n`` when the fault has fired or falls outside it."""
        if self.fault.structure == "icache":
            self._addresses, _pcs, self._ends = tokens.access_view(block_size)
        else:
            self._addresses, self._ends = tokens.bpc, tokens.btb_end
        self._base = self.count
        ends = self._ends
        local = self.fault.access_index - self._base
        if self.fired or local < 1 or not ends or local > ends[-1]:
            return tokens.n
        return bisect_left(ends, local)

    def fire(self) -> None:
        """Corrupt the line the faulted access touched, or raise."""
        index = self.fault.access_index
        self.fired = True
        self.count = index
        address = self._addresses[index - self._base - 1]
        _corrupt(self.kernel, self.fault.kind, address, index)

    def end_window(self, last: int) -> None:
        """Account the window's accesses through record ``last``."""
        self.count = self._base + self._ends[last]


def _corrupt(kernel, kind: str, address: int, access_index: int) -> None:
    set_index = (address >> kernel._offset_bits) & kernel._index_mask
    tag = address >> kernel._tag_shift
    row = kernel._tags[set_index]
    # A bypassed (or since-evicted) block has no line; hit way 0 instead.
    way = row.index(tag) if tag in row else 0
    if kind == "flip-pred-bit":
        rows = getattr(kernel, "_pred_dead", None)
        if rows is None:
            raise ValueError(
                f"kernel {type(kernel).__name__} has no prediction bits; "
                "use kind='zero-recency' instead"
            )
        rows[set_index][way] = not rows[set_index][way]
    elif kind == "zero-recency":
        kernel._last_use[set_index][way] = 0
    else:  # "raise"
        from repro.sentinel.errors import InjectedKernelError

        raise InjectedKernelError(
            f"injected kernel fault in {type(kernel).__name__} "
            f"(access #{access_index})"
        )


def arm_kernel_fault(frontend, fault: KernelFault) -> FaultArm:
    """Arm ``fault`` on a fast front end for its current run.

    Returns the live :class:`FaultArm`, also installed as the front end's
    ``_fault_arm``, which the batch loop consults once per window.
    """
    if fault.structure == "icache":
        kernel = frontend._icache_kernel
    else:
        kernel = frontend._btb_kernel.inner
    arm = FaultArm(fault, kernel)
    frontend._fault_arm = arm
    return arm
