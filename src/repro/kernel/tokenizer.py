"""Trace pre-tokenizer: branch records lowered to struct-of-arrays.

The batched engine (:mod:`repro.kernel.engine`) does not iterate
:class:`~repro.traces.record.BranchRecord` objects; it executes over flat
arrays produced here in one vectorized pass:

- per-record arrays: PC, taken flag, branch kind, reconstructed fetch
  start, cumulative instruction count;
- per-stream prefix counts mapping record ranges onto each structure's
  access subsequence (I-cache blocks, BTB lookups, conditional branches,
  RAS operations), so a kernel can advance through a chunk of records
  with one slice of its own stream;
- derived views (set indices, tags, GHRP signatures, perceptron table
  indices) computed lazily per cache geometry / predictor configuration
  and memoized on the :class:`TraceTokens` object.

The fetch-stream reconstruction (``FetchBlockStream``) is replayed
exactly: ``start`` resyncs to the branch PC whenever the sequential gap
from the previous branch's fall-through/target is negative, unaligned, or
larger than ``_MAX_SEQUENTIAL_GAP``; every 64-byte block from ``start``
through ``pc`` becomes one I-cache access whose driving PC is
``max(start, block)``.  The round-trip property test
(``tests/test_tokenizer.py``) pins this equivalence access-for-access
against the reference engine.

Everything here is pure derivation from the record stream: tokenizing
never touches simulator state, so one :class:`TraceTokens` can be shared
by any number of runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as _np

from repro.traces.reconstruct import _MAX_SEQUENTIAL_GAP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.record import BranchRecord

__all__ = [
    "TraceTokens",
    "tokenize_trace",
]

_INSTRUCTION_SHIFT = 2  # 4-byte instructions


class TraceTokens:
    """One tokenized record stream: flat arrays plus memoized views.

    All hot-loop arrays are plain Python lists (CPython indexes lists
    faster than 0-d numpy reads); numpy is used to *build* them.  The
    ``derived`` memo holds geometry/config-dependent views keyed by
    explicit tuples (including any engine-state seeds they were computed
    from), so one token set serves every configuration and warm-start.

    Iterating a ``TraceTokens`` yields the underlying records, so the
    object can stand in for the record iterable everywhere (e.g. the
    sentinel's window slicing).
    """

    __slots__ = (
        "records",
        "n",
        "seed_next_start",
        "pc",
        "taken",
        "target",
        "kind",
        "start",
        "instr_cum",
        "cond_end",
        "cpc",
        "ctaken",
        "btb_end",
        "bpc",
        "btarget",
        "brec",
        "ras_end",
        "rop",
        "rval",
        "derived",
        "_instr_cum_np",
    )

    def __init__(self, records: list["BranchRecord"], seed_next_start: int | None):
        self.records = records
        self.seed_next_start = seed_next_start
        self.derived: dict[tuple, object] = {}
        n = len(records)
        self.n = n
        if n == 0:
            self.pc = []
            self.taken = []
            self.target = []
            self.kind = []
            self.start = []
            self.instr_cum = []
            self.cond_end = []
            self.cpc = []
            self.ctaken = []
            self.btb_end = []
            self.bpc = []
            self.btarget = []
            self.brec = []
            self.ras_end = []
            self.rop = []
            self.rval = []
            self._instr_cum_np = None
            return
        np = _np
        pc = np.fromiter((r.pc for r in records), dtype=np.int64, count=n)
        taken = np.fromiter((r.taken for r in records), dtype=bool, count=n)
        target = np.fromiter((r.target for r in records), dtype=np.int64, count=n)
        kind = np.fromiter(
            (r.branch_type for r in records), dtype=np.int64, count=n
        )

        # Fetch-stream reconstruction, vectorized: the start of record
        # r's fetch region is the previous record's fall-through/target,
        # unless that breaks the sequential-gap invariants.
        prev = np.empty(n, dtype=np.int64)
        prev[0] = -1 if seed_next_start is None else seed_next_start
        if n > 1:
            prev[1:] = np.where(taken[:-1], target[:-1], pc[:-1] + 4)
        gap = pc - prev
        resync = (prev < 0) | (gap < 0) | (gap > _MAX_SEQUENTIAL_GAP) | ((gap & 3) != 0)
        start = np.where(resync, pc, prev)
        gap = np.where(resync, 0, gap)
        instr_cum = np.cumsum((gap >> _INSTRUCTION_SHIFT) + 1)

        is_cond = kind == 0  # BranchType.CONDITIONAL
        is_call = (kind == 2) | (kind == 5)  # CALL, INDIRECT_CALL
        is_ret = kind == 3  # RETURN
        ras_mask = is_call | is_ret
        btb_mask = taken & ~is_ret  # taken and uses_btb

        self.pc = pc.tolist()
        self.taken = taken.tolist()
        self.target = target.tolist()
        self.kind = kind.tolist()
        self.start = start.tolist()
        self.instr_cum = instr_cum.tolist()
        self._instr_cum_np = instr_cum

        self.cond_end = np.cumsum(is_cond).tolist()
        self.cpc = pc[is_cond].tolist()
        self.ctaken = taken[is_cond].tolist()

        self.btb_end = np.cumsum(btb_mask).tolist()
        self.bpc = pc[btb_mask].tolist()
        self.btarget = target[btb_mask].tolist()
        self.brec = np.nonzero(btb_mask)[0].tolist()

        self.ras_end = np.cumsum(ras_mask).tolist()
        self.rop = is_call[ras_mask].tolist()  # True = push(pc+4), False = pop
        self.rval = np.where(is_call, pc + 4, target)[ras_mask].tolist()

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def view(self, key: tuple, build: Callable[[], object]):
        """Memoized geometry/config-dependent view of these tokens.

        ``key`` must include every parameter the view depends on — cache
        geometry, predictor configuration, *and any engine-state seeds*
        (path-history registers, branch histories) the arrays were
        derived from — so a warm-started engine never reuses a view
        computed for a different starting state.
        """
        cached = self.derived.get(key)
        if cached is None:
            cached = build()
            self.derived[key] = cached
        return cached

    def access_view(self, block_size: int):
        """The flat I-cache access stream for ``block_size``-byte blocks.

        Returns ``(blocks, pcs, acc_end)``: one entry per touched block
        in stream order, plus the per-record prefix count mapping record
        ranges onto access ranges (``acc_end[r]`` = accesses through
        record ``r`` inclusive).
        """

        def build():
            np = _np
            n = self.n
            if n == 0:
                return [], [], []
            shift = block_size.bit_length() - 1
            start = np.asarray(self.start, dtype=np.int64)
            pc = np.asarray(self.pc, dtype=np.int64)
            first = start >> shift
            counts = (pc >> shift) - first + 1
            acc_end = np.cumsum(counts)
            total = int(acc_end[-1])
            base = np.repeat(first, counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                acc_end - counts, counts
            )
            blocks = (base + offsets) << shift
            pcs = np.maximum(np.repeat(start, counts), blocks)
            return blocks.tolist(), pcs.tolist(), acc_end.tolist()

        return self.view(("access", block_size), build)

    def icache_geometry_view(
        self, block_size: int, offset_bits: int, index_mask: int, tag_shift: int
    ):
        """Per-access ``(set_index, tag)`` lists for one I-cache geometry."""

        def build():
            np = _np
            blocks, _pcs, _acc_end = self.access_view(block_size)
            arr = np.asarray(blocks, dtype=np.int64)
            sets = (arr >> offset_bits) & index_mask
            tags = arr >> tag_shift
            return sets.tolist(), tags.tolist()

        return self.view(
            ("icache-geom", block_size, offset_bits, index_mask, tag_shift), build
        )

    def btb_geometry_view(
        self, block_size: int, offset_bits: int, index_mask: int, tag_shift: int
    ):
        """Per-BTB-access ``(block, set_index, tag)`` lists for one geometry."""

        def build():
            np = _np
            if not self.bpc:
                return [], [], []
            arr = np.asarray(self.bpc, dtype=np.int64) & ~(block_size - 1)
            sets = (arr >> offset_bits) & index_mask
            tags = arr >> tag_shift
            return arr.tolist(), sets.tolist(), tags.tolist()

        return self.view(
            ("btb-geom", block_size, offset_bits, index_mask, tag_shift), build
        )

    def searchsorted_instructions(self, threshold: int) -> int:
        """First record index whose cumulative instruction count reaches
        ``threshold`` (``n`` when the window never does)."""
        if self._instr_cum_np is None:
            return 0
        return int(_np.searchsorted(self._instr_cum_np, threshold, side="left"))


def tokenize_trace(
    records, next_start: int | None = None
) -> TraceTokens:
    """Lower ``records`` into :class:`TraceTokens`.

    ``next_start`` seeds the fetch-stream reconstruction: ``None`` means
    "no previous branch" (a fresh stream); a window continuing an earlier
    stream passes the carried fall-through/target address so the first
    record's fetch region matches the reference engine exactly.
    """
    if not isinstance(records, list):
        records = list(records)
    return TraceTokens(records, next_start)
