"""Fetch-stream reconstruction.

CBP-5 traces contain one record per branch.  Section IV-A of the paper:

    "From these traces we reconstruct the block address of every instruction
    fetch group by inferring the missing instructions between branch
    targets."

That inference is simple with a fixed instruction size: after a branch
resolves, control proceeds sequentially from its ``next_pc`` until the next
branch in the trace.  Each such sequential run is a :class:`FetchChunk`; the
I-cache sees one access per distinct cache block the chunk touches.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.traces.record import BranchRecord
from repro.util.bits import is_power_of_two

__all__ = ["INSTRUCTION_SIZE", "FetchChunk", "FetchBlockStream"]

INSTRUCTION_SIZE = 4
"""Fixed instruction size in bytes (RISC-style, as modeled by CBP-5)."""

_MAX_SEQUENTIAL_GAP = 4096
"""Longest believable sequential run, in bytes.

A gap larger than this between a branch target and the next branch PC means
the trace skipped activity (e.g. a truncated warm-up); we resynchronize at
the branch rather than fabricate thousands of fetches.
"""


@dataclass(slots=True)
class FetchChunk:
    """A maximal sequential run of instructions ending in a branch.

    ``start_pc`` is the address of the first instruction of the run and
    ``branch`` is the control transfer that terminates it.  The run includes
    the branch instruction itself.
    """

    start_pc: int
    branch: BranchRecord

    def __post_init__(self) -> None:
        if self.start_pc > self.branch.pc:
            raise ValueError(
                f"chunk start {self.start_pc:#x} is after its branch {self.branch.pc:#x}"
            )
        if (self.branch.pc - self.start_pc) % INSTRUCTION_SIZE != 0:
            raise ValueError("chunk span must be a whole number of instructions")

    @property
    def instruction_count(self) -> int:
        """Number of instructions in the run, including the branch."""
        return (self.branch.pc - self.start_pc) // INSTRUCTION_SIZE + 1

    def instruction_pcs(self) -> Iterator[int]:
        """Yield the PC of every instruction in the run, in fetch order."""
        return iter(range(self.start_pc, self.branch.pc + 1, INSTRUCTION_SIZE))

    def block_addresses(self, block_size: int) -> Iterator[int]:
        """Yield each distinct, aligned cache-block address the run touches.

        Blocks are yielded in fetch order; a run never revisits a block, so
        every address appears exactly once.
        """
        if not is_power_of_two(block_size):
            raise ValueError(f"block size must be a power of two, got {block_size}")
        first_block = self.start_pc & ~(block_size - 1)
        last_block = self.branch.pc & ~(block_size - 1)
        return iter(range(first_block, last_block + 1, block_size))


class FetchBlockStream:
    """Iterator of :class:`FetchChunk` with running instruction accounting.

    Wraps a branch-record iterable and tracks the total number of
    (reconstructed) instructions seen, which the simulator needs to compute
    MPKI and to implement the paper's warm-up / instruction-budget rules.
    """

    def __init__(self, records: Iterable[BranchRecord]):
        self._records = iter(records)
        self._next_start: int | None = None
        self.instructions_seen = 0
        self.branches_seen = 0
        self.resync_count = 0

    def __iter__(self) -> Iterator[FetchChunk]:
        return self

    def __next__(self) -> FetchChunk:
        record = next(self._records)
        start = self._next_start
        gap_ok = (
            start is not None
            and start <= record.pc
            and record.pc - start <= _MAX_SEQUENTIAL_GAP
            and (record.pc - start) % INSTRUCTION_SIZE == 0
        )
        if not gap_ok:
            if start is not None:
                self.resync_count += 1
            start = record.pc
        chunk = FetchChunk(start_pc=start, branch=record)
        self._next_start = record.next_pc
        self.instructions_seen += chunk.instruction_count
        self.branches_seen += 1
        return chunk
