"""Trace characterization.

The paper buckets its 662 traces into SHORT/LONG × MOBILE/SERVER categories.
When studying our own synthetic traces (or any trace in the repository's
format) it is useful to compute the same kind of footprint and branch-mix
summary this module provides.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.traces.record import BranchRecord, BranchType
from repro.util.bits import is_power_of_two

__all__ = ["TraceSummary", "summarize_trace"]


@dataclass(slots=True)
class TraceSummary:
    """Aggregate statistics for one trace."""

    branch_count: int = 0
    instruction_count: int = 0
    taken_count: int = 0
    unique_branch_pcs: int = 0
    unique_blocks_64b: int = 0
    code_footprint_bytes: int = 0
    branch_type_counts: dict[BranchType, int] = field(default_factory=dict)

    @property
    def taken_fraction(self) -> float:
        """Fraction of branches that were taken."""
        return self.taken_count / self.branch_count if self.branch_count else 0.0

    @property
    def branch_density(self) -> float:
        """Branches per instruction (instruction mix "branchiness")."""
        if self.instruction_count == 0:
            return 0.0
        return self.branch_count / self.instruction_count

    @property
    def avg_run_length(self) -> float:
        """Average sequential instructions per branch."""
        if self.branch_count == 0:
            return 0.0
        return self.instruction_count / self.branch_count


def summarize_trace(records: Iterable[BranchRecord], block_size: int = 64) -> TraceSummary:
    """Characterize a trace from its tokenized fetch stream.

    ``code_footprint_bytes`` counts distinct touched blocks times the block
    size — the quantity that determines whether a trace stresses a given
    I-cache capacity (the mobile/server divide in the paper).
    """
    from repro.kernel.tokenizer import tokenize_trace

    if not is_power_of_two(block_size):
        raise ValueError(f"block size must be a power of two, got {block_size}")
    tokens = tokenize_trace(records)
    blocks = set(tokens.access_view(block_size)[0])
    return TraceSummary(
        branch_count=tokens.n,
        instruction_count=tokens.instr_cum[-1] if tokens.n else 0,
        taken_count=sum(tokens.taken),
        unique_branch_pcs=len(set(tokens.pc)),
        unique_blocks_64b=len(blocks),
        code_footprint_bytes=len(blocks) * block_size,
        branch_type_counts={
            BranchType(kind): count for kind, count in Counter(tokens.kind).items()
        },
    )
