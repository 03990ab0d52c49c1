"""Branch record model.

Mirrors the information content of a CBP-5 trace record: every control
transfer instruction is logged with its PC, its class, whether it was taken,
and its target.  Conditional not-taken branches are logged too (the direction
predictor needs them); for those the ``target`` field still holds the
would-be taken target, as in CBP-5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["BranchType", "BranchRecord"]


class BranchType(enum.IntEnum):
    """Class of a control transfer instruction.

    The integer values are part of the binary trace format; do not renumber.
    """

    CONDITIONAL = 0
    UNCONDITIONAL = 1
    CALL = 2
    RETURN = 3
    INDIRECT = 4
    INDIRECT_CALL = 5

    @property
    def is_conditional(self) -> bool:
        """Only CONDITIONAL branches consult the direction predictor."""
        return self is BranchType.CONDITIONAL

    @property
    def is_call(self) -> bool:
        return self in (BranchType.CALL, BranchType.INDIRECT_CALL)

    @property
    def is_return(self) -> bool:
        return self is BranchType.RETURN

    @property
    def uses_btb(self) -> bool:
        """Whether a taken instance of this branch allocates a BTB entry.

        Returns get their targets from the return address stack, not the
        BTB, matching the front-end model in the paper's infrastructure.
        """
        return self is not BranchType.RETURN


@dataclass(frozen=True, slots=True)
class BranchRecord:
    """One branch event in a trace.

    Attributes
    ----------
    pc:
        Byte address of the branch instruction.
    branch_type:
        The branch class; see :class:`BranchType`.
    taken:
        Whether the branch was taken.  Non-conditional branches are always
        taken by definition.
    target:
        Byte address of the taken target.  For a not-taken conditional this
        is the address control *would* have gone to.
    """

    pc: int
    branch_type: BranchType
    taken: bool
    target: int

    def __post_init__(self) -> None:
        if self.pc < 0:
            raise ValueError(f"branch pc must be non-negative, got {self.pc:#x}")
        if self.target < 0:
            raise ValueError(f"branch target must be non-negative, got {self.target:#x}")
        if not self.branch_type.is_conditional and not self.taken:
            raise ValueError(
                f"{self.branch_type.name} branches are unconditionally taken"
            )

    @property
    def next_pc(self) -> int:
        """Address of the instruction executed after this branch.

        Assumes the fixed 4-byte instruction size used throughout the
        repository (the CBP-5 traces model a RISC ISA the same way).
        """
        return self.target if self.taken else self.pc + 4
