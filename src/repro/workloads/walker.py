"""The program walker: interprets a lowered program into a branch trace.

The walk is a tight, non-recursive loop over the branch-node graph
(:class:`~repro.workloads.program.LoweredProgram`) produced by
:meth:`repro.workloads.program.Program.layout`:

1. find the next branch at or after the current address,
2. resolve its outcome (biased coin, loop counter, weighted indirect
   choice, call/return stack),
3. emit one :class:`~repro.traces.record.BranchRecord`,
4. continue at the outcome address.

When ``main`` returns with an empty call stack, the program is restarted,
so a walker can emit an arbitrarily long trace.  The walk is a pure
function of (lowered program, seed): re-walking yields the identical record
sequence, which is how one workload is replayed for every policy.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.traces.record import BranchRecord, BranchType
from repro.util.rng import DeterministicRng
from repro.workloads.program import LoweredProgram

__all__ = ["ProgramWalker"]

_INSTR = 4
_MAX_CALL_STACK = 256


class ProgramWalker:
    """Deterministic trace generator for a lowered synthetic program."""

    def __init__(self, lowered: LoweredProgram, seed: int):
        self.lowered = lowered
        self.seed = seed

    def records(self, limit: int) -> Iterator[BranchRecord]:
        """Yield exactly ``limit`` branch records (restarting as needed)."""
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        rng = DeterministicRng(self.seed)
        lowered = self.lowered
        next_branch = lowered.next_branch_at_or_after
        main_entry = lowered.main_entry

        # One record object per distinct (pc, taken, target): a node's pc
        # fixes its branch type, so the key identifies the record.  Reusing
        # records skips the frozen dataclass constructor on every repeat
        # and keeps a memoized stream down to one reference per branch.
        interned: dict[tuple[int, bool, int], BranchRecord] = {}

        def record(pc: int, branch_type: BranchType, taken: bool, target: int):
            key = (pc, taken, target)
            found = interned.get(key)
            if found is None:
                found = interned[key] = BranchRecord(pc, branch_type, taken, target)
            return found

        call_stack: list[int] = []
        loop_counters: dict[int, int] = {}
        emitted = 0
        address = main_entry

        while emitted < limit:
            node = next_branch(address)
            kind = node.kind

            if kind == "cond-coin":
                taken = rng.random() < node.p_taken
                target = node.targets[0]
                yield record(node.pc, BranchType.CONDITIONAL, taken, target)
                address = target if taken else node.pc + _INSTR
            elif kind == "cond-loop":
                remaining = loop_counters.get(node.pc)
                if remaining is None:
                    # First encounter this entry: body already ran once.
                    remaining = node.trip_count - 1
                taken = remaining > 0
                target = node.targets[0]
                yield record(node.pc, BranchType.CONDITIONAL, taken, target)
                if taken:
                    loop_counters[node.pc] = remaining - 1
                    address = target
                else:
                    loop_counters.pop(node.pc, None)
                    address = node.pc + _INSTR
            elif kind == "jump":
                target = node.targets[0]
                yield record(node.pc, BranchType.UNCONDITIONAL, True, target)
                address = target
            elif kind == "call":
                target = node.targets[0]
                yield record(node.pc, BranchType.CALL, True, target)
                if len(call_stack) >= _MAX_CALL_STACK:
                    raise RuntimeError(
                        "call stack overflow: the program's call DAG is deeper "
                        f"than {_MAX_CALL_STACK}"
                    )
                call_stack.append(node.pc + _INSTR)
                address = target
            elif kind == "indirect-call":
                target = rng.choices(node.targets, weights=node.weights, k=1)[0]
                yield record(node.pc, BranchType.INDIRECT_CALL, True, target)
                if len(call_stack) >= _MAX_CALL_STACK:
                    raise RuntimeError(
                        "call stack overflow: the program's call DAG is deeper "
                        f"than {_MAX_CALL_STACK}"
                    )
                call_stack.append(node.pc + _INSTR)
                address = target
            elif kind == "indirect":
                target = rng.choices(node.targets, weights=node.weights, k=1)[0]
                yield record(node.pc, BranchType.INDIRECT, True, target)
                address = target
            elif kind == "return":
                if call_stack:
                    target = call_stack.pop()
                    yield record(node.pc, BranchType.RETURN, True, target)
                    address = target
                else:
                    # main returned: restart the program (fresh dynamic
                    # state, same code), modeling a long-running process.
                    yield record(node.pc, BranchType.RETURN, True, main_entry)
                    loop_counters.clear()
                    address = main_entry
            else:  # pragma: no cover - lowering emits only known kinds
                raise RuntimeError(f"unknown branch node kind {kind!r}")
            emitted += 1
