"""Synthetic program model: statement trees lowered to a concrete layout.

A program is a list of functions; each function body is a tree of
structured statements (straight-line runs, conditionals, loops, calls,
switches).  :meth:`Program.layout` performs the "compilation": it assigns
every instruction a byte address (4-byte instructions, functions laid out
contiguously from a base address) and lowers the trees into a flat graph of
:class:`BranchNode` objects — one per control transfer instruction — that
the walker (:mod:`repro.workloads.walker`) interprets at trace speed
without recursion.

Loop back-edges can be *counted* (a fixed trip count per site, giving the
strongly patterned behaviour real loops have) or *coin-flip* (geometric
trip counts); if-branches are biased coins, like real data-dependent
branches.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

__all__ = [
    "Run",
    "If",
    "Loop",
    "Call",
    "IndirectCall",
    "Switch",
    "Statement",
    "ProgramFunction",
    "BranchNode",
    "Program",
    "LoweredProgram",
]

_INSTR = 4  # bytes per instruction

# ---------------------------------------------------------------------------
# Statement tree
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Run:
    """``length`` straight-line instructions (no control transfer)."""

    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"run length must be non-negative, got {self.length}")


@dataclass(slots=True)
class If:
    """A conditional: execute ``then_body`` with probability ``bias``.

    Lowered to a conditional branch that, when taken, skips the then-body
    (jumping to the else-body when present, otherwise to the end).
    """

    bias: float
    then_body: list["Statement"]
    else_body: list["Statement"] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError(f"if bias must be in [0, 1], got {self.bias}")


@dataclass(slots=True)
class Loop:
    """Execute ``body`` then loop back via a conditional back-edge.

    ``trip_count >= 1`` gives a counted loop (back-edge taken exactly
    ``trip_count - 1`` times per entry); ``trip_count = None`` gives a
    geometric loop with continue-probability derived from
    ``mean_iterations``.
    """

    body: list["Statement"]
    trip_count: int | None = None
    mean_iterations: float = 8.0

    def __post_init__(self) -> None:
        if self.trip_count is not None and self.trip_count < 1:
            raise ValueError(f"trip_count must be >= 1, got {self.trip_count}")
        if self.mean_iterations < 1.0:
            raise ValueError(
                f"mean_iterations must be >= 1, got {self.mean_iterations}"
            )


@dataclass(slots=True)
class Call:
    """Direct call to the function with index ``callee``."""

    callee: int


@dataclass(slots=True)
class IndirectCall:
    """Indirect call choosing among ``callees`` with ``weights``."""

    callees: list[int]
    weights: list[float]

    def __post_init__(self) -> None:
        if len(self.callees) != len(self.weights) or not self.callees:
            raise ValueError("callees and weights must be equal-length and non-empty")


@dataclass(slots=True)
class Switch:
    """Indirect jump into one of ``cases``; each case exits to the end."""

    cases: list[list["Statement"]]
    weights: list[float]

    def __post_init__(self) -> None:
        if len(self.cases) != len(self.weights) or not self.cases:
            raise ValueError("cases and weights must be equal-length and non-empty")


Statement = Run | If | Loop | Call | IndirectCall | Switch


@dataclass(slots=True)
class ProgramFunction:
    """One function: an index (its identity for calls) and a body."""

    index: int
    name: str
    body: list[Statement]
    entry_address: int = field(default=-1, compare=False)
    return_pc: int = field(default=-1, compare=False)


# ---------------------------------------------------------------------------
# Lowered form
# ---------------------------------------------------------------------------


class BranchNode:
    """One control-transfer instruction in the lowered program.

    ``kind`` is one of:

    - ``"cond-coin"``: taken with probability ``p_taken`` (target skips or
      loops); ``targets=(taken_target,)``.
    - ``"cond-loop"``: counted back-edge; ``trip_count`` total iterations;
      ``targets=(loop_start,)``.
    - ``"jump"``: unconditional; ``targets=(target,)``.
    - ``"call"``: direct call; ``targets=(callee_entry,)``.
    - ``"return"``: target comes from the runtime call stack.
    - ``"indirect"`` / ``"indirect-call"``: weighted choice over
      ``targets``.
    """

    __slots__ = ("pc", "kind", "targets", "p_taken", "trip_count", "weights")

    def __init__(
        self,
        pc: int,
        kind: str,
        targets: tuple[int, ...] = (),
        p_taken: float = 1.0,
        trip_count: int = 1,
        weights: tuple[float, ...] = (),
    ):
        self.pc = pc
        self.kind = kind
        self.targets = targets
        self.p_taken = p_taken
        self.trip_count = trip_count
        self.weights = weights

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BranchNode({self.pc:#x}, {self.kind}, targets={[hex(t) for t in self.targets]})"


@dataclass(slots=True)
class LoweredProgram:
    """The walker's view of a program: flat branch-node graph.

    It holds everything a walk, a footprint or a layout check reads, and
    nothing of the statement tree it was lowered from, so a workload can
    keep this alone once its program is built.
    """

    nodes: dict[int, BranchNode]
    sorted_pcs: list[int]
    entry_addresses: dict[int, int]
    code_size_bytes: int
    base_address: int

    @property
    def main_entry(self) -> int:
        """Entry address of function 0, the program's ``main``."""
        return self.entry_addresses[0]

    def next_branch_at_or_after(self, address: int) -> BranchNode:
        """The first branch instruction at or after ``address``.

        Control always reaches one: every function terminates in a return
        node laid out after all of its body code.
        """
        position = bisect.bisect_left(self.sorted_pcs, address)
        if position >= len(self.sorted_pcs):
            raise ValueError(f"no branch at or after {address:#x}; bad control flow")
        return self.nodes[self.sorted_pcs[position]]


# ---------------------------------------------------------------------------
# Program + layout (lowering)
# ---------------------------------------------------------------------------


class Program:
    """A complete synthetic program, lowerable to a branch-node graph."""

    def __init__(self, functions: list[ProgramFunction], base_address: int = 0x1_0000):
        if not functions:
            raise ValueError("a program needs at least one function")
        indices = [function.index for function in functions]
        if indices != list(range(len(functions))):
            raise ValueError("function indices must be 0..n-1 in order")
        if base_address % _INSTR != 0:
            raise ValueError("base address must be instruction-aligned")
        self.functions = functions
        self.base_address = base_address
        self._lowered: LoweredProgram | None = None

    def layout(self) -> LoweredProgram:
        """Assign addresses and lower to branch nodes (cached)."""
        if self._lowered is not None:
            return self._lowered
        nodes: dict[int, BranchNode] = {}
        cursor = self.base_address

        def emit(node: BranchNode) -> None:
            nodes[node.pc] = node

        def lay_body(body: list[Statement], cursor: int) -> int:
            for statement in body:
                cursor = lay_statement(statement, cursor)
            return cursor

        def lay_statement(statement: Statement, cursor: int) -> int:
            if isinstance(statement, Run):
                return cursor + statement.length * _INSTR

            if isinstance(statement, If):
                branch_pc = cursor
                cursor += _INSTR
                cursor = lay_body(statement.then_body, cursor)
                if statement.else_body is None:
                    end = cursor
                    emit(
                        BranchNode(
                            branch_pc,
                            "cond-coin",
                            targets=(end,),
                            p_taken=1.0 - statement.bias,
                        )
                    )
                    return end
                skip_pc = cursor
                cursor += _INSTR
                else_start = cursor
                cursor = lay_body(statement.else_body, cursor)
                end = cursor
                emit(
                    BranchNode(
                        branch_pc,
                        "cond-coin",
                        targets=(else_start,),
                        p_taken=1.0 - statement.bias,
                    )
                )
                emit(BranchNode(skip_pc, "jump", targets=(end,)))
                return end

            if isinstance(statement, Loop):
                body_start = cursor
                cursor = lay_body(statement.body, cursor)
                back_pc = cursor
                cursor += _INSTR
                if statement.trip_count is not None:
                    emit(
                        BranchNode(
                            back_pc,
                            "cond-loop",
                            targets=(body_start,),
                            trip_count=statement.trip_count,
                        )
                    )
                else:
                    p_continue = 1.0 - 1.0 / statement.mean_iterations
                    emit(
                        BranchNode(
                            back_pc,
                            "cond-coin",
                            targets=(body_start,),
                            p_taken=p_continue,
                        )
                    )
                return cursor

            if isinstance(statement, Call):
                call_pc = cursor
                emit(BranchNode(call_pc, "call", targets=(statement.callee,)))
                return cursor + _INSTR

            if isinstance(statement, IndirectCall):
                call_pc = cursor
                emit(
                    BranchNode(
                        call_pc,
                        "indirect-call",
                        targets=tuple(statement.callees),
                        weights=tuple(statement.weights),
                    )
                )
                return cursor + _INSTR

            if isinstance(statement, Switch):
                jump_pc = cursor
                cursor += _INSTR
                case_starts: list[int] = []
                exit_pcs: list[int] = []
                for case in statement.cases:
                    case_starts.append(cursor)
                    cursor = lay_body(case, cursor)
                    exit_pcs.append(cursor)
                    cursor += _INSTR
                end = cursor
                emit(
                    BranchNode(
                        jump_pc,
                        "indirect",
                        targets=tuple(case_starts),
                        weights=tuple(statement.weights),
                    )
                )
                for exit_pc in exit_pcs:
                    emit(BranchNode(exit_pc, "jump", targets=(end,)))
                return end

            raise TypeError(f"unknown statement type {type(statement).__name__}")

        entry_addresses: dict[int, int] = {}
        for function in self.functions:
            function.entry_address = cursor
            entry_addresses[function.index] = cursor
            cursor = lay_body(function.body, cursor)
            function.return_pc = cursor
            emit(BranchNode(cursor, "return"))
            cursor += _INSTR
            # Align function starts to cache-line-ish boundaries, as
            # compilers do; keeps set mapping realistic.
            cursor = (cursor + 63) & ~63

        # Call/indirect-call nodes carry function indices until now; patch
        # them into entry addresses.
        for node in nodes.values():
            if node.kind in ("call", "indirect-call"):
                node.targets = tuple(entry_addresses[index] for index in node.targets)

        self._lowered = LoweredProgram(
            nodes=nodes,
            sorted_pcs=sorted(nodes),
            entry_addresses=entry_addresses,
            code_size_bytes=cursor - self.base_address,
            base_address=self.base_address,
        )
        return self._lowered
