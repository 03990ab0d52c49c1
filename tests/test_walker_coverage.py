"""Focused walker coverage: every branch-node kind, restart semantics,
and bounded call stacks."""

from repro.traces.record import BranchType
from repro.workloads.program import (
    If,
    IndirectCall,
    Loop,
    Program,
    ProgramFunction,
    Run,
    Switch,
)
from repro.workloads.walker import ProgramWalker


def one_function_program(body):
    return Program([ProgramFunction(index=0, name="main", body=body)], base_address=0)


class TestNodeKinds:
    def test_geometric_loop_terminates(self):
        program = one_function_program(
            [Loop(body=[Run(1)], trip_count=None, mean_iterations=3.0)]
        )
        records = list(ProgramWalker(program.layout(), seed=5).records(200))
        conditionals = [r for r in records if r.branch_type is BranchType.CONDITIONAL]
        assert any(not r.taken for r in conditionals)  # loop exits happen
        assert any(r.taken for r in conditionals)      # and iterations happen

    def test_if_with_else_paths(self):
        program = one_function_program(
            [If(bias=0.5, then_body=[Run(2)], else_body=[Run(3)])]
        )
        records = list(ProgramWalker(program.layout(), seed=1).records(400))
        jumps = [r for r in records if r.branch_type is BranchType.UNCONDITIONAL]
        conds = [r for r in records if r.branch_type is BranchType.CONDITIONAL]
        # Then-path executions emit the skip jump; else-path do not.
        assert jumps, "then-branch jump must appear"
        assert any(r.taken for r in conds) and any(not r.taken for r in conds)

    def test_switch_visits_multiple_cases(self):
        program = one_function_program(
            [Loop(body=[Switch(cases=[[Run(1)], [Run(2)], [Run(3)]],
                               weights=[1.0, 1.0, 1.0])], trip_count=50)]
        )
        records = list(ProgramWalker(program.layout(), seed=2).records(300))
        targets = {
            r.target for r in records if r.branch_type is BranchType.INDIRECT
        }
        assert len(targets) >= 2

    def test_indirect_call_returns_correctly(self):
        callees = [
            ProgramFunction(index=1, name="a", body=[Run(1)]),
            ProgramFunction(index=2, name="b", body=[Run(2)]),
        ]
        main = ProgramFunction(
            index=0,
            name="main",
            body=[Loop(body=[IndirectCall(callees=[1, 2], weights=[1.0, 1.0])],
                       trip_count=20)],
        )
        program = Program([main] + callees, base_address=0)
        records = list(ProgramWalker(program.layout(), seed=3).records(200))
        stack = []
        for record in records:
            if record.branch_type.is_call:
                stack.append(record.pc + 4)
            elif record.branch_type.is_return and stack:
                assert record.target == stack.pop()
        call_targets = {
            r.target for r in records if r.branch_type is BranchType.INDIRECT_CALL
        }
        assert len(call_targets) == 2


class TestRestart:
    def test_program_restarts_after_main_returns(self):
        program = one_function_program([Run(2)])
        records = list(ProgramWalker(program.layout(), seed=1).records(5))
        # main is just a return node executed over and over.
        assert all(r.branch_type is BranchType.RETURN for r in records)
        entry = program.layout().entry_addresses[0]
        assert all(r.target == entry for r in records)

    def test_loop_counters_reset_on_restart(self):
        program = one_function_program([Loop(body=[Run(1)], trip_count=3)])
        records = list(ProgramWalker(program.layout(), seed=1).records(8))
        conds = [r.taken for r in records if r.branch_type is BranchType.CONDITIONAL]
        # Pattern per program run: T T N; restart repeats it identically.
        assert conds[:6] == [True, True, False, True, True, False]
