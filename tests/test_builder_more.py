"""Builder edge cases: degenerate specs must still produce valid programs."""

import pytest

from repro.traces.reconstruct import FetchBlockStream
from repro.workloads.builder import build_program
from repro.workloads.spec import Category, WorkloadSpec
from repro.workloads.walker import ProgramWalker


def spec_with(**overrides):
    defaults = dict(
        category=Category.SHORT_MOBILE,
        code_footprint_bytes=4 * 1024,
        branch_budget=1000,
        num_phases=1,
        phase_rounds=2,
        max_call_depth=2,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def walks_cleanly(program, n=600):
    stream = FetchBlockStream(ProgramWalker(program.layout(), seed=1).records(n))
    for _ in stream:
        pass
    return stream.resync_count == 0


class TestDegenerateSpecs:
    def test_no_shared_functions(self):
        program = build_program(spec_with(shared_function_fraction=0.0), seed=1)
        assert walks_cleanly(program)

    def test_single_phase_single_round(self):
        program = build_program(spec_with(num_phases=1, phase_rounds=1), seed=2)
        assert walks_cleanly(program)

    def test_minimal_nesting(self):
        program = build_program(spec_with(max_nesting=1), seed=3)
        assert walks_cleanly(program)

    def test_no_calls(self):
        program = build_program(spec_with(call_weight=0.0), seed=4)
        assert walks_cleanly(program)

    def test_no_loops(self):
        program = build_program(spec_with(loop_weight=0.0), seed=5)
        assert walks_cleanly(program)

    def test_switch_heavy(self):
        program = build_program(
            spec_with(switch_weight=0.6, if_weight=0.2, loop_weight=0.1,
                      call_weight=0.1, switch_fanout=6),
            seed=6,
        )
        assert walks_cleanly(program)

    def test_many_phases_tiny_budget(self):
        program = build_program(
            spec_with(num_phases=6, code_footprint_bytes=8 * 1024), seed=7
        )
        assert walks_cleanly(program)

    def test_deep_call_graph(self):
        program = build_program(
            spec_with(max_call_depth=8, code_footprint_bytes=32 * 1024,
                      call_weight=0.4),
            seed=8,
        )
        assert walks_cleanly(program, n=2000)


class TestLayoutInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_branch_pcs_strictly_increasing_and_aligned(self, seed):
        program = build_program(spec_with(code_footprint_bytes=8 * 1024), seed=seed)
        lowered = program.layout()
        pcs = lowered.sorted_pcs
        assert all(a < b for a, b in zip(pcs, pcs[1:], strict=False))
        assert all(pc % 4 == 0 for pc in pcs)

    @pytest.mark.parametrize("seed", range(6))
    def test_all_targets_resolve_to_branches_eventually(self, seed):
        """Every static target must have a next-branch (control cannot
        run off the end of the code)."""
        program = build_program(spec_with(code_footprint_bytes=8 * 1024), seed=seed)
        lowered = program.layout()
        for node in lowered.nodes.values():
            for target in node.targets:
                lowered.next_branch_at_or_after(target)  # must not raise

    def test_functions_do_not_overlap(self):
        program = build_program(spec_with(code_footprint_bytes=8 * 1024), seed=9)
        program.layout()
        spans = sorted(
            (f.entry_address, f.return_pc) for f in program.functions
        )
        for (_, end_a), (start_b, _) in zip(spans, spans[1:], strict=False):
            assert end_a < start_b
