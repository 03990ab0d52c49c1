"""Tests for the synthetic workload generator."""

import itertools
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.record import BranchType
from repro.traces.reconstruct import FetchBlockStream
from repro.traces.stats import summarize_trace
from repro.workloads.builder import build_program
from repro.workloads.program import (
    Call,
    If,
    Loop,
    LoweredProgram,
    Program,
    ProgramFunction,
    Run,
    Switch,
)
from repro.workloads.spec import Category, WorkloadSpec, spec_for_category
from repro.util.rng import derive_seed
from repro.experiments.content import cell_digest
from repro.frontend.config import FrontEndConfig
from repro.workloads.suite import Workload, make_suite, make_workload, workload_spec
from repro.workloads.walker import ProgramWalker

SRC = str(Path(__file__).resolve().parent.parent / "src")


def tiny_spec(**overrides):
    defaults = dict(
        category=Category.SHORT_MOBILE,
        code_footprint_bytes=8 * 1024,
        branch_budget=2000,
        num_phases=2,
        phase_rounds=3,
        max_call_depth=3,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestSpec:
    def test_presets_exist_for_all_categories(self):
        for category in Category:
            spec = spec_for_category(category)
            assert spec.category is category

    def test_server_bigger_than_mobile(self):
        mobile = spec_for_category(Category.SHORT_MOBILE)
        server = spec_for_category(Category.SHORT_SERVER)
        assert server.code_footprint_bytes > mobile.code_footprint_bytes

    def test_long_longer_than_short(self):
        short = spec_for_category(Category.SHORT_SERVER)
        long_ = spec_for_category(Category.LONG_SERVER)
        assert long_.branch_budget > short.branch_budget

    def test_scaled(self):
        spec = tiny_spec().scaled(trace_scale=0.5, footprint_scale=2.0)
        assert spec.branch_budget == 1000
        assert spec.code_footprint_bytes == 16 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(code_footprint_bytes=100)
        with pytest.raises(ValueError):
            tiny_spec(branch_budget=0)
        with pytest.raises(ValueError):
            tiny_spec(num_phases=0)
        with pytest.raises(ValueError):
            tiny_spec(shared_function_fraction=1.5)


class TestProgramLayout:
    def test_manual_program_layout(self):
        functions = [
            ProgramFunction(
                index=0,
                name="main",
                body=[Run(4), Loop(body=[Run(2)], trip_count=3), Call(callee=1)],
            ),
            ProgramFunction(index=1, name="leaf", body=[Run(3)]),
        ]
        program = Program(functions, base_address=0x1000)
        lowered = program.layout()
        assert functions[0].entry_address == 0x1000
        assert functions[1].entry_address > functions[0].return_pc
        assert lowered.code_size_bytes > 0
        # Every branch node pc must be instruction-aligned.
        assert all(pc % 4 == 0 for pc in lowered.nodes)

    def test_function_indices_validated(self):
        with pytest.raises(ValueError):
            Program([ProgramFunction(index=1, name="x", body=[Run(1)])])

    def test_if_lowering_targets(self):
        functions = [
            ProgramFunction(
                index=0, name="main",
                body=[If(bias=0.5, then_body=[Run(2)], else_body=[Run(3)])],
            )
        ]
        lowered = Program(functions, base_address=0).layout()
        cond = next(n for n in lowered.nodes.values() if n.kind == "cond-coin")
        jump = next(n for n in lowered.nodes.values() if n.kind == "jump")
        assert cond.targets[0] > cond.pc          # forward skip to else
        assert jump.targets[0] > jump.pc          # then exits over else

    def test_switch_lowering(self):
        functions = [
            ProgramFunction(
                index=0, name="main",
                body=[Switch(cases=[[Run(1)], [Run(2)]], weights=[1.0, 1.0])],
            )
        ]
        lowered = Program(functions, base_address=0).layout()
        indirect = next(n for n in lowered.nodes.values() if n.kind == "indirect")
        assert len(indirect.targets) == 2
        jumps = [n for n in lowered.nodes.values() if n.kind == "jump"]
        assert len(jumps) == 2
        assert len({j.targets[0] for j in jumps}) == 1  # common join point

    def test_next_branch_lookup(self):
        functions = [ProgramFunction(index=0, name="main", body=[Run(10)])]
        lowered = Program(functions, base_address=0).layout()
        node = lowered.next_branch_at_or_after(0)
        assert node.kind == "return"

    def test_statement_validation(self):
        with pytest.raises(ValueError):
            Run(-1)
        with pytest.raises(ValueError):
            If(bias=1.5, then_body=[])
        with pytest.raises(ValueError):
            Loop(body=[], trip_count=0)
        with pytest.raises(ValueError):
            Switch(cases=[], weights=[])


class TestBuilder:
    def test_deterministic(self):
        spec = tiny_spec()
        a = build_program(spec, seed=5)
        b = build_program(spec, seed=5)
        assert a.layout().code_size_bytes == b.layout().code_size_bytes
        assert len(a.functions) == len(b.functions)

    def test_different_seeds_differ(self):
        spec = tiny_spec()
        a = build_program(spec, seed=5)
        b = build_program(spec, seed=6)
        assert a.layout().sorted_pcs != b.layout().sorted_pcs

    def test_footprint_near_target(self):
        spec = tiny_spec(code_footprint_bytes=32 * 1024)
        program = build_program(spec, seed=1)
        assert 0.5 <= program.layout().code_size_bytes / spec.code_footprint_bytes <= 2.5

    def test_main_is_function_zero(self):
        program = build_program(tiny_spec(), seed=1)
        main = program.functions[0]
        assert main.name == "main"
        assert program.layout().main_entry == main.entry_address

    def test_call_graph_targets_valid(self):
        program = build_program(tiny_spec(), seed=2)
        lowered = program.layout()
        entries = set(lowered.entry_addresses.values())
        for node in lowered.nodes.values():
            if node.kind in ("call", "indirect-call"):
                assert set(node.targets) <= entries


class TestWalker:
    def test_exact_budget(self):
        program = build_program(tiny_spec(), seed=3)
        records = list(ProgramWalker(program.layout(), seed=1).records(500))
        assert len(records) == 500

    def test_deterministic_replay(self):
        program = build_program(tiny_spec(), seed=3)
        a = list(ProgramWalker(program.layout(), seed=1).records(500))
        b = list(ProgramWalker(program.layout(), seed=1).records(500))
        assert a == b

    def test_calls_and_returns_balance(self):
        program = build_program(tiny_spec(), seed=3)
        records = list(ProgramWalker(program.layout(), seed=1).records(3000))
        calls = sum(1 for r in records if r.branch_type.is_call)
        returns = sum(1 for r in records if r.branch_type.is_return)
        assert abs(calls - returns) <= 64  # bounded by live stack depth

    def test_returns_target_call_sites(self):
        program = build_program(tiny_spec(), seed=3)
        records = ProgramWalker(program.layout(), seed=1).records(3000)
        stack = []
        for record in records:
            if record.branch_type.is_call:
                stack.append(record.pc + 4)
            elif record.branch_type.is_return and stack:
                assert record.target == stack.pop()

    def test_reconstructable(self):
        """The walker's output must reconstruct without resyncs: targets
        and fall-throughs are always consistent."""
        program = build_program(tiny_spec(), seed=4)
        stream = FetchBlockStream(ProgramWalker(program.layout(), seed=1).records(3000))
        for _ in stream:
            pass
        assert stream.resync_count == 0

    def test_counted_loops_have_exact_trips(self):
        functions = [
            ProgramFunction(
                index=0, name="main", body=[Loop(body=[Run(1)], trip_count=4)]
            )
        ]
        program = Program(functions, base_address=0)
        records = list(ProgramWalker(program.layout(), seed=1).records(8))
        # Pattern per program run: T T T N (4 iterations) then restart.
        loop_records = [r for r in records if r.branch_type is BranchType.CONDITIONAL]
        directions = [r.taken for r in loop_records[:4]]
        assert directions == [True, True, True, False]

    def test_rejects_nonpositive_limit(self):
        program = build_program(tiny_spec(), seed=3)
        with pytest.raises(ValueError):
            list(ProgramWalker(program.layout(), seed=1).records(0))


class TestSuite:
    def test_workload_replay_is_identical(self):
        workload = make_workload("w", Category.SHORT_MOBILE, seed=1, trace_scale=0.05)
        assert list(workload.records(200)) == list(workload.records(200))

    def test_suite_is_deterministic(self):
        mix = {Category.SHORT_MOBILE: 2}
        a = make_suite(base_seed=1, mix=mix, trace_scale=0.05)
        b = make_suite(base_seed=1, mix=mix, trace_scale=0.05)
        assert [w.name for w in a] == [w.name for w in b]
        assert list(a[0].records(100)) == list(b[0].records(100))

    def test_jitter_varies_workloads(self):
        mix = {Category.SHORT_SERVER: 3}
        suite = make_suite(base_seed=1, mix=mix, trace_scale=0.05)
        footprints = {w.code_footprint_bytes for w in suite}
        assert len(footprints) == 3

    def test_instruction_count_cached(self):
        workload = make_workload("w", Category.SHORT_MOBILE, seed=1, trace_scale=0.02)
        count = workload.instruction_count()
        assert count > 0
        assert workload.instruction_count() == count

    def test_category_stats_match_intent(self):
        mobile = make_workload("m", Category.SHORT_MOBILE, seed=9, jitter=False)
        server = make_workload("s", Category.SHORT_SERVER, seed=9, jitter=False)
        assert server.code_footprint_bytes > mobile.code_footprint_bytes

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_any_seed_walks_cleanly(self, seed):
        workload = make_workload("w", Category.SHORT_MOBILE, seed=seed, trace_scale=0.02)
        summary = summarize_trace(workload.records(1500))
        assert summary.branch_count == 1500
        assert 0.0 < summary.taken_fraction < 1.0


class TestIdentityOnlyWorkload:
    """``Workload(name, workload_spec(...), seed)`` is ``make_workload``'s
    workload with the program build deferred to first use; either one,
    once built, keeps only the lowered program."""

    @pytest.mark.parametrize("jitter", [True, False])
    @pytest.mark.parametrize("category", list(Category))
    def test_matches_make_workload(self, category, jitter):
        args = dict(trace_scale=0.02, footprint_scale=0.3, jitter=jitter)
        built = make_workload("w", category, seed=11, **args)
        lazy = Workload("w", workload_spec("w", category, seed=11, **args), 11)
        config = FrontEndConfig()
        digest = cell_digest(built, "ghrp", config)
        assert lazy == built
        assert cell_digest(lazy, "ghrp", config) == digest
        assert lazy._lowered is None  # equality and digests read identity only
        clone = pickle.loads(pickle.dumps(lazy, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == built and clone._lowered is None
        assert list(lazy.records()) == list(built.records())
        assert lazy.instruction_count() == built.instruction_count()
        assert lazy.code_footprint_bytes == built.code_footprint_bytes
        assert list(clone.records()) == list(built.records())
        # Built, both hold the lowered graph alone, with the same digest.
        assert type(built._lowered) is LoweredProgram
        assert type(lazy._lowered) is LoweredProgram
        assert cell_digest(lazy, "ghrp", config) == digest
        built_clone = pickle.loads(
            pickle.dumps(built, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert built_clone == built
        assert type(built_clone._lowered) is LoweredProgram
        assert list(built_clone.records()) == list(built.records())
        assert built_clone.code_footprint_bytes == built.code_footprint_bytes

    def test_built_workloads_keep_no_statement_tree(self):
        """No statement-tree node outlives a build, for every category with
        jitter on and off.  Counted in a fresh interpreter, where no other
        test's programs are alive."""
        script = textwrap.dedent("""
            import gc
            from repro.workloads import program
            from repro.workloads.spec import Category
            from repro.workloads.suite import make_workload

            tree = (program.Run, program.If, program.Loop, program.Call,
                    program.IndirectCall, program.Switch,
                    program.ProgramFunction, program.Program)
            workloads = [
                make_workload(f"w{i}", category, seed=11, trace_scale=0.02,
                              footprint_scale=0.3, jitter=jitter)
                for i, (category, jitter) in enumerate(
                    (c, j) for c in Category for j in (True, False))
            ]
            gc.collect()
            objects = gc.get_objects()
            print(sum(isinstance(o, tree) for o in objects),
                  sum(isinstance(o, program.BranchNode) for o in objects))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        tree_nodes, branch_nodes = map(int, child.stdout.split())
        assert tree_nodes == 0
        assert branch_nodes > 0  # the workloads were built

    def test_program_is_built_once(self):
        workload = Workload("w", workload_spec("w", Category.SHORT_MOBILE, 3), 3)
        assert workload.lowered is workload.lowered

    def test_make_workload_builds_up_front(self):
        workload = make_workload("w", Category.SHORT_MOBILE, seed=3, trace_scale=0.02)
        assert workload._lowered is not None


class TestRecordMemo:
    """``Workload.records()`` walks once, then replays the walker exactly."""

    @staticmethod
    def walked(workload, limit=None):
        walker = ProgramWalker(workload.lowered, derive_seed(workload.seed, "walk"))
        return list(walker.records(limit or workload.spec.branch_budget))

    @pytest.fixture()
    def workload(self):
        return make_workload("w", Category.SHORT_SERVER, seed=4, trace_scale=0.02)

    def test_full_budget_replays_the_walk(self, workload):
        expected = self.walked(workload)
        first = list(workload.records())
        assert first == expected
        assert workload._records is not None
        replay = list(workload.records())
        assert replay == expected
        # The replay hands out the memoized objects, not fresh ones.
        assert all(a is b for a, b in zip(first, replay, strict=True))
        assert list(workload.records(workload.spec.branch_budget)) == expected

    def test_memo_interns_one_object_per_distinct_record(self, workload):
        records = list(workload.records())
        assert len({id(r) for r in records}) == len(set(records)) < len(records)

    def test_shorter_limit_walks_and_is_not_memoized(self, workload):
        limit = workload.spec.branch_budget // 3
        assert list(workload.records(limit)) == self.walked(workload, limit)
        assert workload._records is None
        list(workload.records())
        assert list(workload.records(limit)) == self.walked(workload, limit)

    def test_abandoned_first_walk_leaves_no_memo(self, workload):
        stream = workload.records()
        next(stream)
        stream.close()
        assert workload._records is None
        assert list(workload.records()) == self.walked(workload)

    def test_islice_resume_matches_the_walk(self, workload):
        expected = self.walked(workload)
        list(workload.records())
        for branches_seen in (0, 1, 617, len(expected) - 1, len(expected)):
            resumed = itertools.islice(workload.records(), branches_seen, None)
            assert list(resumed) == expected[branches_seen:]

    def test_instruction_count_uses_the_memo(self, workload):
        count = workload.instruction_count()
        assert workload._records is not None
        stream = FetchBlockStream(iter(self.walked(workload)))
        for _ in stream:
            pass
        assert count == stream.instructions_seen

    def test_pickled_walked_workload_replays(self, workload):
        expected = list(workload.records())
        clone = pickle.loads(pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL))
        assert (clone.name, clone.seed, clone.spec) == (
            workload.name, workload.seed, workload.spec)
        assert list(clone.records()) == expected
        assert list(clone.records(100)) == expected[:100]
        fresh = pickle.loads(pickle.dumps(
            make_workload("w", Category.SHORT_SERVER, seed=4, trace_scale=0.02)
        ))
        assert list(fresh.records()) == expected
