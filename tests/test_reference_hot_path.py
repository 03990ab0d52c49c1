"""The reference engine's hot path keeps its results.

The reference engine runs every cell whose policy has no batch kernel,
so its per-branch and per-access work is kept lean: a fused perceptron
``predict_and_update``, plain (non-frozen) slotted value types, and
locally bound calls in the record loop.  None of that may change a
result.  Pinned here:

- the fused perceptron call leaves exactly the state that ``predict``
  then ``update`` leave, for generated predictor shapes, and its table
  indices are the documented ``mix64`` hash of the history segments;
- the four per-access value types keep their fields, equality and
  pickling;
- a small grid's ``grid_signature`` on both engines equals the value
  computed before the hot path was reworked, and so does a grid on
  structures small enough that every policy's victim choice shows in
  its misses.
"""

import pickle
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.base import BranchDirectionPredictor
from repro.branch.perceptron import HashedPerceptronPredictor
from repro.btb.btb import BTBResult
from repro.cache.policy_api import AccessContext
from repro.cache.set_assoc import AccessResult
from repro.experiments.content import grid_signature
from repro.experiments.runner import run_grid
from repro.frontend.config import FrontEndConfig
from repro.policies.registry import PAPER_POLICIES
from repro.traces.reconstruct import FetchChunk
from repro.traces.record import BranchRecord, BranchType
from repro.util.bits import mask
from repro.util.hashing import mix64
from repro.workloads.spec import Category
from repro.workloads.suite import make_suite


def predictor_state(predictor: HashedPerceptronPredictor) -> tuple:
    return (
        predictor._weights,
        predictor._outcome_history,
        predictor._path_history,
        predictor._last_sum,
        predictor._last_indices,
        predictor.stats.predictions,
        predictor.stats.mispredictions,
    )


def mix64_indices(predictor: HashedPerceptronPredictor, pc: int) -> tuple[int, ...]:
    """Table indices spelled out with :func:`mix64`, one call per segment."""
    pc_hash = (pc >> 2) & ((1 << 30) - 1)
    entries_mask = predictor._entries_mask
    indices = [pc_hash & entries_mask]
    for end in predictor._segments:
        outcome_segment = predictor._outcome_history & mask(end)
        path_segment = predictor._path_history & mask(min(end, predictor.path_bits))
        hashed = mix64(outcome_segment ^ (path_segment << 1), tweak=end) ^ pc_hash
        indices.append(hashed & entries_mask)
    return tuple(indices)


shapes = st.fixed_dictionaries(
    {
        "num_tables": st.integers(2, 9),
        "table_entries": st.sampled_from([16, 256, 4096]),
        "history_bits": st.integers(9, 64),
        "path_bits": st.integers(1, 64),
        "weight_bits": st.integers(2, 8),
        "theta": st.one_of(st.none(), st.integers(0, 40)),
    }
)

# A narrow PC range makes branches share weights, so training saturates.
branch_streams = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 63).map(lambda i: 0x4000 + 4 * i),
                  st.integers(0, (1 << 40) - 1)),
        st.booleans(),
    ),
    max_size=150,
)


class TestFusedPerceptron:
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, stream=branch_streams, dangling=st.lists(st.booleans()))
    def test_fused_call_equals_predict_then_update(self, shape, stream, dangling):
        fused = HashedPerceptronPredictor(**shape)
        split = HashedPerceptronPredictor(**shape)
        for i, (pc, taken) in enumerate(stream):
            if i < len(dangling) and dangling[i]:
                # An unanswered predict() leaves a cached lookup behind;
                # the next branch must not reuse it.
                fused.predict(pc ^ 0x40)
                split.predict(pc ^ 0x40)
            expected = BranchDirectionPredictor.predict_and_update(split, pc, taken)
            assert fused.predict_and_update(pc, taken) == expected
            assert predictor_state(fused) == predictor_state(split)
        assert fused._last_indices is None

    @settings(max_examples=40, deadline=None)
    @given(stream=branch_streams)
    def test_default_shape_equals_predict_then_update(self, stream):
        fused = HashedPerceptronPredictor()
        split = HashedPerceptronPredictor()
        for pc, taken in stream:
            expected = BranchDirectionPredictor.predict_and_update(split, pc, taken)
            assert fused.predict_and_update(pc, taken) == expected
        assert predictor_state(fused) == predictor_state(split)

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, stream=branch_streams)
    def test_indices_are_the_mix64_hash_of_the_segments(self, shape, stream):
        predictor = HashedPerceptronPredictor(**shape)
        for pc, taken in stream:
            expected = mix64_indices(predictor, pc)
            predictor.predict(pc)
            assert predictor._last_indices == expected
            assert predictor._last_sum == sum(
                predictor._weights[t][i] for t, i in enumerate(expected)
            )
            predictor.update(pc, taken)

    def test_update_without_predict_recomputes_the_lookup(self):
        fused = HashedPerceptronPredictor(num_tables=4, table_entries=64)
        split = HashedPerceptronPredictor(num_tables=4, table_entries=64)
        for i in range(200):
            pc, taken = 0x4000 + 4 * (i % 7), i % 3 != 0
            fused.predict_and_update(pc, taken)
            split.update(pc, taken)
        assert fused._weights == split._weights
        assert fused._outcome_history == split._outcome_history
        assert fused._path_history == split._path_history
        assert fused._last_sum == split._last_sum


_BRANCH = BranchRecord(0x1010, BranchType.CONDITIONAL, True, 0x2000)

# (type, field names, one value, a value differing in the last field)
VALUE_TYPES = [
    (AccessContext, ("address", "pc"), (0x40, 0x44), (0x40, 0x48)),
    (AccessResult, ("hit", "bypassed", "set_index", "way", "victim_address"),
     (False, False, 3, 1, 0x1C0), (False, False, 3, 1, None)),
    (BTBResult, ("hit", "bypassed", "predicted_target", "target_correct"),
     (True, False, 0x2000, True), (True, False, 0x2000, False)),
    (FetchChunk, ("start_pc", "branch"), (0x1000, _BRANCH),
     (0x1000, BranchRecord(0x1010, BranchType.CONDITIONAL, False, 0x2000))),
]


class TestValueTypes:
    def test_fields_equality_and_pickling(self):
        for cls, names, values, other in VALUE_TYPES:
            assert tuple(f.name for f in fields(cls)) == names
            value = cls(*values)
            assert value == cls(**dict(zip(names, values)))
            assert value != cls(*other)
            restored = pickle.loads(pickle.dumps(value))
            assert type(restored) is cls and restored == value
            assert repr(restored) == repr(value)

    def test_fetch_chunk_still_validates(self):
        with pytest.raises(ValueError):
            FetchChunk(start_pc=0x1020, branch=_BRANCH)
        with pytest.raises(ValueError):
            FetchChunk(start_pc=0x1002, branch=_BRANCH)


class TestGridSignaturePin:
    """Paper policies at trace scale 0.05, pinned on both engines.

    ``EXPECTED`` covers the first 4 seed-suite workloads at the paper
    geometry, computed before the hot path was reworked; neither
    structure fills there, so it sees no victim choice.
    ``SMALL_EXPECTED`` covers 2 short-server workloads on an 8 KB 4-way
    I-cache and a 256-entry 4-way BTB, computed before the GHRP and LRU
    kernels were folded into one loop body each; there every policy
    evicts, and no two policies miss alike.
    """

    EXPECTED = {
        "reference": "a2108165414931724d60b1ee9bf60867d5379b182e947055edb3fd21cef9bbc4",
        "fast": "c3c1117c756274d19bd7c91bf80d8c8d9ddd153a8907dbd15c9a6fc99080ae51",
    }

    def test_both_engines_match_the_pinned_signature(self):
        # The default suite opens with its short-mobile workloads, so this
        # mix builds exactly make_suite(2018, trace_scale=0.05)[:4].
        workloads = make_suite(
            2018, mix={Category.SHORT_MOBILE: 4}, trace_scale=0.05
        )
        for engine, expected in self.EXPECTED.items():
            grid = run_grid(workloads, PAPER_POLICIES, engine=engine)
            assert grid_signature(grid) == expected, engine

    SMALL_EXPECTED = {
        "reference": "12033f12777a05aa8bba3d1e91eea5cc8e91098e4b014a96efd1087d781bbbc7",
        "fast": "62fd763dc62a38cf3489c3a1a4824e0d6d843c032818ebefa0f8bdd6a2a87ebd",
    }

    def test_small_structures_match_the_pinned_signature(self):
        config = FrontEndConfig(
            icache_bytes=8 * 1024, icache_assoc=4, btb_entries=256, btb_assoc=4
        )
        workloads = make_suite(
            2018, mix={Category.SHORT_SERVER: 2}, trace_scale=0.05
        )
        for engine, expected in self.SMALL_EXPECTED.items():
            grid = run_grid(workloads, PAPER_POLICIES, config=config, engine=engine)
            for workload in workloads:
                misses = {
                    (cell.icache_misses, cell.btb_misses)
                    for cell in grid.cells
                    if cell.workload == workload.name
                }
                # A pin that cannot tell the policies apart sees no victim.
                assert len(misses) == len(PAPER_POLICIES), workload.name
            assert grid_signature(grid) == expected, engine
