"""Pre-tokenizer round-trip tests.

The batched fast path never walks :class:`FetchBlockStream`; it replays
the same reconstruction from the flat arrays :func:`tokenize_trace`
builds in one vectorized pass.  The property tests here pin the two
reconstructions together access-for-access — every fetch-region start,
cumulative instruction count, I-cache block access (with the exact
``pc=max(start_pc, block)`` the reference engine passes), BTB lookup,
conditional-branch outcome, and RAS operation.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.tokenizer import tokenize_trace
from repro.traces.record import BranchRecord, BranchType
from repro.traces.reconstruct import FetchBlockStream
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload

_RETURNING = frozenset({BranchType.RETURN})
_CALLS = frozenset({BranchType.CALL, BranchType.INDIRECT_CALL})


@st.composite
def record_lists(draw):
    """Branch-record streams that exercise every reconstruction path.

    Most records chain sequentially off the previous fall-through/target
    (small aligned gaps), with occasional deliberate resyncs: misaligned
    PCs, gaps past ``_MAX_SEQUENTIAL_GAP``, and backwards jumps.
    """
    n = draw(st.integers(min_value=0, max_value=80))
    records = []
    next_start = None
    for _ in range(n):
        kind = draw(st.sampled_from(list(BranchType)))
        taken = draw(st.booleans()) if kind is BranchType.CONDITIONAL else True
        mode = draw(st.integers(min_value=0, max_value=4))
        if next_start is None or mode == 0:
            pc = draw(st.integers(min_value=0, max_value=1 << 18)) * 4
        elif mode <= 2:
            pc = next_start + 4 * draw(st.integers(min_value=0, max_value=20))
        elif mode == 3:
            pc = next_start + draw(st.sampled_from([2, 4098, 8192]))
        else:
            pc = max(0, next_start - 4 * draw(st.integers(min_value=1, max_value=8)))
        target = draw(st.integers(min_value=0, max_value=1 << 18)) * 4
        record = BranchRecord(pc=pc, branch_type=kind, taken=taken, target=target)
        records.append(record)
        next_start = record.next_pc
    return records


def reference_reconstruction(records, block_size):
    """Walk :class:`FetchBlockStream` exactly as the reference engine does."""
    starts, cum, blocks, pcs, acc_end = [], [], [], [], []
    stream = FetchBlockStream(iter(records))
    for chunk in stream:
        starts.append(chunk.start_pc)
        cum.append(stream.instructions_seen)
        for block in chunk.block_addresses(block_size):
            blocks.append(block)
            pcs.append(max(chunk.start_pc, block))
        acc_end.append(len(blocks))
    return starts, cum, blocks, pcs, acc_end


class TestRoundTrip:
    @given(record_lists())
    @settings(max_examples=80, deadline=None)
    def test_fetch_stream_matches_reference_access_for_access(self, records):
        tokens = tokenize_trace(list(records))
        for block_size in (32, 64):
            starts, cum, blocks, pcs, acc_end = reference_reconstruction(
                records, block_size
            )
            assert tokens.start == starts
            assert tokens.instr_cum == cum
            got_blocks, got_pcs, got_end = tokens.access_view(block_size)
            assert got_blocks == blocks
            assert got_pcs == pcs
            assert got_end == acc_end

    @given(record_lists())
    @settings(max_examples=60, deadline=None)
    def test_branch_streams_match_reference(self, records):
        tokens = tokenize_trace(list(records))

        cond = [r for r in records if r.branch_type is BranchType.CONDITIONAL]
        assert tokens.cpc == [r.pc for r in cond]
        assert tokens.ctaken == [r.taken for r in cond]
        assert tokens.cond_end == list(
            itertools.accumulate(
                int(r.branch_type is BranchType.CONDITIONAL) for r in records
            )
        )

        # BTB stream: taken branches that install a target (returns use
        # the RAS instead), with the originating record index preserved.
        btb = [
            (i, r)
            for i, r in enumerate(records)
            if r.taken and r.branch_type not in _RETURNING
        ]
        assert tokens.bpc == [r.pc for _, r in btb]
        assert tokens.btarget == [r.target for _, r in btb]
        assert tokens.brec == [i for i, _ in btb]
        assert tokens.btb_end == list(
            itertools.accumulate(
                int(r.taken and r.branch_type not in _RETURNING) for r in records
            )
        )

        # RAS stream: calls push their return address, returns pop.
        ras = [r for r in records if r.branch_type in _CALLS | _RETURNING]
        assert tokens.rop == [r.branch_type in _CALLS for r in ras]
        assert tokens.rval == [
            r.pc + 4 if r.branch_type in _CALLS else r.target for r in ras
        ]
        assert tokens.ras_end == list(
            itertools.accumulate(
                int(r.branch_type in _CALLS | _RETURNING) for r in records
            )
        )

    @given(record_lists(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_seeded_continuation_matches_full_tokenization(self, records, data):
        """``next_start`` carries the stream across window boundaries.

        Tokenizing a suffix seeded with the preceding record's
        fall-through/target must reproduce the tail of the full
        tokenization exactly — this is what lets the engine re-tokenize
        mid-stream (e.g. after a snapshot restore) without drift.
        """
        if len(records) < 2:
            return
        k = data.draw(st.integers(min_value=1, max_value=len(records) - 1))
        full = tokenize_trace(list(records))
        tail = tokenize_trace(records[k:], next_start=records[k - 1].next_pc)

        assert tail.start == full.start[k:]
        base = full.instr_cum[k - 1]
        assert tail.instr_cum == [c - base for c in full.instr_cum[k:]]

        blocks_f, pcs_f, end_f = full.access_view(64)
        blocks_t, pcs_t, end_t = tail.access_view(64)
        cut = end_f[k - 1]
        assert blocks_t == blocks_f[cut:]
        assert pcs_t == pcs_f[cut:]
        assert end_t == [e - cut for e in end_f[k:]]

    def test_workload_trace_round_trips(self):
        # One real generated trace on top of the synthetic streams.
        workload = make_workload(
            "tok", Category.SHORT_SERVER, seed=2018, trace_scale=0.02
        )
        records = list(workload.records())
        tokens = tokenize_trace(records)
        starts, cum, blocks, pcs, acc_end = reference_reconstruction(records, 64)
        assert tokens.start == starts
        assert tokens.instr_cum == cum
        assert tokens.access_view(64) == (blocks, pcs, acc_end)

    def test_empty_and_single_record(self):
        empty = tokenize_trace([])
        assert empty.n == 0
        assert empty.access_view(64) == ([], [], [])
        assert empty.searchsorted_instructions(1) == 0

        record = BranchRecord(
            pc=0x1000, branch_type=BranchType.CONDITIONAL, taken=True, target=0x2000
        )
        tokens = tokenize_trace([record])
        assert tokens.start == [0x1000]  # no seed: resync at the branch
        assert tokens.instr_cum == [1]

    def test_tokens_stand_in_for_the_record_iterable(self):
        records = [
            BranchRecord(
                pc=0x40, branch_type=BranchType.UNCONDITIONAL, taken=True, target=0x80
            )
        ]
        tokens = tokenize_trace(records)
        assert len(tokens) == 1
        assert list(tokens) == records

    def test_searchsorted_matches_linear_scan(self):
        records = [
            BranchRecord(
                pc=0x100 * (i + 1),
                branch_type=BranchType.UNCONDITIONAL,
                taken=True,
                target=0x100 * (i + 2),
            )
            for i in range(8)
        ]
        tokens = tokenize_trace(records)
        for threshold in (0, 1, tokens.instr_cum[3], tokens.instr_cum[-1] + 5):
            linear = next(
                (
                    i
                    for i, c in enumerate(tokens.instr_cum)
                    if c >= threshold
                ),
                tokens.n,
            )
            assert tokens.searchsorted_instructions(threshold) == linear
