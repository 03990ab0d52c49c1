"""Tests for the trace substrate: records, I/O, reconstruction, stats."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces.io import (
    TraceFormatError,
    read_trace,
    read_trace_text,
    write_trace,
    write_trace_text,
)
from repro.traces.record import BranchRecord, BranchType
from repro.traces.reconstruct import FetchBlockStream, FetchChunk
from repro.traces.stats import summarize_trace


def _branch(pc, taken=True, target=0x2000, branch_type=BranchType.CONDITIONAL):
    return BranchRecord(pc=pc, branch_type=branch_type, taken=taken, target=target)


branch_records = st.builds(
    BranchRecord,
    pc=st.integers(min_value=0, max_value=2**40).map(lambda v: v & ~3),
    branch_type=st.sampled_from(list(BranchType)),
    taken=st.just(True),
    target=st.integers(min_value=0, max_value=2**40).map(lambda v: v & ~3),
)


class TestBranchRecord:
    def test_next_pc_taken(self):
        assert _branch(0x1000, taken=True, target=0x3000).next_pc == 0x3000

    def test_next_pc_not_taken(self):
        assert _branch(0x1000, taken=False).next_pc == 0x1004

    def test_unconditional_must_be_taken(self):
        with pytest.raises(ValueError):
            BranchRecord(0x0, BranchType.UNCONDITIONAL, False, 0x10)

    def test_negative_pc_rejected(self):
        with pytest.raises(ValueError):
            BranchRecord(-4, BranchType.CONDITIONAL, True, 0x10)

    def test_type_predicates(self):
        assert BranchType.CONDITIONAL.is_conditional
        assert BranchType.CALL.is_call
        assert BranchType.INDIRECT_CALL.is_call
        assert BranchType.RETURN.is_return
        assert not BranchType.RETURN.uses_btb
        assert BranchType.CONDITIONAL.uses_btb


class TestBinaryIO:
    def test_roundtrip(self, tmp_path):
        records = [
            _branch(0x1000),
            _branch(0x1010, taken=False),
            _branch(0x1020, branch_type=BranchType.CALL, target=0x8000),
            _branch(0x8004, branch_type=BranchType.RETURN, target=0x1024),
        ]
        path = tmp_path / "t.trace"
        assert write_trace(path, records) == 4
        assert list(read_trace(path)) == records

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        write_trace(path, [])
        assert list(read_trace(path)) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"XXXX\x01\x00\x00\x00")
        with pytest.raises(TraceFormatError):
            list(read_trace(path))

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.trace"
        write_trace(path, [_branch(0x1000)])
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TraceFormatError):
            list(read_trace(path))

    @given(st.lists(branch_records, max_size=40))
    def test_roundtrip_property(self, records):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.trace"
            write_trace(path, records)
            assert list(read_trace(path)) == records


class TestTextIO:
    def test_roundtrip_via_stream(self):
        records = [_branch(0x1000), _branch(0x1010, taken=False)]
        buffer = io.StringIO()
        write_trace_text(buffer, records)
        buffer.seek(0)
        assert list(read_trace_text(buffer)) == records

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n0x1000 CONDITIONAL T 0x2000\n"
        records = list(read_trace_text(io.StringIO(text)))
        assert len(records) == 1
        assert records[0].pc == 0x1000

    def test_bad_direction_rejected(self):
        with pytest.raises(TraceFormatError):
            list(read_trace_text(io.StringIO("0x1000 CONDITIONAL X 0x2000\n")))

    def test_bad_type_rejected(self):
        with pytest.raises(TraceFormatError):
            list(read_trace_text(io.StringIO("0x1000 NOPE T 0x2000\n")))

    def test_wrong_field_count_rejected(self):
        with pytest.raises(TraceFormatError):
            list(read_trace_text(io.StringIO("0x1000 CONDITIONAL T\n")))


class TestFetchChunk:
    def test_instruction_count(self):
        chunk = FetchChunk(start_pc=0x1000, branch=_branch(0x1010))
        assert chunk.instruction_count == 5

    def test_single_instruction_chunk(self):
        chunk = FetchChunk(start_pc=0x1000, branch=_branch(0x1000))
        assert chunk.instruction_count == 1

    def test_start_after_branch_rejected(self):
        with pytest.raises(ValueError):
            FetchChunk(start_pc=0x2000, branch=_branch(0x1000))

    def test_block_addresses_cover_span(self):
        chunk = FetchChunk(start_pc=0x1000 - 8, branch=_branch(0x1010))
        blocks = list(chunk.block_addresses(64))
        assert blocks == [0xFC0, 0x1000]

    def test_block_addresses_single_block(self):
        chunk = FetchChunk(start_pc=0x1004, branch=_branch(0x1014))
        assert list(chunk.block_addresses(64)) == [0x1000]

    def test_instruction_pcs(self):
        chunk = FetchChunk(start_pc=0x1000, branch=_branch(0x1008))
        assert list(chunk.instruction_pcs()) == [0x1000, 0x1004, 0x1008]


class TestFetchBlockStream:
    def test_sequential_reconstruction(self):
        # branch at 0x1010 taken to 0x2000; next branch at 0x2008.
        records = [
            _branch(0x1010, taken=True, target=0x2000),
            _branch(0x2008, taken=False),
        ]
        chunks = list(FetchBlockStream(records))
        assert chunks[0].start_pc == chunks[0].branch.pc  # first chunk resyncs at pc
        assert chunks[1].start_pc == 0x2000
        assert chunks[1].instruction_count == 3

    def test_not_taken_continues_sequentially(self):
        records = [
            _branch(0x1000, taken=False),
            _branch(0x100C, taken=True),
        ]
        chunks = list(FetchBlockStream(records))
        assert chunks[1].start_pc == 0x1004
        assert chunks[1].instruction_count == 3

    def test_instruction_accounting(self):
        records = [_branch(0x1000, taken=False), _branch(0x1008, taken=False)]
        stream = FetchBlockStream(records)
        list(stream)
        assert stream.branches_seen == 2
        assert stream.instructions_seen == 1 + 2

    def test_resync_on_giant_gap(self):
        records = [
            _branch(0x1000, taken=True, target=0x2000),
            _branch(0x900000, taken=False),  # unbelievable sequential run
        ]
        stream = FetchBlockStream(records)
        chunks = list(stream)
        assert chunks[1].start_pc == 0x900000
        assert stream.resync_count == 1

    def test_resync_on_backward_gap(self):
        records = [
            _branch(0x1000, taken=True, target=0x2000),
            _branch(0x1500, taken=False),  # before the expected 0x2000
        ]
        stream = FetchBlockStream(records)
        chunks = list(stream)
        assert chunks[1].start_pc == 0x1500
        assert stream.resync_count == 1


class TestSummarize:
    def test_basic_summary(self):
        records = [
            _branch(0x1000, taken=True, target=0x2000),
            _branch(0x2010, taken=False),
            _branch(0x2020, branch_type=BranchType.CALL, target=0x4000),
        ]
        summary = summarize_trace(records)
        assert summary.branch_count == 3
        assert summary.taken_count == 2
        assert summary.unique_branch_pcs == 3
        assert summary.branch_type_counts[BranchType.CALL] == 1
        assert summary.code_footprint_bytes == summary.unique_blocks_64b * 64
        assert 0 < summary.taken_fraction < 1

    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary.branch_count == 0
        assert summary.taken_fraction == 0.0
        assert summary.avg_run_length == 0.0
        assert summary.branch_density == 0.0
