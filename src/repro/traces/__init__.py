"""CBP-5-style branch trace substrate.

The Championship Branch Prediction (CBP-5) infrastructure the paper builds on
records one event per *branch* — its PC, class, direction, and target — and
nothing for the sequential instructions in between.  This package provides:

- :mod:`repro.traces.record`: the in-memory branch record model,
- :mod:`repro.traces.io`: a compact binary trace format plus a human-readable
  text format, with streaming readers/writers,
- :mod:`repro.traces.reconstruct`: reconstruction of the fetch-block stream
  (the paper infers "the block address of every instruction fetch group" from
  the gaps between branches; so do we),
- :mod:`repro.traces.stats`: trace characterization used to bucket workloads.
"""

from repro.traces.record import BranchRecord, BranchType
from repro.traces.io import (
    TraceReader,
    TraceWriter,
    read_trace,
    read_trace_text,
    write_trace,
    write_trace_text,
)
from repro.traces.reconstruct import FetchBlockStream, FetchChunk
from repro.traces.stats import TraceSummary, summarize_trace

__all__ = [
    "BranchRecord",
    "BranchType",
    "TraceReader",
    "TraceWriter",
    "read_trace",
    "read_trace_text",
    "write_trace",
    "write_trace_text",
    "FetchBlockStream",
    "FetchChunk",
    "TraceSummary",
    "summarize_trace",
]
