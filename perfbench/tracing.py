"""Spans and counts around the simulator's public entry points.

The traced run of each workload installs wrappers over the functions
listed in :data:`WRAP_POINTS`.  Each wrapper is bound where its caller
looks the name up (``tokenize_trace`` inside ``repro.kernel.engine``,
``cell_digest`` inside ``repro.experiments.scheduler``, methods on their
classes), so the program itself is never edited.  Untraced runs install
nothing; :func:`assert_unwrapped` proves it before they time anything.

Every call becomes a span (name, start, end, parent, thread) kept in
memory and written out when the run ends.  Draining a workload's record
stream is too fine-grained for one span per record, so its time is
accumulated per thread and charged to whichever span consumed the
record; that keeps every parent's self time honest.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

#: (module, attribute path, span name).  The attribute path is either a
#: module-level function (looked up through that module's globals by its
#: caller) or ``Class.method``.
WRAP_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.workloads.suite", "make_workload", "workloads.build"),
    ("repro.service.jobs", "make_workload", "workloads.build"),
    ("repro.service.jobs", "JobSpec.build_workloads", "workloads.build_jobs"),
    ("repro.workloads.suite", "Workload.records", "workloads.walk"),
    ("repro.workloads.suite", "Workload.instruction_count", "traces.reconstruct"),
    ("repro.kernel.engine", "tokenize_trace", "kernel.tokenize"),
    ("repro.experiments.runner", "build_frontend", "frontend.build"),
    ("repro.experiments.snapshots", "build_frontend", "frontend.build"),
    ("repro.experiments.scheduler", "run_cell_snapshotted", "engine.cell"),
    ("repro.experiments.scheduler", "SweepScheduler.run", "experiments.sweep"),
    ("repro.experiments.scheduler", "cell_digest", "experiments.digest"),
    ("repro.experiments.snapshots", "warmup_digest", "experiments.digest"),
    ("repro.service.manager", "grid_signature", "experiments.digest"),
    ("repro.experiments.cellcache", "CellCache.put", "experiments.cache_put"),
    ("repro.experiments.cellcache", "CellCache.get", "experiments.cache_get"),
    ("repro.experiments.journal", "CellJournal.append", "experiments.journal_append"),
    ("repro.experiments.cellcache", "SnapshotStore.save", "experiments.snapshot_save"),
    ("repro.experiments.cellcache", "SnapshotStore.load", "experiments.snapshot_load"),
    ("repro.service.client", "ServiceClient.submit", "service.submit"),
    ("repro.service.client", "ServiceClient.wait", "service.wait"),
    ("repro.service.client", "ServiceClient.status", "service.poll"),
    ("repro.service.client", "ServiceClient.result", "service.result"),
    ("repro.service.manager", "JobManager.execute", "service.execute"),
    ("repro.service.jobs", "JobStore.append", "service.journal_append"),
    ("repro.service.jobs", "JobStore.put_result", "service.result_put"),
)

#: Marker set on every wrapper so untraced runs can prove they run none.
_MARK = "__perfbench_wrapped__"

#: Span names whose call returns the record iterator to be drained.
_ITERATOR_SPANS = frozenset({"workloads.walk"})


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: str
    start: float
    end: float = 0.0
    #: Time covered by direct children (spans and drained records).
    child_s: float = 0.0
    #: Small facts the metrics need (policy, fallback, hit/miss).
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """In-memory span and count recorder, safe across threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: (thread, name) -> [seconds, records] spent draining iterators.
        self._drained: dict[tuple[str, str], list] = {}
        #: thread -> [seconds] drained while no wrapped call was open.
        self._orphan_drained: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, inspect=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            id=next(self._ids), name=name,
            parent=parent.id if parent is not None else None,
            thread=threading.current_thread().name,
            start=time.perf_counter(),
        )
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.duration
            with self._lock:
                self.spans.append(span)
                self.counts[name] += 1
        if inspect is not None:
            span.info = inspect(args, kwargs, result)
        return result

    def drain(self, name: str, iterator):
        """Yield from ``iterator``, charging each ``next`` to ``name``."""
        thread = threading.current_thread().name
        stack = self._stack()
        with self._lock:
            total = self._drained.setdefault((thread, name), [0.0, 0])
            orphan = self._orphan_drained.setdefault(thread, [0.0])
        clock = time.perf_counter
        while True:
            started = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                seconds = clock() - started
                total[0] += seconds
                if stack:
                    stack[-1].child_s += seconds
                else:
                    orphan[0] += seconds
            total[1] += 1
            yield item

    # -- summaries --------------------------------------------------------
    def self_seconds(self, thread: str | None = None) -> dict[str, float]:
        """Self time per span name (drained record time included)."""
        totals: defaultdict[str, float] = defaultdict(float)
        for span in self.spans:
            if thread is None or span.thread == thread:
                totals[span.name] += span.self_s
        for (span_thread, name), (seconds, _records) in self._drained.items():
            if thread is None or span_thread == thread:
                totals[name] += seconds
        return dict(totals)

    def drained_records(self, name: str) -> int:
        return sum(n for (_t, key), (_s, n) in self._drained.items() if key == name)

    def covered_seconds(self, thread: str) -> float:
        """Wall time on ``thread`` inside any wrapped call."""
        return sum(
            span.duration for span in self.spans
            if span.thread == thread and span.parent is None
        ) + self._orphan_drained.get(thread, [0.0])[0]

    def dump(self) -> dict:
        """Every span and count, as written out at the end of a run."""
        return {
            "spans": [
                [s.id, s.name, s.parent, s.thread, s.start, s.end, s.info]
                for s in self.spans
            ],
            "span_fields": ["id", "name", "parent", "thread", "start", "end", "info"],
            "counts": dict(self.counts),
            "drained": {f"{t}/{n}": v for (t, n), v in self._drained.items()},
        }


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner = module
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _inspector(name: str):
    """What to remember from a call's arguments and result, per span."""
    if name == "engine.cell":
        # run_cell_snapshotted(workload, policy, ...) -> (CellResult, note)
        def inspect(args, kwargs, result):
            return {
                "policy": args[1],
                "workload": args[0].name,
                "fallback": result[0].fast_path_fallback_reason,
            }
        return inspect
    if name in ("experiments.cache_get", "experiments.snapshot_load"):
        return lambda args, kwargs, result: {"hit": result is not None}
    if name == "experiments.snapshot_save":
        return lambda args, kwargs, result: {"wrote": bool(result)}
    return None


def _make_wrapper(tracer: Tracer, name: str, original):
    inspect = _inspector(name)
    if name in _ITERATOR_SPANS:
        def wrapper(*args, **kwargs):
            iterator = tracer.call(name + ".open", original, args, kwargs)
            return tracer.drain(name, iter(iterator))
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, inspect)
    functools.update_wrapper(wrapper, original)
    setattr(wrapper, _MARK, True)
    return wrapper


class Installed:
    """The wrappers of one traced run; :meth:`remove` restores originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        # Resolve every point before wrapping any: importing a module can
        # bind a name another point wraps (``repro.service.jobs`` imports
        # ``make_workload``), and it must bind the original.
        points = [(*_resolve(module_name, path), name)
                  for module_name, path, name in WRAP_POINTS]
        self._saved = [(owner, attr, getattr(owner, attr))
                       for owner, attr, _name in points]
        for (owner, attr, original), (_o, _a, name) in zip(
                self._saved, points, strict=True):
            setattr(owner, attr, _make_wrapper(tracer, name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def wrapped_points() -> list[str]:
    """Every wrap point currently bound to a wrapper (empty when untraced).

    Only modules already imported are looked at: a wrapper cannot sit in
    a module nobody loaded, and importing one here would move its import
    cost out of the region being timed.
    """
    found = []
    for module_name, path, _name in WRAP_POINTS:
        if module_name not in sys.modules:
            continue
        owner, attr = _resolve(module_name, path)
        if getattr(getattr(owner, attr), _MARK, False):
            found.append(f"{module_name}:{path}")
    return found


def assert_unwrapped() -> None:
    """Raise if any entry point is still wrapped (untraced runs call this)."""
    found = wrapped_points()
    if found:
        raise RuntimeError(f"untraced run found wrapped entry points: {found}")
