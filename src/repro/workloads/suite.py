"""Named workloads and the benchmark suite.

A :class:`Workload` is an identity — name, seed and spec — whose lowered
program is built on first use and whose record stream replays
deterministically;
:func:`make_suite` manufactures the repository's stand-in
for the paper's 662-trace CBP-5 suite — a deterministic set of workloads
spread over the four categories, sized by a scale factor so the full
harness runs in minutes in pure Python.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.traces.record import BranchRecord
from repro.util.rng import DeterministicRng, derive_seed
from repro.workloads.builder import build_program
from repro.workloads.program import LoweredProgram
from repro.workloads.spec import Category, WorkloadSpec, spec_for_category
from repro.workloads.walker import ProgramWalker

__all__ = [
    "Workload",
    "workload_spec",
    "make_workload",
    "make_suite",
    "DEFAULT_SUITE_MIX",
]

DEFAULT_SUITE_MIX: dict[Category, int] = {
    Category.SHORT_MOBILE: 5,
    Category.LONG_MOBILE: 4,
    Category.SHORT_SERVER: 6,
    Category.LONG_SERVER: 5,
}
"""Workloads per category in the default suite (server-heavy, like CBP-5)."""


@dataclass(slots=True)
class Workload:
    """One replayable synthetic workload.

    Its identity is ``(name, spec, seed)``: the program, the record
    stream and the instruction count are pure functions of those three,
    so they stay out of ``__eq__`` and are derived on first use.  A
    workload that is only looked up — e.g. a cell already in the cache —
    never builds its program.  A built workload keeps only the lowered
    program (the branch-node graph the walker reads); the statement
    tree it was lowered from is dropped, so no garbage collection walks
    it.
    """

    name: str
    spec: WorkloadSpec
    seed: int
    _instruction_count: int | None = field(default=None, repr=False, compare=False)
    _lowered: LoweredProgram | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _records: list[BranchRecord] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def category(self) -> Category:
        return self.spec.category

    @property
    def lowered(self) -> LoweredProgram:
        """The lowered program, built from the spec on first use."""
        if self._lowered is None:
            self._lowered = build_program(
                self.spec, derive_seed(self.seed, "program", self.name)
            ).layout()
        return self._lowered

    def records(self, limit: int | None = None) -> Iterator[BranchRecord]:
        """A fresh, deterministic branch-record stream.

        Every call replays the identical sequence — this is what lets the
        harness run the same trace under each replacement policy.

        The full-budget stream is walked once per workload: the first
        call that drains it to the end memoizes it as a list of references
        to the walker's interned records (one object per distinct record,
        so the memo costs about one pointer per branch), and every later
        call replays that list.  An explicit ``limit`` other than the
        budget always walks afresh and is not memoized.
        """
        budget = self.spec.branch_budget
        if limit is not None and limit != budget:
            return self._walk(limit)
        if self._records is not None:
            return iter(self._records)
        return self._walk_and_memoize(budget)

    def _walk(self, limit: int) -> Iterator[BranchRecord]:
        walker = ProgramWalker(self.lowered, derive_seed(self.seed, "walk"))
        return walker.records(limit)

    def _walk_and_memoize(self, budget: int) -> Iterator[BranchRecord]:
        # Lazy, so the first consumer still streams; the memo is kept only
        # once the walk completes (an abandoned walk leaves none behind).
        memo: list[BranchRecord] = []
        append = memo.append
        for record in self._walk(budget):
            append(record)
            yield record
        self._records = memo

    @property
    def code_footprint_bytes(self) -> int:
        return self.lowered.code_size_bytes

    def instruction_count(self) -> int:
        """Total reconstructed instructions in the full trace (cached).

        Used by the harness to apply the paper's warm-up rule before the
        simulation starts.
        """
        if self._instruction_count is None:
            from repro.kernel.tokenizer import tokenize_trace

            instr_cum = tokenize_trace(self.records()).instr_cum
            self._instruction_count = instr_cum[-1] if instr_cum else 0
        return self._instruction_count


def workload_spec(
    name: str,
    category: Category,
    seed: int,
    trace_scale: float = 1.0,
    footprint_scale: float = 1.0,
    spec: WorkloadSpec | None = None,
    jitter: bool = True,
) -> WorkloadSpec:
    """The final spec of one workload: preset (or ``spec``), scaled, jittered.

    With ``jitter`` (the default for suites), shape parameters are varied
    deterministically per seed — footprint, trace length, phase count,
    loop behaviour — so a suite spans a spread of MPKIs (the paper's
    S-curves cover two orders of magnitude) instead of N near-clones.
    """
    base = spec if spec is not None else spec_for_category(category)
    scaled = base.scaled(trace_scale=trace_scale, footprint_scale=footprint_scale)
    if jitter:
        rng = DeterministicRng(derive_seed(seed, "jitter", name))
        scaled = scaled.with_overrides(
            code_footprint_bytes=max(
                int(scaled.code_footprint_bytes * rng.uniform(0.6, 1.6)), 8192
            ),
            branch_budget=max(int(scaled.branch_budget * rng.uniform(0.8, 1.2)), 1000),
            num_phases=max(scaled.num_phases + rng.randint(-1, 1), 1),
            phase_rounds=max(scaled.phase_rounds + rng.randint(-2, 3), 1),
            mean_loop_iterations=max(
                scaled.mean_loop_iterations * rng.uniform(0.7, 1.5), 2.0
            ),
            shared_function_fraction=min(
                max(scaled.shared_function_fraction * rng.uniform(0.5, 1.8), 0.0), 0.5
            ),
        )
    return scaled


def make_workload(
    name: str,
    category: Category,
    seed: int,
    trace_scale: float = 1.0,
    footprint_scale: float = 1.0,
    spec: WorkloadSpec | None = None,
    jitter: bool = True,
) -> Workload:
    """Build one workload from a category preset (or an explicit spec).

    The spec comes from :func:`workload_spec`; the program is built here,
    up front, so a sweep's first cell of each workload does not pay for
    it.  ``Workload(name, workload_spec(...), seed)`` is the same
    workload with the build deferred to first use.
    """
    workload = Workload(
        name=name,
        spec=workload_spec(
            name, category, seed, trace_scale=trace_scale,
            footprint_scale=footprint_scale, spec=spec, jitter=jitter,
        ),
        seed=seed,
    )
    workload.lowered  # build now: callers get a built workload
    return workload


def make_suite(
    base_seed: int = 2018,
    mix: dict[Category, int] | None = None,
    trace_scale: float = 1.0,
    footprint_scale: float = 1.0,
) -> list[Workload]:
    """Manufacture the full synthetic suite.

    Parameters
    ----------
    base_seed:
        Top-level seed; the suite is a pure function of it.
    mix:
        Workloads per category (default :data:`DEFAULT_SUITE_MIX`).
    trace_scale, footprint_scale:
        Shrink factors for fast runs; 1.0 is the harness default.
    """
    mix = mix if mix is not None else DEFAULT_SUITE_MIX
    suite: list[Workload] = []
    for category, count in mix.items():
        for i in range(count):
            name = f"{category.value}-{i:02d}"
            suite.append(
                make_workload(
                    name=name,
                    category=category,
                    seed=derive_seed(base_seed, category.value, i),
                    trace_scale=trace_scale,
                    footprint_scale=footprint_scale,
                )
            )
    return suite
