"""Named workload archetypes beyond the four CBP-5-style categories.

The category presets (``spec.py``) reproduce the paper's suite split.
These archetypes are sharper, single-behaviour instruments for studying
*specific* front-end phenomena; each documents what it stresses and what
to expect from the paper's policies on it.

Use with :func:`repro.workloads.suite.make_workload`::

    from repro.workloads.archetypes import archetype_spec
    workload = make_workload("kern", Category.SHORT_MOBILE, seed=1,
                             spec=archetype_spec("kernel-loops"))
"""

from __future__ import annotations

from repro.workloads.spec import Category, WorkloadSpec

__all__ = ["ARCHETYPES", "archetype_spec", "available_archetypes"]


ARCHETYPES: dict[str, WorkloadSpec] = {
    # Tiny hot loops, footprint well under any I-cache: every policy is
    # equivalent (MPKI ~ 0); useful as a no-pressure control.
    "kernel-loops": WorkloadSpec(
        category=Category.SHORT_MOBILE,
        code_footprint_bytes=12 * 1024,
        branch_budget=40_000,
        num_phases=1,
        phase_rounds=200,
        mean_loop_iterations=24.0,
        loop_weight=0.45,
        call_weight=0.10,
        switch_weight=0.02,
        max_call_depth=2,
        shared_function_fraction=0.0,
        calls_per_phase_visit=2,
    ),
    # A scan: enormous footprint touched nearly once per pass with little
    # intra-pass reuse.  LRU ~ Random here; bypass/thrash-resistant
    # policies (BRRIP, GHRP-with-bypass) shine.
    "streaming-scan": WorkloadSpec(
        category=Category.LONG_SERVER,
        code_footprint_bytes=512 * 1024,
        branch_budget=120_000,
        num_phases=8,
        phase_rounds=4,
        mean_loop_iterations=2.0,
        loop_weight=0.10,
        call_weight=0.30,
        switch_weight=0.05,
        max_call_depth=4,
        shared_function_fraction=0.05,
        calls_per_phase_visit=1,
    ),
    # Deep call chains over a mid-size footprint with hot shared leaves:
    # stresses the RAS and rewards policies that keep shared code live.
    "microservice": WorkloadSpec(
        category=Category.SHORT_SERVER,
        code_footprint_bytes=192 * 1024,
        branch_budget=100_000,
        num_phases=4,
        phase_rounds=20,
        mean_loop_iterations=3.0,
        loop_weight=0.15,
        call_weight=0.38,
        switch_weight=0.08,
        max_call_depth=5,
        shared_function_fraction=0.35,
        calls_per_phase_visit=1,
    ),
    # Indirect-heavy polymorphic dispatch (interpreter/JIT-flavoured):
    # stresses the BTB's target storage.
    "polymorphic-dispatch": WorkloadSpec(
        category=Category.LONG_SERVER,
        code_footprint_bytes=256 * 1024,
        branch_budget=140_000,
        num_phases=3,
        phase_rounds=24,
        mean_loop_iterations=6.0,
        loop_weight=0.20,
        call_weight=0.22,
        switch_weight=0.25,
        switch_fanout=8,
        max_call_depth=4,
        shared_function_fraction=0.25,
        calls_per_phase_visit=2,
    ),
    # Rapid phase churn: working sets die quickly and return rarely —
    # the hardest case for any predictor that needs repetition to train.
    "phase-churn": WorkloadSpec(
        category=Category.SHORT_SERVER,
        code_footprint_bytes=320 * 1024,
        branch_budget=120_000,
        num_phases=10,
        phase_rounds=8,
        mean_loop_iterations=3.0,
        call_weight=0.28,
        switch_weight=0.08,
        max_call_depth=4,
        shared_function_fraction=0.10,
        calls_per_phase_visit=1,
    ),
}


def available_archetypes() -> tuple[str, ...]:
    """Sorted archetype names."""
    return tuple(sorted(ARCHETYPES))


def archetype_spec(name: str) -> WorkloadSpec:
    """The spec for a named archetype.

    >>> archetype_spec("kernel-loops").num_phases
    1
    """
    try:
        return ARCHETYPES[name]
    except KeyError:
        known = ", ".join(available_archetypes())
        raise KeyError(f"unknown archetype {name!r}; known: {known}") from None
