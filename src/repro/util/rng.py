"""Deterministic random-number helpers.

Every stochastic component in the repository (the Random replacement policy,
the synthetic workload generator) draws from a :class:`DeterministicRng`
seeded through :func:`derive_seed`, so a whole experiment is a pure function
of its top-level seed.  This is what makes the benchmark harness's numbers
stable from run to run.
"""

from __future__ import annotations

import random

from repro.util.hashing import mix64

__all__ = ["DeterministicRng", "derive_seed"]


def derive_seed(base_seed: int, *components: int | str) -> int:
    """Derive a child seed from a base seed and a path of components.

    Mixing rather than adding keeps sibling streams (e.g. two workloads of
    the same suite) statistically independent.

    >>> derive_seed(1, "a") != derive_seed(1, "b")
    True
    """
    state = mix64(base_seed)
    for component in components:
        if isinstance(component, str):
            # Stable across processes (unlike hash()).
            for byte in component.encode("utf-8"):
                state = mix64(state ^ byte)
        else:
            state = mix64(state ^ (component & (1 << 64) - 1))
    return state


class DeterministicRng(random.Random):
    """A ``random.Random`` that refuses to be seeded from the environment.

    Constructing it without a seed is an error: this forces every caller to
    thread a seed explicitly, which is how the repository guarantees
    reproducibility.
    """

    def __init__(self, seed: int):
        if seed is None:  # pragma: no cover - defensive, signature demands int
            raise ValueError("DeterministicRng requires an explicit seed")
        super().__init__(seed)

    def __reduce__(self):
        # random.Random pickles as ``cls()`` plus its state, but this class
        # demands a seed: construct from a placeholder, then restore state.
        return (self.__class__, (0,), self.getstate())

    def fork(self, *components: int | str) -> "DeterministicRng":
        """Create an independent child stream identified by ``components``."""
        return DeterministicRng(derive_seed(self.getrandbits(64), *components))
