"""The branch target buffer model.

Entries are allocated by *taken* branches (a never-taken branch never
occupies a slot — point 1 of the paper's Section III-E argument) and are
indexed by the branch PC with modulo indexing, so "branches in the same
cache block will map to distinct BTB sets" (point 3).

The BTB wraps a :class:`~repro.cache.set_assoc.SetAssociativeCache` with a
4-byte "block size" — one instruction slot per entry — and adds per-way
target storage.  A BTB **miss** is an absent entry; a present entry whose
stored target differs (an indirect branch that changed destination) is a
hit with ``target_correct=False``, tallied separately, and the stored
target is updated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.geometry import CacheGeometry
from repro.cache.policy_api import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.obs import NULL_OBS, Observability

__all__ = ["BTBResult", "BranchTargetBuffer"]

_ENTRY_GRANULE = 4  # one 4-byte instruction per BTB entry


@dataclass(slots=True)
class BTBResult:
    """Outcome of one BTB access."""

    hit: bool
    bypassed: bool
    predicted_target: int | None
    target_correct: bool

    @property
    def miss(self) -> bool:
        return not self.hit


class BranchTargetBuffer:
    """Set-associative BTB with a pluggable replacement policy."""

    def __init__(
        self,
        num_entries: int,
        associativity: int,
        policy: ReplacementPolicy,
        track_efficiency: bool = False,
        obs: Observability = NULL_OBS,
    ):
        if num_entries % associativity != 0:
            raise ValueError(
                f"{num_entries} entries not divisible by associativity {associativity}"
            )
        geometry = CacheGeometry(
            num_sets=num_entries // associativity,
            associativity=associativity,
            block_size=_ENTRY_GRANULE,
        )
        self.geometry = geometry
        self.obs = obs
        self._cache = SetAssociativeCache(
            geometry, policy, track_efficiency, obs=obs, obs_scope="btb"
        )
        self._targets = [
            [0] * geometry.associativity for _ in range(geometry.num_sets)
        ]
        self.target_mispredictions = 0

    @property
    def policy(self) -> ReplacementPolicy:
        return self._cache.policy

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def efficiency(self):
        return self._cache.efficiency

    @property
    def num_entries(self) -> int:
        return self.geometry.total_blocks

    def access(self, pc: int, target: int) -> BTBResult:
        """Access for a taken branch at ``pc`` whose real target is ``target``.

        On a hit the predicted target is the stored one (scored against the
        truth, then corrected).  On a miss the entry is allocated — unless
        the policy bypasses — and the target stored.
        """
        result = self._cache.access(pc, pc=pc)
        if result.hit:
            assert result.way is not None
            stored = self._targets[result.set_index][result.way]
            correct = stored == target
            if not correct:
                self.target_mispredictions += 1
                self._targets[result.set_index][result.way] = target
                if self.obs.enabled:
                    self.obs.inc("btb.target_mispredictions")
                    self.obs.event(
                        "btb_target_update", pc=pc, stale_target=stored, target=target
                    )
            return BTBResult(
                hit=True, bypassed=False, predicted_target=stored, target_correct=correct
            )
        if not result.bypassed:
            assert result.way is not None
            self._targets[result.set_index][result.way] = target
        return BTBResult(
            hit=False,
            bypassed=result.bypassed,
            predicted_target=None,
            target_correct=False,
        )

    def lookup(self, pc: int) -> int | None:
        """Probe for ``pc``'s target without side effects."""
        way = self._cache.probe(pc)
        if way is None:
            return None
        set_index = self.geometry.set_index(pc)
        return self._targets[set_index][way]

    def contains(self, pc: int) -> bool:
        return self._cache.contains(pc)

    def finalize(self) -> None:
        self._cache.finalize()
