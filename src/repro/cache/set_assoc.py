"""The set-associative cache engine.

One engine serves every structure in the paper: the I-cache, the BTB's
tag/replacement machinery, and SDBP's sampler.  It owns tags and validity;
all replacement intelligence lives in the plugged
:class:`~repro.cache.policy_api.ReplacementPolicy`.

Time, for the efficiency tracker, is the cache's own access counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.efficiency import EfficiencyTracker
from repro.cache.geometry import CacheGeometry
from repro.cache.policy_api import AccessContext, ReplacementPolicy
from repro.cache.stats import CacheStats
from repro.obs import NULL_OBS, Observability

__all__ = ["AccessResult", "SetAssociativeCache"]

_INVALID_TAG = -1


@dataclass(slots=True)
class AccessResult:
    """Outcome of one cache access.

    ``way`` is the way hit or filled, or ``None`` when the miss was
    bypassed.  ``victim_address`` is the block address evicted to make room,
    or ``None`` when no valid block was displaced.
    """

    hit: bool
    bypassed: bool
    set_index: int
    way: int | None
    victim_address: int | None

    @property
    def miss(self) -> bool:
        return not self.hit


class SetAssociativeCache:
    """A set-associative structure with a pluggable replacement policy."""

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        track_efficiency: bool = False,
        obs: Observability = NULL_OBS,
        obs_scope: str = "cache",
    ):
        self.geometry = geometry
        policy.bind(geometry)
        self.obs = obs
        self.obs_scope = obs_scope
        self.stats = CacheStats()
        self.efficiency: EfficiencyTracker | None = (
            EfficiencyTracker(geometry) if track_efficiency else None
        )
        self.now = 0
        self._tags = [
            [_INVALID_TAG] * geometry.associativity for _ in range(geometry.num_sets)
        ]
        # The policy gets the rows, not the cache: a policy holding its
        # cache would put every cell's state in a reference cycle.
        policy.attach_tag_rows(self._tags)
        # Hot-path address slicing, precomputed from the geometry.
        self._block_mask = ~(geometry.block_size - 1)
        self._offset_bits = geometry.offset_bits
        self._index_mask = geometry.num_sets - 1
        self._tag_shift = geometry.offset_bits + geometry.index_bits
        # Assigned last, so a pickle of the cache stores the tag rows here
        # before the policy's alias of them: the earlier, smaller memo
        # indices keep warm-up snapshots compact.
        self.policy = policy

    def access(self, address: int, pc: int | None = None) -> AccessResult:
        """Perform one demand access to the block containing ``address``.

        On a miss the block is placed (or bypassed, at the policy's
        request); there is no notion of a miss that does not attempt a fill,
        matching the demand-fetch front end of the paper's simulator.
        """
        block = address & self._block_mask
        ctx = AccessContext(address=block, pc=pc if pc is not None else address)
        set_index = (block >> self._offset_bits) & self._index_mask
        tag = block >> self._tag_shift
        self.now += 1

        set_tags = self._tags[set_index]
        if tag in set_tags:
            way = set_tags.index(tag)
            self.stats.record_hit()
            self.policy.on_hit(set_index, way, ctx)
            if self.efficiency is not None:
                self.efficiency.on_hit(set_index, way, self.now)
            if self.obs.enabled:
                self.obs.inc(self.obs_scope + ".hits")
            return AccessResult(
                hit=True, bypassed=False, set_index=set_index, way=way, victim_address=None
            )

        # Miss path.
        if self.policy.should_bypass(set_index, ctx):
            self.stats.record_miss(bypassed=True)
            if self.obs.enabled:
                self.obs.inc(self.obs_scope + ".misses")
                self.obs.inc(self.obs_scope + ".bypasses")
                self.obs.event(
                    "bypass",
                    structure=self.obs_scope,
                    set=set_index,
                    address=block,
                    pc=ctx.pc,
                )
            return AccessResult(
                hit=False, bypassed=True, set_index=set_index, way=None, victim_address=None
            )

        victim_address: int | None = None
        try:
            way = set_tags.index(_INVALID_TAG)
        except ValueError:
            way = self.policy.select_victim(set_index, ctx)
            if not 0 <= way < self.geometry.associativity:
                raise ValueError(
                    f"policy {self.policy.name!r} chose invalid way {way} "
                    f"in a {self.geometry.associativity}-way set"
                ) from None
            victim_address = (set_tags[way] << self._tag_shift) | (
                set_index << self._offset_bits
            )
            predicted_dead = self.policy.predicts_dead(set_index, way)
            self.stats.record_eviction(predicted_dead=predicted_dead)
            if self.obs.enabled:
                # Telemetry must be read before on_evict clears metadata.
                self._emit_eviction(set_index, way, victim_address, predicted_dead, block, ctx.pc)
            self.policy.on_evict(set_index, way, victim_address)
            if self.efficiency is not None:
                self.efficiency.on_evict(set_index, way, self.now)

        set_tags[way] = tag
        self.stats.record_miss(bypassed=False)
        self.policy.on_fill(set_index, way, ctx)
        if self.efficiency is not None:
            self.efficiency.on_fill(set_index, way, self.now)
        if self.obs.enabled:
            self.obs.inc(self.obs_scope + ".misses")
        return AccessResult(
            hit=False, bypassed=False, set_index=set_index, way=way, victim_address=victim_address
        )

    def _emit_eviction(
        self,
        set_index: int,
        way: int,
        victim_address: int,
        predicted_dead: bool,
        incoming_address: int,
        pc: int,
    ) -> None:
        """Count and trace one eviction (only called with obs enabled)."""
        self.obs.inc(self.obs_scope + ".evictions")
        if predicted_dead:
            self.obs.inc(self.obs_scope + ".dead_evictions")
        self.obs.event(
            "eviction",
            structure=self.obs_scope,
            set=set_index,
            way=way,
            victim_address=victim_address,
            predicted_dead=predicted_dead,
            incoming_address=incoming_address,
            pc=pc,
            cause="demand",
            **self.policy.victim_telemetry(set_index, way),
        )

    def probe(self, address: int) -> int | None:
        """Return the way holding ``address``'s block, without side effects."""
        return self.geometry.find_way(self._tags, address)

    def contains(self, address: int) -> bool:
        """Whether the block containing ``address`` is resident."""
        return self.probe(address) is not None

    def resident_block(self, set_index: int, way: int) -> int | None:
        """Block address stored in (set, way), or None if invalid."""
        tag = self._tags[set_index][way]
        if tag == _INVALID_TAG:
            return None
        return self.geometry.rebuild_address(set_index, tag)

    def invalidate(self, address: int) -> bool:
        """Drop the block containing ``address`` if resident.

        Returns True if a block was invalidated.  The efficiency tracker
        treats an invalidation like an eviction.
        """
        way = self.probe(address)
        if way is None:
            return False
        set_index = self.geometry.set_index(self.geometry.block_address(address))
        if self.efficiency is not None:
            self.efficiency.on_evict(set_index, way, self.now)
        self._tags[set_index][way] = _INVALID_TAG
        return True

    @property
    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return sum(
            1 for set_tags in self._tags for tag in set_tags if tag != _INVALID_TAG
        )

    def finalize(self) -> None:
        """Close out efficiency accounting at the end of a simulation."""
        if self.efficiency is not None:
            self.efficiency.finalize(self.now)
