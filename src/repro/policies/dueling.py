"""Set-dueling meta-policy (DIP/DRRIP-style dynamic selection).

Qureshi's set-dueling idea, generalized: run two complete replacement
policies side by side, dedicate a few *leader sets* to each, and let a
saturating PSEL counter — driven by leader-set misses — pick which
policy's decisions the *follower sets* obey.

Both component policies observe the full event stream (they are
deterministic state machines over events, so keeping them both coherent
costs only state, not correctness); only victim/bypass *decisions* are
arbitrated.  This makes the meta-policy applicable to any pair of
policies in the registry, e.g. ``ghrp`` vs ``lru`` to hedge GHRP's
training transients on unfriendly traces.
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.cache.policy_api import AccessContext, ReplacementPolicy

__all__ = ["SetDuelingPolicy"]


class SetDuelingPolicy(ReplacementPolicy):
    """Duel ``policy_a`` against ``policy_b``; followers obey the winner.

    PSEL semantics: a miss in an A-leader set increments PSEL, a miss in
    a B-leader set decrements it.  PSEL above the midpoint therefore
    means A's leaders miss *more*, so followers use B, and vice versa.
    """

    name = "dueling"

    def __init__(
        self,
        policy_a: ReplacementPolicy,
        policy_b: ReplacementPolicy,
        dueling_sets: int = 32,
        psel_bits: int = 10,
    ):
        super().__init__()
        if dueling_sets < 2:
            raise ValueError(f"dueling_sets must be >= 2, got {dueling_sets}")
        self.policy_a = policy_a
        self.policy_b = policy_b
        self.dueling_sets = dueling_sets
        self._psel_max = (1 << psel_bits) - 1
        self._psel = self._psel_max // 2
        self._a_leaders: set[int] = set()
        self._b_leaders: set[int] = set()

    # ------------------------------------------------------------------
    def _allocate_state(self, geometry: CacheGeometry) -> None:
        self.policy_a.bind(geometry)
        self.policy_b.bind(geometry)
        num_sets = geometry.num_sets
        stride = max(num_sets // max(self.dueling_sets, 1), 1)
        self._a_leaders = set(range(0, num_sets, stride))
        self._b_leaders = {
            s + stride // 2
            for s in range(0, num_sets, stride)
            if s + stride // 2 < num_sets
        } - self._a_leaders

    def attach_tag_rows(self, tag_rows: list[list[int]]) -> None:
        super().attach_tag_rows(tag_rows)
        self.policy_a.attach_tag_rows(tag_rows)
        self.policy_b.attach_tag_rows(tag_rows)

    def _decider(self, set_index: int) -> ReplacementPolicy:
        if set_index in self._a_leaders:
            return self.policy_a
        if set_index in self._b_leaders:
            return self.policy_b
        # Followers: PSEL above midpoint -> A's leaders miss more -> use B.
        if self._psel > self._psel_max // 2:
            return self.policy_b
        return self.policy_a

    @property
    def follower_choice(self) -> ReplacementPolicy:
        """The policy follower sets currently obey (for inspection)."""
        if self._psel > self._psel_max // 2:
            return self.policy_b
        return self.policy_a

    def _vote(self, set_index: int) -> None:
        if set_index in self._a_leaders:
            self._psel = min(self._psel + 1, self._psel_max)
        elif set_index in self._b_leaders:
            self._psel = max(self._psel - 1, 0)

    # ------------------------------------------------------------------
    # Events: both children observe everything; decisions are arbitrated.
    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self.policy_a.on_hit(set_index, way, ctx)
        self.policy_b.on_hit(set_index, way, ctx)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._vote(set_index)  # a fill implies this set missed
        self.policy_a.on_fill(set_index, way, ctx)
        self.policy_b.on_fill(set_index, way, ctx)

    def on_evict(self, set_index: int, way: int, victim_address: int) -> None:
        self.policy_a.on_evict(set_index, way, victim_address)
        self.policy_b.on_evict(set_index, way, victim_address)

    def select_victim(self, set_index: int, ctx: AccessContext) -> int:
        return self._decider(set_index).select_victim(set_index, ctx)

    def should_bypass(self, set_index: int, ctx: AccessContext) -> bool:
        """Bypass only when the deciding policy says so.

        The non-deciding child still observes the access as a bypass
        cannot be replayed into it; this is the one place the two
        children's views can diverge, and it is conservative (they see a
        fill that did not happen under the winning policy's decision
        would be wrong, so we simply do not bypass unless BOTH agree for
        leader-coherence).
        """
        decider = self._decider(set_index)
        other = self.policy_b if decider is self.policy_a else self.policy_a
        decision = decider.should_bypass(set_index, ctx)
        if decision:
            # Keep the other child's history machinery coherent.
            other.should_bypass(set_index, ctx)
        return decision

    def predicts_dead(self, set_index: int, way: int) -> bool:
        return self._decider(set_index).predicts_dead(set_index, way)

    def reset_generation(self) -> None:
        self.policy_a.reset_generation()
        self.policy_b.reset_generation()
