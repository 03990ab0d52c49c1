"""GHRP as a replacement policy — Algorithm 1 of the paper.

Two adapters around the shared :class:`~repro.core.ghrp.GHRPPredictor`:

- :class:`GHRPPolicy` manages an I-cache (or any block cache).  It owns the
  per-block metadata of Section III-B — 16-bit signature, prediction bit,
  LRU position — and drives table training on reuse and eviction.
- :class:`GHRPBTBPolicy` manages a BTB with the Section III-E adaptation:
  it *shares* the I-cache policy's prediction tables, path history, and
  per-block signatures, keeping only one extra prediction bit per BTB entry
  ("BTB replacement comes with almost no additional overhead").  A
  standalone mode with private per-entry signatures exists for the ablation
  the authors describe (they "first modeled GHRP as a stand-alone
  replacement policy with its own metadata").
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.cache.policy_api import AccessContext, ReplacementPolicy
from repro.core.config import GHRPConfig
from repro.core.ghrp import GHRPPredictor

__all__ = ["GHRPPolicy", "GHRPBTBPolicy"]


class GHRPPolicy(ReplacementPolicy):
    """Dead-block replacement + bypass for block caches (Algorithm 1).

    Parameters
    ----------
    predictor:
        The shared GHRP engine; constructed fresh (with ``config``) if not
        given.  Pass the same instance to a :class:`GHRPBTBPolicy` to get
        the paper's shared-metadata BTB design.
    config:
        Used only when ``predictor`` is None.
    enable_bypass:
        The bypass optimization of Algorithm 1 line 13 (on by default, as
        in the paper; switch off for the ablation benchmark).
    train_on_wrong_path:
        When False (the paper's choice, Section III-F), table updates are
        suppressed while :attr:`wrong_path` is set by the front end.
    """

    name = "ghrp"

    def __init__(
        self,
        predictor: GHRPPredictor | None = None,
        config: GHRPConfig | None = None,
        enable_bypass: bool = True,
        train_on_wrong_path: bool = False,
    ):
        super().__init__()
        self.predictor = predictor or GHRPPredictor(config)
        self.config = self.predictor.config
        self.enable_bypass = enable_bypass
        self.train_on_wrong_path = train_on_wrong_path
        # Set by the front end while fetching down a mispredicted path.
        self.wrong_path = False

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _allocate_state(self, geometry: CacheGeometry) -> None:
        num_sets, ways = geometry.num_sets, geometry.associativity
        self._signatures: list[list[int | None]] = [[None] * ways for _ in range(num_sets)]
        self._pred_dead = [[False] * ways for _ in range(num_sets)]
        self._last_use = [[0] * ways for _ in range(num_sets)]
        self._clock = [0] * num_sets

    def _touch(self, set_index: int, way: int) -> None:
        self._clock[set_index] += 1
        self._last_use[set_index][way] = self._clock[set_index]

    @property
    def _may_train(self) -> bool:
        return self.train_on_wrong_path or not self.wrong_path

    # ------------------------------------------------------------------
    # Algorithm 1 events
    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        """Reuse: train old signature live, refresh metadata (lines 21-28)."""
        old_signature = self._signatures[set_index][way]
        if old_signature is not None and self._may_train:
            self.predictor.train(old_signature, is_dead=False)
        new_signature = self.predictor.signature(ctx.pc)
        self._signatures[set_index][way] = new_signature
        self._pred_dead[set_index][way] = self.predictor.predict_dead(new_signature).is_dead
        self._touch(set_index, way)
        self.predictor.note_access(ctx.pc, speculative=self.wrong_path)

    def should_bypass(self, set_index: int, ctx: AccessContext) -> bool:
        """Bypass vote with the (higher) bypass threshold (line 13)."""
        if not self.enable_bypass:
            return False
        signature = self.predictor.signature(ctx.pc)
        if self.predictor.predict_bypass(signature).is_dead:
            # No metadata is written for a bypassed block, but the access
            # still happened: advance the path history.
            self.predictor.note_access(ctx.pc, speculative=self.wrong_path)
            return True
        return False

    def select_victim(self, set_index: int, ctx: AccessContext) -> int:
        """First predicted-dead block, else the LRU block (Algorithm 5)."""
        dead_bits = self._pred_dead[set_index]
        for way, dead in enumerate(dead_bits):
            if dead:
                return way
        recency = self._last_use[set_index]
        return min(range(len(recency)), key=recency.__getitem__)

    def on_evict(self, set_index: int, way: int, victim_address: int) -> None:
        """Eviction proves the victim dead: train with its stored signature."""
        old_signature = self._signatures[set_index][way]
        if old_signature is not None and self._may_train:
            self.predictor.train(old_signature, is_dead=True)
        self._signatures[set_index][way] = None
        self._pred_dead[set_index][way] = False

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        """Placement: store the signature and its prediction (lines 18-20)."""
        signature = self.predictor.signature(ctx.pc)
        self._signatures[set_index][way] = signature
        self._pred_dead[set_index][way] = self.predictor.predict_dead(signature).is_dead
        self._touch(set_index, way)
        self.predictor.note_access(ctx.pc, speculative=self.wrong_path)

    # ------------------------------------------------------------------
    # Introspection used by the BTB coupling, stats, and tests
    # ------------------------------------------------------------------
    def predicts_dead(self, set_index: int, way: int) -> bool:
        return self._pred_dead[set_index][way]

    def stored_signature(self, set_index: int, way: int) -> int | None:
        return self._signatures[set_index][way]

    def victim_telemetry(self, set_index: int, way: int) -> dict:
        """What drove this eviction: signature, dead vote, recency rank.

        ``lru_position`` counts from the MRU block (0 = most recently
        used, associativity-1 = LRU).  Only called with tracing enabled.
        """
        recency = self._last_use[set_index]
        return {
            "signature": self._signatures[set_index][way],
            "predicted_dead_vote": self._pred_dead[set_index][way],
            "lru_position": sum(1 for value in recency if value > recency[way]),
        }

    def stored_signature_for(self, pc: int) -> int | None:
        """Signature of the resident I-cache block containing ``pc``.

        This is the Section III-E coupling point: "the signature recorded
        for that branch's block in the I-cache is used to index the I-cache
        GHRP prediction tables".  Returns None when the block is absent.
        """
        if self._tag_rows is None:
            return None
        way = self.geometry.find_way(self._tag_rows, pc)
        if way is None:
            return None
        set_index = self.geometry.set_index(pc)
        return self._signatures[set_index][way]

    def reset_generation(self) -> None:
        self.predictor.reset_history()
        self.wrong_path = False


class GHRPBTBPolicy(ReplacementPolicy):
    """GHRP-driven BTB replacement (Section III-E).

    In the default **shared** mode, predictions come from the I-cache
    block's stored signature via ``icache_policy``; the only per-entry
    state is a prediction bit (plus LRU).  The prediction tables are never
    trained from BTB events — they are already trained by the I-cache side.

    In **standalone** mode (``icache_policy=None``) the BTB keeps its own
    per-entry signatures and trains the (private or shared) predictor on
    BTB reuse and eviction, and updates the path history with branch PCs —
    the configuration the authors built first and rejected on cost grounds.
    """

    name = "ghrp-btb"

    def __init__(
        self,
        predictor: GHRPPredictor,
        icache_policy: GHRPPolicy | None = None,
        enable_bypass: bool = True,
    ):
        super().__init__()
        self.predictor = predictor
        self.config = predictor.config
        self.icache_policy = icache_policy
        self.enable_bypass = enable_bypass
        self.standalone = icache_policy is None

    def _allocate_state(self, geometry: CacheGeometry) -> None:
        num_sets, ways = geometry.num_sets, geometry.associativity
        self._pred_dead = [[False] * ways for _ in range(num_sets)]
        self._last_use = [[0] * ways for _ in range(num_sets)]
        self._clock = [0] * num_sets
        self._signatures: list[list[int | None]] = (
            [[None] * ways for _ in range(num_sets)] if self.standalone else []
        )

    def _touch(self, set_index: int, way: int) -> None:
        self._clock[set_index] += 1
        self._last_use[set_index][way] = self._clock[set_index]

    def _signature_for(self, pc: int) -> int:
        """The signature used to predict for a BTB access at branch ``pc``."""
        if self.icache_policy is not None:
            stored = self.icache_policy.stored_signature_for(pc)
            if stored is not None:
                return stored
        # Fallback (block not resident) and standalone mode: current history.
        return self.predictor.signature(pc)

    def _dead_vote(self, pc: int) -> bool:
        signature = self._signature_for(pc)
        return self.predictor.predict_dead(
            signature, self.config.btb_dead_threshold
        ).is_dead

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        if self.standalone:
            old_signature = self._signatures[set_index][way]
            if old_signature is not None:
                self.predictor.train(old_signature, is_dead=False)
            new_signature = self.predictor.signature(ctx.pc)
            self._signatures[set_index][way] = new_signature
            self.predictor.note_access(ctx.pc)
        self._pred_dead[set_index][way] = self._dead_vote(ctx.pc)
        self._touch(set_index, way)

    def should_bypass(self, set_index: int, ctx: AccessContext) -> bool:
        if not self.enable_bypass:
            return False
        signature = self._signature_for(ctx.pc)
        bypass = self.predictor.predict_dead(
            signature, self.config.btb_bypass_threshold
        ).is_dead
        if bypass and self.standalone:
            self.predictor.note_access(ctx.pc)
        return bypass

    def select_victim(self, set_index: int, ctx: AccessContext) -> int:
        """Predicted-dead entry first, else LRU — same rule as the I-cache."""
        dead_bits = self._pred_dead[set_index]
        for way, dead in enumerate(dead_bits):
            if dead:
                return way
        recency = self._last_use[set_index]
        return min(range(len(recency)), key=recency.__getitem__)

    def on_evict(self, set_index: int, way: int, victim_address: int) -> None:
        if self.standalone:
            old_signature = self._signatures[set_index][way]
            if old_signature is not None:
                self.predictor.train(old_signature, is_dead=True)
            self._signatures[set_index][way] = None
        self._pred_dead[set_index][way] = False

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        if self.standalone:
            self._signatures[set_index][way] = self.predictor.signature(ctx.pc)
            self.predictor.note_access(ctx.pc)
        self._pred_dead[set_index][way] = self._dead_vote(ctx.pc)
        self._touch(set_index, way)

    def predicts_dead(self, set_index: int, way: int) -> bool:
        return self._pred_dead[set_index][way]

    def victim_telemetry(self, set_index: int, way: int) -> dict:
        recency = self._last_use[set_index]
        detail = {
            "predicted_dead_vote": self._pred_dead[set_index][way],
            "lru_position": sum(1 for value in recency if value > recency[way]),
        }
        if self.standalone:
            detail["signature"] = self._signatures[set_index][way]
        return detail

    def reset_generation(self) -> None:
        if self.standalone:
            self.predictor.reset_history()
