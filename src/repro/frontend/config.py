"""Front-end configuration.

Defaults reproduce the paper's Section IV setup: a 64KB 8-way I-cache with
64B lines and a 4,096-entry 4-way BTB (both after the Samsung Mongoose),
a hashed perceptron direction predictor, warm-up on the first half of the
trace capped at a fixed instruction count, and MPKI as the figure of merit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import GHRPConfig
from repro.policies.sdbp import SDBPConfig

__all__ = ["FrontEndConfig"]


@dataclass(frozen=True, slots=True)
class FrontEndConfig:
    """Complete recipe for one front-end simulation.

    Attributes
    ----------
    icache_bytes, icache_assoc, block_size:
        I-cache geometry (defaults: 64KB, 8-way, 64B lines).
    btb_entries, btb_assoc:
        BTB geometry (defaults: 4,096 entries, 4-way).
    icache_policy, btb_policy:
        Registry names ("lru", "random", "srrip", "sdbp", "ghrp", ...).
        ``btb_policy=None`` mirrors the I-cache policy, which is how the
        paper's per-policy comparisons are run.
    ras_depth:
        Return address stack depth.
    warmup_cap_instructions / warmup_fraction:
        The paper's warm-up rule: "the first half of the instructions in
        the trace, or up to two hundred million instructions, whichever
        comes first."  Scaled down by default to match our trace lengths.
    max_instructions:
        Stop simulating after this many reconstructed instructions
        (the paper's one-billion-instruction budget); None = whole trace.
    wrong_path_depth:
        Blocks of wrong-path fetch simulated past each mispredicted
        branch (0 disables, the CBP5-style trace-driven default).
    ghrp, sdbp:
        Predictor configurations for the predictive policies.
    random_seed:
        Seed for the Random replacement policy.
    """

    icache_bytes: int = 64 * 1024
    icache_assoc: int = 8
    block_size: int = 64
    btb_entries: int = 4096
    btb_assoc: int = 4
    icache_policy: str = "lru"
    btb_policy: str | None = None
    ras_depth: int = 32
    warmup_fraction: float = 0.5
    warmup_cap_instructions: int = 200_000
    max_instructions: int | None = None
    wrong_path_depth: int = 0
    track_efficiency: bool = False
    ghrp: GHRPConfig = field(default_factory=GHRPConfig.tuned_for_synthetic)
    sdbp: SDBPConfig = field(default_factory=SDBPConfig)
    random_seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must be in [0, 1]")
        if self.wrong_path_depth < 0:
            raise ValueError("wrong_path_depth must be non-negative")

    @property
    def effective_btb_policy(self) -> str:
        return self.btb_policy if self.btb_policy is not None else self.icache_policy

    def with_overrides(self, **overrides: object) -> "FrontEndConfig":
        """Functional update, e.g. ``config.with_overrides(icache_policy="ghrp")``."""
        return replace(self, **overrides)  # type: ignore[arg-type]
