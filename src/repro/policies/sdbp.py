"""Modified Sampling Dead Block Prediction (SDBP).

SDBP (Khan, Tian, Jiménez, MICRO 2010) predicts a block dead from the PC of
the most recent instruction to touch it, learning access/eviction patterns
in a small *sampler*.  Section II-A of the GHRP paper explains why vanilla
set-sampling cannot work for the I-cache or BTB — the PC forms the index,
so one PC only ever visits one set — and Section IV-A lists the
modifications used for a fair comparison:

1. the sampler is as large as the cache (same sets, same associativity),
2. tuned dead and bypass thresholds,
3. 8-bit counters (instead of 2-bit) in three skewed tables,
4. summation aggregation (SDBP's original rule), partial-PC signatures.

Both the full-sampler version and the (deliberately broken for instruction
streams) set-sampled version are available; the latter exists to reproduce
the Figure 2 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.geometry import CacheGeometry
from repro.cache.policy_api import AccessContext, ReplacementPolicy
from repro.core.tables import Aggregation, PredictionTableBank
from repro.util.bits import mask

__all__ = ["SDBPConfig", "SDBPPolicy"]


@dataclass(frozen=True, slots=True)
class SDBPConfig:
    """Parameters of the modified SDBP (paper Section IV-A defaults)."""

    num_tables: int = 3
    table_index_bits: int = 12
    counter_bits: int = 8
    signature_bits: int = 12
    sampler_tag_bits: int = 16
    dead_sum_threshold: int = 24
    bypass_sum_threshold: int = 192
    sampler_set_stride: int = 1
    """Sample every Nth set.  1 = full-size sampler (the paper's modified
    SDBP); larger strides reproduce the original LLC-style set sampling
    whose failure Figure 2 explains."""

    def __post_init__(self) -> None:
        if self.num_tables < 1:
            raise ValueError(f"num_tables must be >= 1, got {self.num_tables}")
        if self.counter_bits < 1:
            raise ValueError(f"counter_bits must be >= 1, got {self.counter_bits}")
        if self.sampler_set_stride < 1:
            raise ValueError(
                f"sampler_set_stride must be >= 1, got {self.sampler_set_stride}"
            )
        counter_max = (1 << self.counter_bits) - 1
        max_sum = self.num_tables * counter_max
        for label, threshold in (
            ("dead_sum_threshold", self.dead_sum_threshold),
            ("bypass_sum_threshold", self.bypass_sum_threshold),
        ):
            if not 1 <= threshold <= max_sum:
                raise ValueError(
                    f"{label} ({threshold}) must be within [1, {max_sum}]"
                )


class _SamplerEntry:
    """One sampler way: partial tag + the signature of the last access."""

    __slots__ = ("valid", "partial_tag", "signature", "last_use")

    def __init__(self) -> None:
        self.valid = False
        self.partial_tag = 0
        self.signature = 0
        self.last_use = 0


def _sampler_from_fields(ways: int, fields: tuple[int, ...]) -> "_Sampler":
    """Rebuild a pickled :class:`_Sampler` from its flat field tuple."""
    sampler = _Sampler()
    row: list[_SamplerEntry] = []
    new = _SamplerEntry.__new__
    for at in range(0, len(fields), 4):
        entry = new(_SamplerEntry)
        entry.valid = bool(fields[at])
        entry.partial_tag = fields[at + 1]
        entry.signature = fields[at + 2]
        entry.last_use = fields[at + 3]
        row.append(entry)
        if len(row) == ways:
            sampler.append(row)
            row = []
    return sampler


class _Sampler(list):
    """The sampler's rows of entries, pickled as one flat tuple of fields.

    Pickling thousands of slotted entries one object at a time dominates a
    warm-up snapshot of an SDBP cell; a flat integer tuple is several times
    smaller and faster both ways.  Entries are never referenced from
    outside their row, so rebuilding them fresh loses no aliasing.
    """

    __slots__ = ()

    def __reduce__(self):
        ways = len(self[0]) if self else 0
        fields = tuple(
            value
            for row in self
            for entry in row
            for value in (
                int(entry.valid), entry.partial_tag, entry.signature, entry.last_use
            )
        )
        return (_sampler_from_fields, (ways, fields))


class SDBPPolicy(ReplacementPolicy):
    """PC-indexed dead block prediction with a decoupled sampler."""

    name = "sdbp"

    def __init__(self, config: SDBPConfig | None = None):
        super().__init__()
        self.config = config or SDBPConfig()
        self.tables = PredictionTableBank(
            num_tables=self.config.num_tables,
            index_bits=self.config.table_index_bits,
            counter_bits=self.config.counter_bits,
            aggregation=Aggregation.SUM,
            sum_threshold=self.config.dead_sum_threshold,
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _allocate_state(self, geometry: CacheGeometry) -> None:
        num_sets, ways = geometry.num_sets, geometry.associativity
        self._pred_dead = [[False] * ways for _ in range(num_sets)]
        self._last_use = [[0] * ways for _ in range(num_sets)]
        self._clock = [0] * num_sets
        stride = self.config.sampler_set_stride
        self._sampled_sets = {s: s // stride for s in range(0, num_sets, stride)}
        self._sampler = _Sampler(
            [_SamplerEntry() for _ in range(ways)] for _ in self._sampled_sets
        )
        self._sampler_clock = [0] * len(self._sampled_sets)

    def _signature_of(self, pc: int) -> int:
        """Partial PC of the accessing instruction (word-aligned bits)."""
        return (pc >> 2) & mask(self.config.signature_bits)

    def _predict_sum(self, signature: int, threshold: int) -> bool:
        counters = self.tables.counters(self.tables.indices(signature))
        return sum(counters) >= threshold

    def _touch(self, set_index: int, way: int) -> None:
        self._clock[set_index] += 1
        self._last_use[set_index][way] = self._clock[set_index]

    # ------------------------------------------------------------------
    # Sampler
    # ------------------------------------------------------------------
    def _sampler_access(self, set_index: int, ctx: AccessContext) -> None:
        """Train the predictor from the sampler's view of this access."""
        sampler_row = self._sampled_sets.get(set_index)
        if sampler_row is None:
            return
        entries = self._sampler[sampler_row]
        partial_tag = self.geometry.tag(ctx.address) & mask(self.config.sampler_tag_bits)
        self._sampler_clock[sampler_row] += 1
        now = self._sampler_clock[sampler_row]

        for entry in entries:
            if entry.valid and entry.partial_tag == partial_tag:
                # Reuse observed: the previous access's trace was not dead.
                self.tables.train(entry.signature, is_dead=False)
                entry.signature = self._signature_of(ctx.pc)
                entry.last_use = now
                return

        # Sampler miss: evict the LRU sampler entry, training it dead.
        victim = min(entries, key=lambda e: (e.valid, e.last_use))
        if victim.valid:
            self.tables.train(victim.signature, is_dead=True)
        victim.valid = True
        victim.partial_tag = partial_tag
        victim.signature = self._signature_of(ctx.pc)
        victim.last_use = now

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._sampler_access(set_index, ctx)
        self._pred_dead[set_index][way] = self._predict_sum(
            self._signature_of(ctx.pc), self.config.dead_sum_threshold
        )
        self._touch(set_index, way)

    def should_bypass(self, set_index: int, ctx: AccessContext) -> bool:
        """Bypass a block whose first access already looks dead.

        The sampler still observes the access (it models its own array and
        must see every reference to its sets).
        """
        bypass = self._predict_sum(
            self._signature_of(ctx.pc), self.config.bypass_sum_threshold
        )
        if bypass:
            self._sampler_access(set_index, ctx)
        return bypass

    def select_victim(self, set_index: int, ctx: AccessContext) -> int:
        dead_bits = self._pred_dead[set_index]
        for way, dead in enumerate(dead_bits):
            if dead:
                return way
        recency = self._last_use[set_index]
        return min(range(len(recency)), key=recency.__getitem__)

    def on_evict(self, set_index: int, way: int, victim_address: int) -> None:
        self._pred_dead[set_index][way] = False

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._sampler_access(set_index, ctx)
        self._pred_dead[set_index][way] = self._predict_sum(
            self._signature_of(ctx.pc), self.config.dead_sum_threshold
        )
        self._touch(set_index, way)

    def predicts_dead(self, set_index: int, way: int) -> bool:
        return self._pred_dead[set_index][way]
