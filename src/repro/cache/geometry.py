"""Cache geometry: sizes, associativity, and address slicing.

A :class:`CacheGeometry` fully determines how an address maps to a
(set, tag) pair.  It is shared by the I-cache, the BTB (whose "block size"
is a single 4-byte instruction slot), and the SDBP sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.bits import log2_exact

__all__ = ["CacheGeometry"]


@dataclass(frozen=True, slots=True)
class CacheGeometry:
    """Geometry of a set-associative structure.

    Attributes
    ----------
    num_sets:
        Number of sets; must be a power of two (hardware index decoding).
    associativity:
        Ways per set.
    block_size:
        Bytes per block.  The I-cache uses 64 (the paper's line size); the
        BTB uses 4 so that each branch instruction maps to its own entry.
    """

    num_sets: int
    associativity: int
    block_size: int

    def __post_init__(self) -> None:
        log2_exact(self.num_sets)  # validates power of two
        log2_exact(self.block_size)
        if self.associativity <= 0:
            raise ValueError(f"associativity must be positive, got {self.associativity}")

    @classmethod
    def from_capacity(
        cls, capacity_bytes: int, associativity: int, block_size: int
    ) -> "CacheGeometry":
        """Build a geometry from total capacity, e.g. 64KB 8-way 64B lines.

        >>> CacheGeometry.from_capacity(64 * 1024, 8, 64).num_sets
        128
        """
        if capacity_bytes % (associativity * block_size) != 0:
            raise ValueError(
                f"capacity {capacity_bytes} is not divisible by "
                f"{associativity} ways x {block_size}B blocks"
            )
        return cls(
            num_sets=capacity_bytes // (associativity * block_size),
            associativity=associativity,
            block_size=block_size,
        )

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.associativity * self.block_size

    @property
    def total_blocks(self) -> int:
        return self.num_sets * self.associativity

    @property
    def offset_bits(self) -> int:
        return log2_exact(self.block_size)

    @property
    def index_bits(self) -> int:
        return log2_exact(self.num_sets)

    def block_address(self, address: int) -> int:
        """Align ``address`` down to its containing block."""
        return address & ~(self.block_size - 1)

    def set_index(self, address: int) -> int:
        """Set an address maps to (modulo indexing, as in the paper's BTB)."""
        return (address >> self.offset_bits) & (self.num_sets - 1)

    def tag(self, address: int) -> int:
        """Tag bits of an address (everything above index + offset)."""
        return address >> (self.offset_bits + self.index_bits)

    def find_way(self, tag_rows: list[list[int]], address: int) -> int | None:
        """Way of ``tag_rows`` holding ``address``'s block, or None.

        ``tag_rows`` is a structure's per-set tag list, one row per set,
        as :class:`~repro.cache.set_assoc.SetAssociativeCache` keeps it.
        """
        try:
            return tag_rows[self.set_index(address)].index(self.tag(address))
        except ValueError:
            return None

    def rebuild_address(self, set_index: int, tag: int) -> int:
        """Inverse of (:meth:`set_index`, :meth:`tag`): the block address."""
        return (tag << (self.offset_bits + self.index_bits)) | (set_index << self.offset_bits)

    def describe(self) -> str:
        """Human-readable geometry, e.g. ``64KB 8-way, 64B blocks, 128 sets``."""
        capacity = self.capacity_bytes
        if capacity % 1024 == 0:
            capacity_text = f"{capacity // 1024}KB"
        else:
            capacity_text = f"{capacity}B"
        return (
            f"{capacity_text} {self.associativity}-way, "
            f"{self.block_size}B blocks, {self.num_sets} sets"
        )
