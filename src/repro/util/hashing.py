"""Hash functions for skewed prediction-table indexing.

GHRP (like SDBP before it) banks its predictor into several tables, each
indexed by a *different* hash of the same signature so that a destructive
alias in one table is very unlikely to repeat in the others.  The paper calls
these "skewed" tables after the skewed-associative cache literature.

The concrete hash functions are not specified in the paper beyond "three
distinct 12-bit hashes of the 16-bit signature"; we use an invertible
integer mixer (splitmix64 finalizer) with per-table tweak constants, then
fold the result down to the index width.  Any family of independent-ish
hashes preserves the paper's behaviour.
"""

from __future__ import annotations

from repro.util.bits import fold_xor, mask

__all__ = [
    "splitmix64",
    "mix64",
    "skewed_indices",
    "skewed_index_columns",
    "SkewedIndexColumns",
    "U64",
    "SPLITMIX_INC",
    "MIX_MULT_1",
    "MIX_MULT_2",
]

U64 = (1 << 64) - 1

# The splitmix64 reference implementation's increment (the golden-ratio
# gamma) and its two large odd finalizer multipliers.  Hot paths that
# inline the mixer import these; they are the only copy.
SPLITMIX_INC = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB

# Per-table tweak constants (arbitrary distinct odd values).
_TABLE_TWEAKS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0x85EBCA6B27D4EB4F,
    0xA0761D6478BD642F,
)


def splitmix64(value: int) -> int:
    """One round of the splitmix64 finalizer (a strong 64-bit mixer).

    Deterministic, stateless, and uniform enough that distinct tweak
    constants yield effectively independent hash functions.
    """
    value = (value + SPLITMIX_INC) & U64
    value = ((value ^ (value >> 30)) * MIX_MULT_1) & U64
    value = ((value ^ (value >> 27)) * MIX_MULT_2) & U64
    return value ^ (value >> 31)


def mix64(value: int, tweak: int = 0) -> int:
    """Mix ``value`` with an optional ``tweak`` selecting the hash function."""
    return splitmix64((value ^ tweak) & U64)


def skewed_indices(signature: int, num_tables: int, index_bits: int) -> tuple[int, ...]:
    """Compute one index per table from a single signature.

    Parameters
    ----------
    signature:
        The (narrow) signature to hash; GHRP uses 16 bits.
    num_tables:
        How many prediction tables the bank has; GHRP and modified SDBP use 3.
    index_bits:
        Width of each table index; GHRP uses 12 (4,096 entries).

    Returns
    -------
    A tuple of ``num_tables`` indices, each in ``[0, 2**index_bits)``.
    """
    if num_tables <= 0:
        raise ValueError(f"num_tables must be positive, got {num_tables}")
    if num_tables > len(_TABLE_TWEAKS):
        raise ValueError(
            f"at most {len(_TABLE_TWEAKS)} skewed tables supported, got {num_tables}"
        )
    if index_bits <= 0:
        raise ValueError(f"index_bits must be positive, got {index_bits}")
    return tuple(
        fold_xor(mix64(signature, _TABLE_TWEAKS[t]), index_bits) & mask(index_bits)
        for t in range(num_tables)
    )


class SkewedIndexColumns(tuple):
    """``(columns, columns_np)``: signature → per-table index, by column.

    Signatures are narrow (12-16 bits), so the whole hash pipeline is
    tabulable: the batched simulation kernels resolve a signature to its
    table indices with one list subscript per table instead of
    splitmix64 rounds.  ``columns`` holds one Python list per table,
    indexed directly by signature, for the scalar hot paths;
    ``columns_np`` holds the same values as contiguous int64 arrays for
    vectorized signature lowering.  The list entries are drawn from one
    shared pool of ``range(1 << index_bits)`` ints, so a column costs one
    pointer per signature.

    The value is a pure function of :attr:`key` ``(num_tables,
    index_bits, signature_bits)``, built once per process by
    :func:`skewed_index_columns` and never mutated afterwards.  It
    pickles as its key and unpickles as the receiving process's own memo:
    an engine snapshot carries three integers instead of the columns, and
    every kernel that shared them before pickling shares them afterwards.
    """

    def __reduce__(self):
        return (skewed_index_columns, self.key)


# Process-wide memo of the full-signature-space columns.  The values are
# pure functions of the key (deterministic hash pipeline over a fixed
# range) and are never mutated after construction, so sharing them across
# banks/kernels cannot couple simulations.
_COLUMN_MEMO: dict[tuple[int, int, int], SkewedIndexColumns] = {}


def skewed_index_columns(
    num_tables: int, index_bits: int, signature_bits: int
) -> SkewedIndexColumns:
    """The memoized full-space index columns (shared; read-only).

    Bit-identical to :func:`skewed_indices` for every signature: the
    splitmix64 rounds and the XOR fold run vectorized in numpy over the
    whole signature space.
    """
    key = (num_tables, index_bits, signature_bits)
    cached = _COLUMN_MEMO.get(key)
    if cached is not None:
        return cached
    if not 1 <= num_tables <= len(_TABLE_TWEAKS):
        raise ValueError(
            f"num_tables must be in [1, {len(_TABLE_TWEAKS)}], got {num_tables}"
        )
    if index_bits <= 0:
        raise ValueError(f"index_bits must be positive, got {index_bits}")
    import numpy as np  # lazy: only the batch kernels build these columns

    index_mask = np.uint64((1 << index_bits) - 1)
    shift = np.uint64(index_bits)
    signatures = np.arange(1 << signature_bits, dtype=np.uint64)
    columns_np = []
    for t in range(num_tables):
        value = signatures ^ np.uint64(_TABLE_TWEAKS[t])
        value = value + np.uint64(SPLITMIX_INC)
        value = (value ^ (value >> np.uint64(30))) * np.uint64(MIX_MULT_1)
        value = (value ^ (value >> np.uint64(27))) * np.uint64(MIX_MULT_2)
        value = value ^ (value >> np.uint64(31))
        folded = np.zeros_like(value)
        while value.any():
            folded ^= value & index_mask
            value >>= shift
        columns_np.append(folded.astype(np.int64))
    pool = list(range(1 << index_bits))
    columns = tuple(
        list(map(pool.__getitem__, column.tolist())) for column in columns_np
    )
    cached = SkewedIndexColumns((columns, tuple(columns_np)))
    cached.key = key
    _COLUMN_MEMO[key] = cached
    return cached
