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
    "full_space_table",
    "FullSpaceIndexTable",
]

_U64 = (1 << 64) - 1

# Large odd constants from the splitmix64 reference implementation.
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB

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
    value = (value + 0x9E3779B97F4A7C15) & _U64
    value = ((value ^ (value >> 30)) * _MIX_MULT_1) & _U64
    value = ((value ^ (value >> 27)) * _MIX_MULT_2) & _U64
    return value ^ (value >> 31)


def mix64(value: int, tweak: int = 0) -> int:
    """Mix ``value`` with an optional ``tweak`` selecting the hash function."""
    return splitmix64((value ^ tweak) & _U64)


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


class FullSpaceIndexTable(dict):
    """Signature → per-table indices over a whole signature space.

    Signatures are narrow (12-16 bits), so the whole hash pipeline is
    tabulable: the batched simulation kernels resolve a signature to its
    ``num_tables`` indices with one dict lookup instead of ``num_tables``
    splitmix64 rounds.  The table is a pure function of :attr:`key`
    ``(num_tables, index_bits, signature_bits)``, built once per process
    by :func:`full_space_table` and never mutated afterwards, so kernels
    index it directly with no miss path.  It pickles as its key and
    unpickles as the receiving process's own memo: an engine snapshot
    carries three integers instead of the table, and every kernel that
    shared the table before pickling shares it afterwards.
    """

    __slots__ = ("key",)

    def __reduce__(self):
        return (full_space_table, self.key)


# Process-wide memos for the full-signature-space tables.  The values are
# pure functions of the key (deterministic hash pipeline over a fixed
# range) and are never mutated after construction, so sharing them across
# banks/kernels cannot couple simulations.
_FULL_TABLE_MEMO: dict[tuple[int, int, int], FullSpaceIndexTable] = {}
_COLUMN_MEMO: dict[tuple[int, int, int], tuple] = {}


def full_space_table(
    num_tables: int, index_bits: int, signature_bits: int
) -> FullSpaceIndexTable:
    """The memoized full-space signature → indices table (shared; read-only).

    Bit-identical to :func:`skewed_indices` for every signature; computed
    vectorized in numpy.
    """
    key = (num_tables, index_bits, signature_bits)
    table = _FULL_TABLE_MEMO.get(key)
    if table is not None:
        return table
    if not 1 <= num_tables <= len(_TABLE_TWEAKS):
        raise ValueError(
            f"num_tables must be in [1, {len(_TABLE_TWEAKS)}], got {num_tables}"
        )
    if index_bits <= 0:
        raise ValueError(f"index_bits must be positive, got {index_bits}")
    import numpy as np  # lazy: only the batch kernels build these tables

    index_mask = np.uint64((1 << index_bits) - 1)
    shift = np.uint64(index_bits)
    signatures = np.arange(1 << signature_bits, dtype=np.uint64)
    columns = []
    for t in range(num_tables):
        value = signatures ^ np.uint64(_TABLE_TWEAKS[t])
        value = value + np.uint64(0x9E3779B97F4A7C15)
        value = (value ^ (value >> np.uint64(30))) * np.uint64(_MIX_MULT_1)
        value = (value ^ (value >> np.uint64(27))) * np.uint64(_MIX_MULT_2)
        value = value ^ (value >> np.uint64(31))
        folded = np.zeros_like(value)
        while value.any():
            folded ^= value & index_mask
            value >>= shift
        columns.append(folded.tolist())
    table = FullSpaceIndexTable(enumerate(zip(*columns, strict=True)))
    table.key = key
    _FULL_TABLE_MEMO[key] = table
    return table


def skewed_index_columns(num_tables: int, index_bits: int, signature_bits: int):
    """Full-space signature → per-table index *columns*, memoized.

    Returns ``(columns, columns_np)``: one Python list and one contiguous
    int64 array per table, each indexed directly by signature.
    Bit-identical to :func:`skewed_indices` by construction; the batched
    kernels index the lists on the scalar hot path and use the arrays for
    vectorized signature lowering.
    """
    key = (num_tables, index_bits, signature_bits)
    cached = _COLUMN_MEMO.get(key)
    if cached is not None:
        return cached
    lookup = full_space_table(num_tables, index_bits, signature_bits)
    total = 1 << signature_bits
    rows = [lookup[signature] for signature in range(total)]
    import numpy as np

    matrix = np.asarray(rows, dtype=np.int64)
    columns_np = tuple(
        np.ascontiguousarray(matrix[:, t]) for t in range(num_tables)
    )
    columns = tuple(column.tolist() for column in columns_np)
    cached = (columns, columns_np)
    _COLUMN_MEMO[key] = cached
    return cached
