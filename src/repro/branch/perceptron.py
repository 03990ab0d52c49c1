"""Hashed perceptron branch prediction (Tarjan & Skadron, TACO 2005).

The paper's direction predictor (Section II-D / IV-A): it "merges the
concepts behind the gshare, path-based and perceptron branch predictors".
Instead of one weight per history bit, the outcome and path histories are
cut into segments; each segment is hashed (together with the branch PC)
into an index for one weight table.  The prediction is the sign of the sum
of the selected weights, and training adjusts exactly those weights when
the prediction was wrong or the sum's magnitude fell below a threshold.

The front end calls :meth:`HashedPerceptronPredictor.predict_and_update`
once per conditional branch, so that is the hot path: one pass computes
every table index (the splitmix64 mixer inlined, each segment's masks
precomputed) and sums the selected weights, then one pass trains.  The
split :meth:`~HashedPerceptronPredictor.predict` /
:meth:`~HashedPerceptronPredictor.update` calls share the same index
computation and leave the same state.
"""

from __future__ import annotations

from repro.branch.base import BranchDirectionPredictor
from repro.util.bits import mask
from repro.util.hashing import MIX_MULT_1, MIX_MULT_2, SPLITMIX_INC, U64

__all__ = ["HashedPerceptronPredictor"]


class HashedPerceptronPredictor(BranchDirectionPredictor):
    """Perceptron over hashed history segments.

    Parameters
    ----------
    num_tables:
        Number of weight tables; table 0 is indexed by PC alone (bias
        weight), the rest by increasingly long history segments — the
        geometric history lengths idea.
    table_entries:
        Entries per weight table (power of two).
    history_bits:
        Total global outcome-history length.
    path_bits:
        Total path-history (low PC bits of past branches) length.
    weight_bits:
        Saturating weight width (7 bits: [-64, 63], the usual choice).
    theta:
        Training threshold; defaults to the perceptron paper's
        ``1.93 * h + 14`` rule of thumb over the mean segment length.
    """

    name = "hashed-perceptron"

    def __init__(
        self,
        num_tables: int = 8,
        table_entries: int = 4096,
        history_bits: int = 64,
        path_bits: int = 32,
        weight_bits: int = 7,
        theta: int | None = None,
    ):
        super().__init__()
        if num_tables < 2:
            raise ValueError(f"need >= 2 tables (bias + history), got {num_tables}")
        self.num_tables = num_tables
        self._entries_mask = table_entries - 1
        if table_entries & self._entries_mask:
            raise ValueError(f"table_entries must be a power of two, got {table_entries}")
        self.history_bits = history_bits
        self.path_bits = path_bits
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self._weight_min = -(1 << (weight_bits - 1))
        # Geometric-ish segment end points over the outcome history.
        self._segments = self._geometric_segments(num_tables - 1, history_bits)
        # mix64's per-segment arguments, precomputed: (tweak, outcome-segment
        # mask, path-segment mask) for each history table.
        self._segment_params = tuple(
            (end, mask(end), mask(min(end, path_bits))) for end in self._segments
        )
        self._history_mask = mask(history_bits)
        self._path_mask = mask(path_bits)
        mean_segment = history_bits / (num_tables - 1)
        self.theta = theta if theta is not None else int(1.93 * mean_segment + 14)
        self._weights = [[0] * table_entries for _ in range(num_tables)]
        self._outcome_history = 0
        self._path_history = 0
        # Cached between predict() and update() for the same branch.
        self._last_indices: tuple[int, ...] | None = None
        self._last_sum = 0

    @staticmethod
    def _geometric_segments(count: int, total_bits: int) -> tuple[int, ...]:
        """End offsets of ``count`` history segments covering ``total_bits``.

        Geometric spacing gives short segments fine resolution and long
        segments reach, as in perceptron/TAGE-style predictors.
        """
        ratio = total_bits ** (1.0 / count)
        ends = []
        for i in range(1, count + 1):
            end = max(int(round(ratio**i)), i)
            ends.append(min(end, total_bits))
        # Ensure strictly increasing coverage.
        for i in range(1, count):
            if ends[i] <= ends[i - 1]:
                ends[i] = min(ends[i - 1] + 1, total_bits)
        ends[-1] = total_bits
        return tuple(ends)

    def _lookup(self, pc: int) -> tuple[list[int], int]:
        """Every table's index for ``pc`` and the sum of the selected weights.

        Table ``t > 0`` is indexed by ``mix64(outcome_segment ^
        (path_segment << 1), tweak=end) ^ pc_hash`` over its history
        segment; the mixer is inlined here.
        """
        pc_hash = (pc >> 2) & 0x3FFFFFFF
        entries_mask = self._entries_mask
        outcome_history = self._outcome_history
        path_history = self._path_history
        weights = self._weights
        index = pc_hash & entries_mask  # bias table
        indices = [index]
        total = weights[0][index]
        for t, (tweak, outcome_mask, path_mask) in enumerate(self._segment_params, 1):
            value = (
                (outcome_history & outcome_mask)
                ^ ((path_history & path_mask) << 1)
                ^ tweak
            ) & U64
            value = (value + SPLITMIX_INC) & U64
            value = ((value ^ (value >> 30)) * MIX_MULT_1) & U64
            value = ((value ^ (value >> 27)) * MIX_MULT_2) & U64
            index = ((value ^ (value >> 31)) ^ pc_hash) & entries_mask
            indices.append(index)
            total += weights[t][index]
        return indices, total

    def _train(
        self, pc: int, taken: bool, indices: list[int] | tuple[int, ...], total: int
    ) -> None:
        """Apply the training rule for one resolved branch; advance histories."""
        # Perceptron training rule: update on misprediction or low confidence.
        theta = self.theta
        if (total >= 0) != taken or -theta <= total <= theta:
            delta = 1 if taken else -1
            weight_min = self._weight_min
            weight_max = self._weight_max
            weights = self._weights
            for t, index in enumerate(indices):
                row = weights[t]
                weight = row[index] + delta
                if weight > weight_max:
                    weight = weight_max
                elif weight < weight_min:
                    weight = weight_min
                row[index] = weight
        self._outcome_history = (
            (self._outcome_history << 1) | (1 if taken else 0)
        ) & self._history_mask
        self._path_history = (
            (self._path_history << 4) | ((pc >> 2) & 0xF)
        ) & self._path_mask

    def predict(self, pc: int) -> bool:
        indices, total = self._lookup(pc)
        self._last_indices = tuple(indices)
        self._last_sum = total
        return total >= 0

    def update(self, pc: int, taken: bool) -> None:
        indices = self._last_indices
        if indices is None:
            indices, self._last_sum = self._lookup(pc)
        self._last_indices = None
        self._train(pc, taken, indices, self._last_sum)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Fused :meth:`predict`, accuracy bookkeeping and :meth:`update`.

        One index computation per branch; the state left behind (weights,
        both histories, ``_last_sum``, the cleared prediction cache, and
        the stats) is exactly what the split calls leave.
        """
        indices, total = self._lookup(pc)
        self._last_indices = None
        self._last_sum = total
        prediction = total >= 0
        stats = self.stats
        stats.predictions += 1
        if prediction != taken:
            stats.mispredictions += 1
        self._train(pc, taken, indices, total)
        return prediction
