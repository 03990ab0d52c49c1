"""Fast-path kernel for the hashed perceptron direction predictor.

Fuses ``predict`` + stats + ``update`` into one call with the splitmix64
mixer inlined and per-segment history masks precomputed.  Weight tables
are aliased; only the history registers, the prediction-cache scalars, and
the accuracy counters are kernel-local, flushed by :meth:`sync`.

Batch windows exploit the same dataflow fact as the GHRP chains: the
outcome and path histories are pure functions of the conditional-branch
stream, independent of the weight tables, so every table index for every
branch in a window precomputes in numpy.  The chunk loop then only sums
aliased weight rows and applies the saturating train rule.
"""

from __future__ import annotations

from repro.branch.perceptron import HashedPerceptronPredictor
from repro.kernel.ghrp import history_chain
from repro.kernel.tokenizer import HAVE_NUMPY
from repro.util.bits import mask

if HAVE_NUMPY:
    import numpy as _np

__all__ = ["HashedPerceptronKernel"]

_U64 = (1 << 64) - 1
_SPLITMIX_INC = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB


class HashedPerceptronKernel:
    """One-call predict-and-update over aliased weight tables."""

    __slots__ = (
        "predictor",
        "_weights",
        "_entries_mask",
        "_num_tables",
        "_theta",
        "_weight_min",
        "_weight_max",
        "_history_mask",
        "_path_mask",
        "_segment_params",
        "_outcome_history",
        "_path_history",
        "_last_sum",
        "_indices",
        "_d_predictions",
        "_d_mispredictions",
        "_window_span",
        "_window_flush",
    )

    def __init__(self, predictor: HashedPerceptronPredictor):
        self.predictor = predictor
        self._weights = list(predictor._weights)  # outer copy, rows aliased
        self._entries_mask = predictor._entries_mask
        self._num_tables = predictor.num_tables
        self._theta = predictor.theta
        self._weight_min = predictor._weight_min
        self._weight_max = predictor._weight_max
        self._history_mask = mask(predictor.history_bits)
        self._path_mask = mask(predictor.path_bits)
        path_bits = predictor.path_bits
        # (tweak, outcome-segment mask, path-segment mask) per history table.
        self._segment_params = tuple(
            (end, mask(end), mask(min(end, path_bits)))
            for end in predictor._segments
        )
        self._outcome_history = predictor._outcome_history
        self._path_history = predictor._path_history
        self._last_sum = predictor._last_sum
        self._indices = [0] * predictor.num_tables
        self._d_predictions = 0
        self._d_mispredictions = 0
        self._window_span = None
        self._window_flush = None

    def state_digest(self) -> dict:
        """Canonical export of the predictor's live state (sentinel hook)."""
        return {
            "kernel": type(self).__name__,
            "weights": self._weights,
            "outcome_history": self._outcome_history,
            "path_history": self._path_history,
            "last_sum": self._last_sum,
            "indices": self._indices,
            "delta_predictions": self._d_predictions,
            "delta_mispredictions": self._d_mispredictions,
        }

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        pc_hash = (pc >> 2) & 0x3FFFFFFF
        entries_mask = self._entries_mask
        outcome_history = self._outcome_history
        path_history = self._path_history
        weights = self._weights
        indices = self._indices

        index = pc_hash & entries_mask  # bias table
        indices[0] = index
        total = weights[0][index]
        t = 1
        for end, outcome_mask, path_mask in self._segment_params:
            # mix64(outcome_segment ^ (path_segment << 1), tweak=end), inlined.
            value = (
                (outcome_history & outcome_mask)
                ^ ((path_history & path_mask) << 1)
                ^ end
            ) & _U64
            value = (value + _SPLITMIX_INC) & _U64
            value = ((value ^ (value >> 30)) * _MIX_MULT_1) & _U64
            value = ((value ^ (value >> 27)) * _MIX_MULT_2) & _U64
            index = ((value ^ (value >> 31)) ^ pc_hash) & entries_mask
            indices[t] = index
            total += weights[t][index]
            t += 1

        prediction = total >= 0
        self._last_sum = total
        self._d_predictions += 1
        if prediction != taken:
            self._d_mispredictions += 1
            train = True
        else:
            train = -self._theta <= total <= self._theta
        if train:
            delta = 1 if taken else -1
            weight_min = self._weight_min
            weight_max = self._weight_max
            for t in range(self._num_tables):
                row = weights[t]
                index = indices[t]
                weight = row[index] + delta
                if weight > weight_max:
                    weight = weight_max
                elif weight < weight_min:
                    weight = weight_min
                row[index] = weight
        self._outcome_history = (
            (outcome_history << 1) | (1 if taken else 0)
        ) & self._history_mask
        self._path_history = ((path_history << 4) | ((pc >> 2) & 0xF)) & self._path_mask
        return prediction

    def reload(self) -> None:
        predictor = self.predictor
        self._outcome_history = predictor._outcome_history
        self._path_history = predictor._path_history
        self._last_sum = predictor._last_sum
        self._window_span = None
        self._window_flush = None

    def sync(self) -> None:
        if self._window_flush is not None:
            self._window_flush()
        predictor = self.predictor
        predictor._outcome_history = self._outcome_history
        predictor._path_history = self._path_history
        predictor._last_sum = self._last_sum
        # update() leaves the prediction cache cleared after every branch.
        predictor._last_indices = None
        stats = predictor.stats
        stats.predictions += self._d_predictions
        stats.mispredictions += self._d_mispredictions
        self._d_predictions = 0
        self._d_mispredictions = 0

    # ------------------------------------------------------------------
    # Batch executors
    # ------------------------------------------------------------------
    def _index_columns(self, tokens):
        """Per-conditional-branch table indices for this window.

        Both history registers advance on *every* conditional branch
        regardless of the prediction, so their chains (and therefore all
        table indices) are pure functions of the ``(cpc, ctaken)`` stream
        and the window's seed registers — precompute everything.
        """
        predictor = self.predictor
        key = (
            "perceptron-indices",
            self._entries_mask,
            self._segment_params,
            predictor.history_bits,
            predictor.path_bits,
            self._outcome_history,
            self._path_history,
        )

        def build():
            np = _np
            cpc = np.asarray(tokens.cpc, dtype=np.int64)
            count = len(cpc)
            otaken = np.asarray(tokens.ctaken, dtype=np.uint64)
            oh = history_chain(otaken, 1, predictor.history_bits, self._outcome_history, count)
            pbits = ((cpc >> 2) & 0xF).astype(np.uint64)
            ph = history_chain(pbits, 4, predictor.path_bits, self._path_history, count)
            oh_pre = oh[:-1]
            ph_pre = ph[:-1]
            pc_hash = ((cpc >> 2) & 0x3FFFFFFF).astype(np.uint64)
            entries_mask = np.uint64(self._entries_mask)
            columns = [(pc_hash & entries_mask).astype(np.int64).tolist()]
            for end, outcome_mask, path_mask in self._segment_params:
                value = (
                    (oh_pre & np.uint64(outcome_mask))
                    ^ ((ph_pre & np.uint64(path_mask)) << np.uint64(1))
                    ^ np.uint64(end)
                )
                value += np.uint64(_SPLITMIX_INC)
                value = (value ^ (value >> np.uint64(30))) * np.uint64(_MIX_MULT_1)
                value = (value ^ (value >> np.uint64(27))) * np.uint64(_MIX_MULT_2)
                value ^= value >> np.uint64(31)
                columns.append(
                    ((value ^ pc_hash) & entries_mask).astype(np.int64).tolist()
                )
            return oh.tolist(), ph.tolist(), tuple(columns)

        return tokens.view(key, build)

    def begin_window(self, tokens):
        """Bind batch state for a window; returns the chunk span callable.

        Returns ``None`` when this predictor configuration cannot be
        chain-precomputed (history registers wider than uint64), in which
        case the engine's direction-stream executor calls
        :meth:`predict_and_update` per conditional branch.
        """
        if not HAVE_NUMPY:
            return None
        predictor = self.predictor
        if predictor.history_bits > 64 or predictor.path_bits > 64:
            return None
        oh_l, ph_l, columns = self._index_columns(tokens)
        cond_end = tokens.cond_end
        ctaken = tokens.ctaken
        weights = self._weights
        theta = self._theta
        neg_theta = -theta
        weight_min = self._weight_min
        weight_max = self._weight_max
        num_tables = self._num_tables
        unrolled = num_tables == 8 and len(columns) == 8
        if unrolled:
            w0, w1, w2, w3, w4, w5, w6, w7 = weights
            i0, i1, i2, i3, i4, i5, i6, i7 = columns
        table_pairs = tuple(zip(weights, columns, strict=True))
        cursor = 0
        last_sum = self._last_sum
        d_pred = 0
        d_misp = 0

        def span(lo: int, hi: int) -> None:
            nonlocal cursor, last_sum, d_pred, d_misp
            end = cond_end[hi - 1] if hi > 0 else 0
            j = cursor
            if j >= end:
                return
            total = last_sum
            if unrolled:
                while j < end:
                    a0 = i0[j]
                    a1 = i1[j]
                    a2 = i2[j]
                    a3 = i3[j]
                    a4 = i4[j]
                    a5 = i5[j]
                    a6 = i6[j]
                    a7 = i7[j]
                    total = (
                        w0[a0]
                        + w1[a1]
                        + w2[a2]
                        + w3[a3]
                        + w4[a4]
                        + w5[a5]
                        + w6[a6]
                        + w7[a7]
                    )
                    taken = ctaken[j]
                    d_pred += 1
                    if (total >= 0) != taken:
                        d_misp += 1
                        train = True
                    else:
                        train = neg_theta <= total <= theta
                    if train:
                        if taken:
                            v = w0[a0] + 1
                            w0[a0] = v if v <= weight_max else weight_max
                            v = w1[a1] + 1
                            w1[a1] = v if v <= weight_max else weight_max
                            v = w2[a2] + 1
                            w2[a2] = v if v <= weight_max else weight_max
                            v = w3[a3] + 1
                            w3[a3] = v if v <= weight_max else weight_max
                            v = w4[a4] + 1
                            w4[a4] = v if v <= weight_max else weight_max
                            v = w5[a5] + 1
                            w5[a5] = v if v <= weight_max else weight_max
                            v = w6[a6] + 1
                            w6[a6] = v if v <= weight_max else weight_max
                            v = w7[a7] + 1
                            w7[a7] = v if v <= weight_max else weight_max
                        else:
                            v = w0[a0] - 1
                            w0[a0] = v if v >= weight_min else weight_min
                            v = w1[a1] - 1
                            w1[a1] = v if v >= weight_min else weight_min
                            v = w2[a2] - 1
                            w2[a2] = v if v >= weight_min else weight_min
                            v = w3[a3] - 1
                            w3[a3] = v if v >= weight_min else weight_min
                            v = w4[a4] - 1
                            w4[a4] = v if v >= weight_min else weight_min
                            v = w5[a5] - 1
                            w5[a5] = v if v >= weight_min else weight_min
                            v = w6[a6] - 1
                            w6[a6] = v if v >= weight_min else weight_min
                            v = w7[a7] - 1
                            w7[a7] = v if v >= weight_min else weight_min
                    j += 1
            else:
                while j < end:
                    total = 0
                    for row, col in table_pairs:
                        total += row[col[j]]
                    taken = ctaken[j]
                    d_pred += 1
                    if (total >= 0) != taken:
                        d_misp += 1
                        train = True
                    else:
                        train = neg_theta <= total <= theta
                    if train:
                        delta = 1 if taken else -1
                        for row, col in table_pairs:
                            index = col[j]
                            weight = row[index] + delta
                            if weight > weight_max:
                                weight = weight_max
                            elif weight < weight_min:
                                weight = weight_min
                            row[index] = weight
                    j += 1
            cursor = j
            last_sum = total

        def flush() -> None:
            nonlocal d_pred, d_misp
            self._d_predictions += d_pred
            self._d_mispredictions += d_misp
            d_pred = 0
            d_misp = 0
            self._last_sum = last_sum
            self._outcome_history = oh_l[cursor]
            self._path_history = ph_l[cursor]
            if cursor > 0:
                indices = self._indices
                j = cursor - 1
                for t, col in enumerate(columns):
                    indices[t] = col[j]

        self._window_span = span
        self._window_flush = flush
        return span
