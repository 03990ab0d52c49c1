"""Fast-path kernel for the hashed perceptron direction predictor.

Weight tables are aliased; only the history registers, the
prediction-cache scalars, and the accuracy counters are kernel-local,
flushed by :meth:`HashedPerceptronKernel.sync`.

Batch windows exploit the same dataflow fact as the GHRP chains: the
outcome and path histories are pure functions of the conditional-branch
stream, independent of the weight tables, so every table index for every
branch in a window precomputes in numpy.  The chunk loop then only sums
aliased weight rows and applies the saturating train rule.  The chains
are uint64 arrays, so the kernel replays only predictors whose history
registers fit in 64 bits; the build-time gate
(:func:`~repro.kernel.engine.fast_path_unsupported_reason`) sends wider
ones to the reference engine.
"""

from __future__ import annotations

import numpy as _np

from repro.branch.perceptron import HashedPerceptronPredictor
from repro.kernel.ghrp import history_chain
from repro.util.hashing import MIX_MULT_1, MIX_MULT_2, SPLITMIX_INC

__all__ = ["HashedPerceptronKernel"]


class HashedPerceptronKernel:
    """Chunked predict-and-update over aliased weight tables."""

    __slots__ = (
        "predictor",
        "_weights",
        "_entries_mask",
        "_num_tables",
        "_theta",
        "_weight_min",
        "_weight_max",
        "_segment_params",
        "_outcome_history",
        "_path_history",
        "_last_sum",
        "_indices",
        "_d_predictions",
        "_d_mispredictions",
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
        # (tweak, outcome-segment mask, path-segment mask) per history table.
        self._segment_params = predictor._segment_params
        self._outcome_history = predictor._outcome_history
        self._path_history = predictor._path_history
        self._last_sum = predictor._last_sum
        self._indices = [0] * predictor.num_tables
        self._d_predictions = 0
        self._d_mispredictions = 0
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

    def reload(self) -> None:
        predictor = self.predictor
        self._outcome_history = predictor._outcome_history
        self._path_history = predictor._path_history
        self._last_sum = predictor._last_sum
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
                value += np.uint64(SPLITMIX_INC)
                value = (value ^ (value >> np.uint64(30))) * np.uint64(MIX_MULT_1)
                value = (value ^ (value >> np.uint64(27))) * np.uint64(MIX_MULT_2)
                value ^= value >> np.uint64(31)
                columns.append(
                    ((value ^ pc_hash) & entries_mask).astype(np.int64).tolist()
                )
            return oh.tolist(), ph.tolist(), tuple(columns)

        return tokens.view(key, build)

    def begin_window(self, tokens):
        """Bind batch state for a window; returns the chunk span callable."""
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

        self._window_flush = flush
        return span
