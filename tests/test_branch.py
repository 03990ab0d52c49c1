"""Tests for direction predictors and the return address stack."""

import pytest

from repro.branch.bimodal import BimodalPredictor
from repro.branch.perceptron import HashedPerceptronPredictor
from repro.branch.ras import ReturnAddressStack
from repro.util.rng import DeterministicRng


def accuracy(predictor, trace):
    for pc, taken in trace:
        predictor.predict_and_update(pc, taken)
    return predictor.stats.accuracy


def biased_trace(bias=0.9, length=2000, seed=1):
    rng = DeterministicRng(seed)
    return [(0x1000, rng.random() < bias) for _ in range(length)]


def alternating_trace(length=2000):
    return [(0x1000, i % 2 == 0) for i in range(length)]


def correlated_trace(length=3000):
    """Branch B is taken iff branch A was taken — pure history correlation."""
    rng = DeterministicRng(7)
    trace = []
    for _ in range(length // 2):
        a_taken = rng.random() < 0.5
        trace.append((0x1000, a_taken))
        trace.append((0x2000, a_taken))
    return trace


class TestBimodal:
    def test_learns_bias(self):
        assert accuracy(BimodalPredictor(), biased_trace(0.95)) > 0.9

    def test_fails_on_alternation(self):
        # A 2-bit counter cannot track strict alternation well.
        assert accuracy(BimodalPredictor(), alternating_trace()) < 0.7

    def test_cannot_learn_correlation(self):
        # B is 50/50 in isolation; bimodal gets ~75% overall (A is
        # unpredictable too, so both hover at 50%: overall ~50%).
        assert accuracy(BimodalPredictor(), correlated_trace()) < 0.65

    def test_distinct_pcs_independent(self):
        predictor = BimodalPredictor()
        for _ in range(100):
            predictor.predict_and_update(0x1000, True)
            predictor.predict_and_update(0x2000, False)
        assert predictor.predict(0x1000) is True
        assert predictor.predict(0x2000) is False


class TestHashedPerceptron:
    def test_learns_bias(self):
        assert accuracy(HashedPerceptronPredictor(), biased_trace(0.95)) > 0.9

    def test_learns_alternation(self):
        assert accuracy(HashedPerceptronPredictor(), alternating_trace()) > 0.95

    def test_learns_correlation_better_than_bimodal(self):
        perceptron_acc = accuracy(HashedPerceptronPredictor(), correlated_trace())
        bimodal_acc = accuracy(BimodalPredictor(), correlated_trace())
        assert perceptron_acc > bimodal_acc + 0.15

    def test_needs_two_tables(self):
        with pytest.raises(ValueError):
            HashedPerceptronPredictor(num_tables=1)

    def test_table_entries_power_of_two(self):
        with pytest.raises(ValueError):
            HashedPerceptronPredictor(table_entries=1000)

    def test_segments_cover_history(self):
        predictor = HashedPerceptronPredictor(num_tables=8, history_bits=64)
        assert predictor._segments[-1] == 64
        assert list(predictor._segments) == sorted(set(predictor._segments))

    def test_update_without_predict(self):
        predictor = HashedPerceptronPredictor()
        predictor.update(0x1000, True)  # must not raise
        assert predictor.predict(0x1000) in (True, False)


class TestRAS:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(4)
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_wraps(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)  # overwrites the oldest
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None  # 1 was overwritten

    def test_pop_and_check(self):
        ras = ReturnAddressStack(4)
        ras.push(0x104)
        assert ras.pop_and_check(0x104)
        ras.push(0x104)
        assert not ras.pop_and_check(0x999)
        assert ras.correct_pops == 1

    def test_occupancy_and_clear(self):
        ras = ReturnAddressStack(4)
        ras.push(1)
        ras.push(2)
        assert ras.occupancy == 2
        ras.clear()
        assert ras.occupancy == 0
        assert ras.pop() is None

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)
