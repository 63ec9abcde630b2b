import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragfield.errors import InvalidInputError, UndefinedScoreError
from fragfield.evidence import (
    DEFAULT_W_MAX,
    EvaluationSample,
    calibrate_weights,
    exceedance_from_categorical,
    soft_confusion,
    soft_f1,
    weight_from_f1,
)


class TestExceedance:
    def test_cumulative(self):
        y = exceedance_from_categorical([0.2, 0.3, 0.5])
        assert y == pytest.approx([1.0, 0.8, 0.5])

    def test_zero(self):
        assert exceedance_from_categorical([0, 0, 0]) == pytest.approx([0, 0, 0])

    def test_certain_complete(self):
        assert exceedance_from_categorical([0, 0, 1]) == pytest.approx([1, 1, 1])

    def test_residual_mass(self):
        # sum < 1 leaves the remainder in the implicit no-damage bucket
        y = exceedance_from_categorical([0.1, 0.1, 0.1])
        assert y == pytest.approx([0.3, 0.2, 0.1])

    def test_rejects_oversum(self):
        with pytest.raises(InvalidInputError):
            exceedance_from_categorical([0.6, 0.6, 0.2])

    def test_batch_equals_each_row(self):
        rng = np.random.default_rng(8)
        soft = rng.dirichlet(np.ones(4), size=500)[:, 1:]
        batch = exceedance_from_categorical(soft)
        assert batch.shape == soft.shape
        rows = np.stack([exceedance_from_categorical(row) for row in soft])
        assert np.array_equal(batch, rows)

    @pytest.mark.parametrize(
        "bad_row", [[0.6, 0.6, 0.2], [-0.1, 0.2, 0.3], [0.2, 1.5, 0.0]]
    )
    def test_batch_rejects_one_bad_row(self, bad_row):
        batch = np.array([[0.2, 0.3, 0.5], bad_row, [0.1, 0.1, 0.1]])
        with pytest.raises(InvalidInputError):
            exceedance_from_categorical(batch)

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (2, 2, 3)])
    def test_rejects_empty_or_3d(self, shape):
        with pytest.raises(InvalidInputError):
            exceedance_from_categorical(np.zeros(shape))

    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=5).filter(
            lambda xs: sum(xs) <= 1.0
        )
    )
    @settings(max_examples=200)
    def test_monotone_nonincreasing(self, s):
        y = exceedance_from_categorical(s)
        assert np.all(np.diff(y) <= 1e-12)
        assert np.all((y >= 0) & (y <= 1))


class TestSoftConfusion:
    def test_single_positive(self):
        smp = EvaluationSample(o=(1, 1, 1), g=(0.9, 0.9, 0.9))
        assert soft_confusion([smp], 0) == pytest.approx((0.9, 0.0, 0.1))

    def test_single_negative(self):
        smp = EvaluationSample(o=(0, 0, 0), g=(0.9, 0.9, 0.9))
        assert soft_confusion([smp], 0) == pytest.approx((0.0, 0.9, 0.0))

    def test_perfect_hard(self):
        samples = [
            EvaluationSample(o=(1, 1, 0), g=(1, 1, 0)),
            EvaluationSample(o=(1, 0, 0), g=(1, 0, 0)),
        ]
        for j in range(3):
            tp, fp, fn = soft_confusion(samples, j)
            assert fp == 0.0 and fn == 0.0

    def test_reduces_to_hard_confusion(self):
        rng = np.random.default_rng(5)
        samples = []
        for _ in range(200):
            d = rng.integers(0, 4)
            o = tuple(1.0 if d >= j else 0.0 for j in (1, 2, 3))
            gd = rng.integers(0, 4)
            g = tuple(1.0 if gd >= j else 0.0 for j in (1, 2, 3))
            samples.append(EvaluationSample(o=o, g=g))
        for j in range(3):
            tp, fp, fn = soft_confusion(samples, j)
            hard_tp = sum(s.g[j] == 1 and s.o[j] == 1 for s in samples)
            hard_fp = sum(s.g[j] == 1 and s.o[j] == 0 for s in samples)
            hard_fn = sum(s.g[j] == 0 and s.o[j] == 1 for s in samples)
            assert (tp, fp, fn) == (hard_tp, hard_fp, hard_fn)

    def test_tp_fn_sum_to_positives(self):
        rng = np.random.default_rng(6)
        samples = [
            EvaluationSample(
                o=(1, 1, 1) if rng.random() < 0.5 else (0, 0, 0),
                g=tuple(rng.uniform(0, 1, 3)),
            )
            for _ in range(50)
        ]
        tp, _, fn = soft_confusion(samples, 1)
        assert tp + fn == pytest.approx(sum(s.o[1] for s in samples))

    def test_empty(self):
        with pytest.raises(InvalidInputError):
            soft_confusion([], 0)

    def test_sample_validation(self):
        with pytest.raises(InvalidInputError):
            EvaluationSample(o=(0, 1, 0), g=(0.5, 0.5, 0.5))  # increasing o
        with pytest.raises(InvalidInputError):
            EvaluationSample(o=(1, 0.5, 0), g=(0.5, 0.5, 0.5))  # non-binary o


class TestSoftF1:
    def test_values(self):
        assert soft_f1(0.9, 0.0, 0.1) == pytest.approx(1.8 / 1.9)
        assert soft_f1(1, 0, 0) == 1.0
        assert soft_f1(1, 1, 1) == 0.5

    def test_undefined(self):
        with pytest.raises(UndefinedScoreError):
            soft_f1(0, 0, 0)


class TestWeightFromF1:
    def test_zero(self):
        assert weight_from_f1(0.0) == 0.0

    def test_exact_quarter_loss(self):
        assert weight_from_f1(0.75) == pytest.approx(4.0, abs=1e-12)

    def test_typical_value(self):
        assert weight_from_f1(0.90) == pytest.approx(-2 * math.log2(0.1), abs=1e-12)

    def test_perfect_clamps_with_warning(self):
        with pytest.warns(RuntimeWarning):
            assert weight_from_f1(1.0) == 30.0

    def test_near_perfect_clamps(self):
        with pytest.warns(RuntimeWarning):
            assert weight_from_f1(1 - 2**-20) == 30.0

    def test_custom_cap(self):
        with pytest.warns(RuntimeWarning):
            assert weight_from_f1(1.0, w_max=12.5) == 12.5

    @given(st.floats(0.0, 0.99))
    @settings(max_examples=100)
    def test_halving_law(self, f1):
        # +2 weight units <=> halving the residual error
        lhs = weight_from_f1(f1) + 2.0
        rhs = weight_from_f1(1.0 - (1.0 - f1) / 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(st.floats(0.0, 0.95), st.floats(0.001, 0.04))
    @settings(max_examples=100)
    def test_monotone(self, f1, df):
        assert weight_from_f1(f1 + df) > weight_from_f1(f1)


class TestCalibration:
    def test_weights_and_f1_per_state(self):
        samples = [
            EvaluationSample(o=(1, 1, 0), g=(0.95, 0.8, 0.1)),
            EvaluationSample(o=(1, 0, 0), g=(0.9, 0.2, 0.05)),
            EvaluationSample(o=(0, 0, 0), g=(0.1, 0.05, 0.02)),
        ]
        w, f1 = calibrate_weights(samples, 12.5)
        assert w.shape == f1.shape == (3,)
        assert np.all(w >= 0)
        for j in range(3):
            expected_f1 = soft_f1(*soft_confusion(samples, j))
            assert f1[j] == expected_f1
            assert w[j] == weight_from_f1(expected_f1, w_max=12.5)

    def test_empty(self):
        with pytest.raises(InvalidInputError):
            calibrate_weights([], DEFAULT_W_MAX)
