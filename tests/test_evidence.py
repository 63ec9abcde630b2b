import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragfield.errors import InvalidInputError, UndefinedScoreError
from fragfield.evidence import (
    DEFAULT_W_MAX,
    calibrate_weights,
    exceedance_from_categorical,
    soft_f1,
    weight_from_f1,
)
from fragfield.experiment import (
    _streams,
    default_config,
    generate_inventory,
    generate_truth,
    hard_exceedance,
    prepare,
    simulate_observer,
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


def _scalar_calibration(o, g, w_max):
    """The per-sample loop calibrate_weights replaced: each state's soft
    confusion counts added one sample at a time, in order."""
    f1 = []
    for j in range(len(o[0])):
        tp = fp = fn = 0.0
        for ok, gk in zip(o, g):
            tp += float(gk[j]) * float(ok[j])
            fp += float(gk[j]) * (1.0 - float(ok[j]))
            fn += (1.0 - float(gk[j])) * float(ok[j])
        f1.append(soft_f1(tp, fp, fn))
    return [weight_from_f1(f, w_max=w_max) for f in f1], f1


def _f1(o, g):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # perfect F1 clamps
        return calibrate_weights(o, g, DEFAULT_W_MAX)[1]


class TestSoftConfusion:
    """The soft confusion counts, seen through calibrate_weights' F1."""

    def test_single_positive(self):
        # TP 0.9, FP 0, FN 0.1
        assert _f1([[1, 1, 1]], [[0.9, 0.9, 0.9]]) == pytest.approx([1.8 / 1.9] * 3)

    def test_single_negative(self):
        # TP 0, FP 0.9, FN 0
        assert np.array_equal(_f1([[0, 0, 0]], [[0.9, 0.9, 0.9]]), [0.0] * 3)

    def test_perfect_hard(self):
        o = [[1, 1, 1], [1, 0, 0]]
        assert np.array_equal(_f1(o, o), [1.0] * 3)

    def test_reduces_to_hard_confusion(self):
        rng = np.random.default_rng(5)
        states = np.array([1, 2, 3])
        o = (rng.integers(0, 4, 200)[:, None] >= states).astype(float)
        g = (rng.integers(0, 4, 200)[:, None] >= states).astype(float)
        hard = [
            soft_f1(
                np.sum((g[:, j] == 1) & (o[:, j] == 1)),
                np.sum((g[:, j] == 1) & (o[:, j] == 0)),
                np.sum((g[:, j] == 0) & (o[:, j] == 1)),
            )
            for j in range(3)
        ]
        assert np.array_equal(_f1(o, g), hard)

    def test_tp_fn_sum_to_positives(self):
        # TP + FN counts the positives and TP + FP the predicted mass, so
        # F1 = 2 TP / (TP + FN + TP + FP) = 2 sum(g*o) / (sum(o) + sum(g))
        rng = np.random.default_rng(6)
        o = np.repeat((rng.random(50) < 0.5)[:, None], 3, axis=1).astype(float)
        g = rng.uniform(0, 1, (50, 3))
        expected = 2 * np.sum(g * o, axis=0) / (np.sum(o, axis=0) + np.sum(g, axis=0))
        assert _f1(o, g) == pytest.approx(expected, rel=1e-12)

    def test_empty(self):
        with pytest.raises(InvalidInputError, match="empty calibration set"):
            calibrate_weights(np.zeros((0, 3)), np.zeros((0, 3)), DEFAULT_W_MAX)

    def test_state_without_f1_is_named(self):
        with pytest.raises(UndefinedScoreError, match="^soft F1 undefined for state complete: "):
            calibrate_weights([[1, 1, 0]], [[0.5, 0.5, 0.0]], DEFAULT_W_MAX)

    def test_sample_validation(self):
        for o, g, message in (
            ([[0, 1, 0]], [[0.5, 0.5, 0.5]], "non-increasing"),
            ([[1, 0.5, 0]], [[0.5, 0.5, 0.5]], "must be 0 or 1"),
            ([[1, 1, 0]], [[0.5, 1.5, 0.5]], r"must lie in \[0, 1\]"),
            ([[1, 1, 0]], [[0.5, np.nan, 0.5]], r"must lie in \[0, 1\]"),
            ([[1, 1, 0]], [[0.5, 0.5]], "equal length"),
        ):
            with pytest.raises(InvalidInputError, match=message):
                calibrate_weights(o, g, DEFAULT_W_MAX)


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
        o = [[1, 1, 0], [1, 0, 0], [0, 0, 0]]
        g = [[0.95, 0.8, 0.1], [0.9, 0.2, 0.05], [0.1, 0.05, 0.02]]
        w, f1 = calibrate_weights(o, g, 12.5)
        assert w.shape == f1.shape == (3,)
        assert np.all(w >= 0)
        expected_w, expected_f1 = _scalar_calibration(o, g, 12.5)
        assert f1.tolist() == expected_f1
        assert w.tolist() == expected_w

    def test_equals_per_sample_loop_on_many_samples(self):
        # the counts add in sample order, as the scalar += loop does, so no
        # bit moves; a pairwise np.sum down each state's column moves the
        # last bit of all three F1 here
        rng = np.random.default_rng(9)
        states = np.array([1, 2, 3])
        o = (rng.integers(0, 4, 997)[:, None] >= states).astype(float)
        g = exceedance_from_categorical(rng.dirichlet(np.ones(4), size=997)[:, 1:])
        w, f1 = calibrate_weights(o, g, DEFAULT_W_MAX)
        expected_w, expected_f1 = _scalar_calibration(o, g, DEFAULT_W_MAX)
        assert f1.tolist() == expected_f1
        assert w.tolist() == expected_w

    def test_equals_per_sample_loop_on_default_calibration_draws(self):
        cfg = default_config()
        streams = _streams(cfg.seed)
        inv = generate_inventory(cfg, streams["inventory"])
        truth = generate_truth(inv, cfg.true_track, streams["truth"])
        rng = streams["calibration"]
        idx = rng.choice(len(inv.ids), size=cfg.observer.calibration_size, replace=False)
        soft = simulate_observer(truth[idx], cfg.observer, rng)
        o, g = hard_exceedance(truth[idx]), exceedance_from_categorical(soft[:, 1:])
        w, f1 = calibrate_weights(o, g, cfg.observer.w_max)
        expected_w, expected_f1 = _scalar_calibration(o, g, cfg.observer.w_max)
        assert f1.tolist() == expected_f1
        assert w.tolist() == expected_w
        # and these draws are the run's: its set-up reports the same calibration
        scenario = prepare(cfg)
        assert scenario.f1.tolist() == expected_f1
        assert scenario.weights.tolist() == expected_w

    def test_empty(self):
        with pytest.raises(InvalidInputError):
            calibrate_weights([], [], DEFAULT_W_MAX)
