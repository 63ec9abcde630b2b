"""Observation-source modeling: soft exceedance evidence and reliability weights.

Sources report categorical damage-state probabilities S = (S_1..S_nd) per
sample (residual mass 1 - sum(S) is the below-lowest-state bucket).  Exceedance
of threshold j aggregates the upper tail, y_j = sum_{chi >= j} S_chi.  Source
reliability per state is scored on a calibration set by a soft F1 and mapped
to an epistemic weight

    w = -2 * log2(1 - F1),

so every +2 units of weight halves the remaining prediction error.
``calibrate_weights`` does both for one source, from its calibration set as
two (n_samples, n_states) arrays: the true exceedance indicators and the
source's predicted exceedances.  The experiment runner calls it on its
simulated calibration draws; ``fragfield update`` reads ready-made weights
from its ``weights.csv`` and scores no calibration set itself.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import InvalidInputError, UndefinedScoreError
from .field_state import STATES

__all__ = [
    "exceedance_from_categorical",
    "soft_f1",
    "weight_from_f1",
    "calibrate_weights",
    "DEFAULT_W_MAX",
]

DEFAULT_W_MAX = 30.0

_SUM_TOL = 1e-9


def exceedance_from_categorical(pred) -> np.ndarray:
    """Cumulative upper-tail aggregation of categorical state masses.

    ``pred`` is one vector of state masses or an (n, k) array of them, one
    per row; the checks apply to every row and the sum runs along the last
    axis.
    """
    s = np.asarray(pred, dtype=float)
    if s.ndim not in (1, 2) or s.size == 0:
        raise InvalidInputError("expected a vector or an (n, k) array of state masses")
    if np.any(s < -_SUM_TOL) or np.any(s > 1.0 + _SUM_TOL):
        raise InvalidInputError("state probabilities must lie in [0, 1]")
    total = s.sum(axis=-1)
    if np.any(total > 1.0 + _SUM_TOL):
        raise InvalidInputError(f"state probabilities sum to {np.max(total)} > 1")
    y = np.cumsum(s[..., ::-1], axis=-1)[..., ::-1]
    return np.clip(y, 0.0, 1.0)


def soft_f1(tp: float, fp: float, fn: float) -> float:
    if min(tp, fp, fn) < 0:
        raise InvalidInputError("confusion counts must be nonnegative")
    denom = 2.0 * tp + fp + fn
    if denom == 0.0:
        raise UndefinedScoreError("soft F1 undefined for all-zero counts")
    return 2.0 * tp / denom


def weight_from_f1(f1: float, w_max: float = DEFAULT_W_MAX) -> float:
    """w = -2*log2(1 - F1), clamped at w_max."""
    if not 0.0 <= f1 <= 1.0:
        raise InvalidInputError("F1 must lie in [0, 1]")
    if f1 == 1.0:
        warnings.warn(
            f"perfect F1 implies infinite weight; clamping at w_max={w_max}",
            RuntimeWarning,
            stacklevel=2,
        )
        return float(w_max)
    w = -2.0 * math.log2(1.0 - f1)
    if w > w_max:
        warnings.warn(
            f"weight {w:.2f} exceeds w_max={w_max}; clamping", RuntimeWarning, stacklevel=2
        )
        return float(w_max)
    return w


def calibrate_weights(o, g, w_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-state (weights, F1) of one source from its calibration set.

    ``o`` holds the ground-truth exceedance indicators and ``g`` the
    predicted exceedances, one (n_samples, n_states) row per sample.  Each
    state's soft confusion counts TP = sum g*o, FP = sum g*(1-o) and
    FN = sum (1-g)*o add in sample order; F1 is their soft F1 and each
    weight is ``weight_from_f1(F1, w_max)``, both one entry per state.  A
    state (a column, in ``STATES`` order) with no true exceedance and no
    predicted mass has no F1, and the error names it.
    """
    o = np.asarray(o, dtype=float)
    g = np.asarray(g, dtype=float)
    if o.size == 0:
        raise InvalidInputError("empty calibration set")
    if o.ndim != 2 or o.shape != g.shape:
        raise InvalidInputError("o and g must have equal length")
    if np.any((o != 0.0) & (o != 1.0)):
        raise InvalidInputError("ground-truth indicators must be 0 or 1")
    if np.any(np.diff(o, axis=1) > 0.0):
        raise InvalidInputError("exceedance indicators must be non-increasing")
    if not np.all((g >= 0.0) & (g <= 1.0)):
        raise InvalidInputError("predicted exceedances must lie in [0, 1]")
    # running sums in sample order: np.sum may add pairwise, which moves the
    # last bits
    counts = np.cumsum([g * o, g * (1.0 - o), (1.0 - g) * o], axis=1)[:, -1]
    undefined = [STATES[j] for j in np.flatnonzero(~counts.any(axis=0))]
    if undefined:
        raise UndefinedScoreError(
            f"soft F1 undefined for state{'s' * (len(undefined) > 1)} {', '.join(undefined)}: "
            "the calibration set has no true exceedance and no predicted mass there"
        )
    f1 = np.array([soft_f1(*state) for state in counts.T.tolist()])
    weights = np.array([weight_from_f1(f, w_max=w_max) for f in f1.tolist()])
    return weights, f1
