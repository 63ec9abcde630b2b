"""Moment-matched Beta surrogates and conjugate soft-evidence updates.

A PN marginal with moments (m, zeta) maps to the Beta(alpha, gamma) with the
same mean and variance:

    varpi = m(1-m)/zeta - 1,   alpha = m*varpi,   gamma = (1-m)*varpi.

Reliability-weighted soft exceedance observations (y, w) then update the
surrogate in closed form (alpha' = alpha + sum w*y, gamma' = gamma +
sum w*(1-y)), and the posterior moments are mapped back to a PN marginal.
Chaining the cycle over batches is algebraically identical to accumulating
(alpha, gamma) once.  Neither the experiment runner nor ``fragfield update``
relies on that: the runner gives each cell its single observation in one
cycle, and ``update`` folds all of one call's observations of a cell into
one cycle.

kl_pn_beta quantifies the information loss of the surrogate swap by direct
quadrature of the densities on (0,1).  The exact divergence is small only
near the middle of the (mu, sigma2) range: for |mu| around 3 with modest
sigma2 the PN density develops a shoulder near the boundary that no Beta of
equal mean and variance reproduces, and the divergence climbs to order one
bit (about 1.36 bits at mu=3, sigma2=0.5).  Coarsely binned density
comparisons hide this because the mismatch lives in a thin boundary region.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import betaln, ndtr, ndtri

from .errors import (
    DegenerateSurrogateError,
    InfeasibleMomentsError,
    InvalidInputError,
    NumericalFailureError,
)
from .probit_normal import PnMarginal, PnMoments, pn_from_moments, pn_moments

__all__ = [
    "BetaSurrogate",
    "WeightedObservation",
    "beta_from_pn_moments",
    "conjugate_update",
    "beta_moments",
    "local_update_cycle",
    "kl_pn_beta",
    "ZETA_FLOOR",
]

# Clipped priors can be near-deterministic; a tiny variance floor keeps them
# updatable instead of raising on zeta == 0.
ZETA_FLOOR = 1e-10

LN2 = math.log(2.0)


@dataclass(frozen=True)
class BetaSurrogate:
    alpha: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not (self.alpha > 0 and self.gamma > 0):
            raise InvalidInputError("Beta shapes must be strictly positive")
        if not (math.isfinite(self.alpha) and math.isfinite(self.gamma)):
            raise InvalidInputError("Beta shapes must be finite")


@dataclass(frozen=True)
class WeightedObservation:
    """One soft exceedance statement with its epistemic reliability weight."""

    y: float
    weight: float
    source: str = "obs"

    def __post_init__(self):
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "weight", float(self.weight))
        if not 0.0 <= self.y <= 1.0:
            raise InvalidInputError("soft exceedance y must lie in [0, 1]")
        if self.weight < 0 or not math.isfinite(self.weight):
            raise InvalidInputError("weight must be finite and >= 0")


def beta_from_pn_moments(mo: PnMoments) -> BetaSurrogate:
    """Beta surrogate matching mean and variance exactly."""
    m, zeta = float(mo.m), float(mo.zeta)
    if not 0.0 < m < 1.0:
        raise InvalidInputError("m must lie strictly inside (0, 1)")
    if zeta == 0.0:
        raise DegenerateSurrogateError(
            "zeta = 0 has no Beta representation; inflate with ZETA_FLOOR first"
        )
    if zeta < 0.0 or zeta >= m * (1.0 - m):
        raise InfeasibleMomentsError(f"(m={m}, zeta={zeta}) outside feasible region")
    varpi = m * (1.0 - m) / zeta - 1.0
    return BetaSurrogate(m * varpi, (1.0 - m) * varpi)


def conjugate_update(
    prior: BetaSurrogate, batch: Iterable[WeightedObservation]
) -> BetaSurrogate:
    """alpha' = alpha + sum w*y ; gamma' = gamma + sum w*(1-y)."""
    a, g = prior.alpha, prior.gamma
    for obs in batch:
        a += obs.weight * obs.y
        g += obs.weight * (1.0 - obs.y)
    return BetaSurrogate(a, g)


def beta_moments(b: BetaSurrogate) -> PnMoments:
    s = b.alpha + b.gamma
    m = b.alpha / s
    zeta = b.alpha * b.gamma / (s * s * (s + 1.0))
    return PnMoments(m, zeta)


def local_update_cycle(
    prior: PnMarginal,
    batch: Iterable[WeightedObservation],
    zeta_floor: float = ZETA_FLOOR,
) -> PnMarginal:
    """Full PN -> Beta -> conjugate update -> PN pipeline for one cell."""
    batch = list(batch)
    if not batch:
        return prior
    mo = pn_moments(prior)
    zeta = max(mo.zeta, zeta_floor)
    surrogate = beta_from_pn_moments(PnMoments(mo.m, zeta))
    posterior = conjugate_update(surrogate, batch)
    return pn_from_moments(beta_moments(posterior))


def _log_pn_pdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    z = ndtri(x)
    t = (z - mu) / sigma
    return -0.5 * t * t - math.log(sigma) + 0.5 * z * z


def _log_beta_pdf(x: np.ndarray, a: float, g: float) -> np.ndarray:
    return (a - 1.0) * np.log(x) + (g - 1.0) * np.log1p(-x) - betaln(a, g)


def kl_pn_beta(
    p: PnMarginal,
    b: BetaSurrogate,
    direction: str = "pn_to_beta",
    unit: str = "bits",
) -> float:
    """KL divergence between a PN marginal and a Beta on (0,1).

    direction "pn_to_beta" integrates f_PN * log(f_PN/f_Beta); "beta_to_pn"
    the reverse.  Log-space integrand, endpoints excluded at 1e-12 margins.
    """
    if p.sigma2 <= 0:
        raise InvalidInputError("KL needs a non-degenerate PN (sigma2 > 0)")
    if direction not in ("pn_to_beta", "beta_to_pn"):
        raise InvalidInputError(f"unknown direction {direction!r}")
    if unit not in ("bits", "nats"):
        raise InvalidInputError(f"unknown unit {unit!r}")
    mu, sigma = p.mu, math.sqrt(p.sigma2)
    a, g = b.alpha, b.gamma

    if direction == "pn_to_beta":

        def integrand(x):
            lp = _log_pn_pdf(x, mu, sigma)
            lq = _log_beta_pdf(x, a, g)
            return math.exp(lp) * (lp - lq)

    else:

        def integrand(x):
            lp = _log_pn_pdf(x, mu, sigma)
            lq = _log_beta_pdf(x, a, g)
            return math.exp(lq) * (lq - lp)

    lo, hi = 1e-12, 1.0 - 1e-12
    m = float(ndtr(mu / math.sqrt(1.0 + p.sigma2)))
    anchors = sorted(
        {
            min(max(pt, lo), hi)
            for pt in (1e-9, 1e-6, 1e-3, 0.01, 0.1, m, 0.5, 0.9, 0.99, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9)
        }
    )
    with np.errstate(over="ignore"), warnings.catch_warnings():
        # tail spikes of low-shape Betas trip the subdivision heuristic even
        # when the returned value is accurate (checked against Monte Carlo)
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            integrand, lo, hi, points=anchors, limit=400, epsabs=1e-11, epsrel=1e-9
        )
    if not math.isfinite(val):
        raise NumericalFailureError("KL quadrature produced a non-finite value")
    val = max(val, 0.0)  # quadrature round-off can dip below zero
    return val / LN2 if unit == "bits" else val
