"""Moment-matched Beta surrogates and conjugate soft-evidence updates.

A PN marginal with moments (m, zeta) maps to the Beta(alpha, gamma) with the
same mean and variance:

    varpi = m(1-m)/zeta - 1,   alpha = m*varpi,   gamma = (1-m)*varpi.

Reliability-weighted soft exceedance observations (y, w) then update the
surrogate in closed form (alpha' = alpha + sum w*y, gamma' = gamma +
sum w*(1-y)), and the posterior moments are mapped back to a PN marginal.
Chaining the cycle over batches is algebraically identical to accumulating
(alpha, gamma) once.  Neither the experiment runner nor ``fragfield update``
relies on that: both hand their observations to ``update_cells`` as columns
(building row, state, y, w), and it runs one cycle per observed cell.  The
runner passes one observation per cell of a batch, and ``update`` passes
every observation row of one call, so a cell's rows fold into one cycle.

kl_pn_beta quantifies the information loss of the surrogate swap by direct
quadrature of the densities over the whole probit axis z = Phi^-1(x).  The
exact divergence is small only near the middle of the (mu, sigma2) range:
for |mu| around 3 with modest sigma2 the PN density develops a shoulder near
the boundary that no Beta of equal mean and variance reproduces, and the
divergence climbs past one bit (about 2.28 bits at mu=3, sigma2=0.5 in the
beta_to_pn direction, much of it within 1e-12 of x = 1).  Coarsely binned
density comparisons hide this because the mismatch lives in a thin boundary
region.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

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
    "update_cells",
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
    prior: PnMarginal, batch: Iterable[WeightedObservation]
) -> PnMarginal:
    """Full PN -> Beta -> conjugate update -> PN pipeline for one cell.

    The prior variance is floored at ZETA_FLOOR so a degenerate prior still
    has a Beta surrogate.  A batch with no weight (empty, or every weight 0)
    carries no evidence, and the prior comes back unchanged, unchecked.
    """
    batch = list(batch)
    if not any(obs.weight for obs in batch):
        return prior
    mo = pn_moments(prior)
    zeta = max(mo.zeta, ZETA_FLOOR)
    surrogate = beta_from_pn_moments(PnMoments(mo.m, zeta))
    posterior = conjugate_update(surrogate, batch)
    return pn_from_moments(beta_moments(posterior))


def update_cells(mu, sigma2, i, j, y, w) -> None:
    """Run ``local_update_cycle`` on each observed cell of a field, in place.

    ``mu`` and ``sigma2`` are the field's (n_buildings, n_states) arrays;
    ``i``, ``j``, ``y`` and ``w`` hold one entry per observation: its
    building row, its state, its soft exceedance and its weight.  A stable
    sort groups the observations by cell, and each cell runs one cycle on
    its observations in the order given, so the cells may come in any order
    and interleaved.  A cell the cycle rejects stops the pass with its
    ``InvalidInputError``, whose ``cell`` attribute is then that cell's
    (i, j); the cells are visited in (i, j) order.
    """
    order = np.lexsort((j, i))
    rows = zip(*(np.asarray(col)[order].tolist() for col in (i, j, y, w)))
    for cell, group in itertools.groupby(rows, key=lambda row: row[:2]):
        batch = [WeightedObservation(y=yk, weight=wk) for _, _, yk, wk in group]
        try:
            post = local_update_cycle(PnMarginal(mu=mu[cell], sigma2=sigma2[cell]), batch)
        except InvalidInputError as exc:
            exc.cell = cell
            raise
        mu[cell] = post.mu
        sigma2[cell] = post.sigma2


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def kl_pn_beta(
    p: PnMarginal,
    b: BetaSurrogate,
    direction: str = "pn_to_beta",
    unit: str = "bits",
) -> float:
    """KL divergence between a PN marginal and a Beta on (0,1).

    direction "pn_to_beta" integrates f_PN * log(f_PN/f_Beta); "beta_to_pn"
    the reverse.  The integral runs over the whole probit axis z = Phi^-1(x)
    (dx = phi(z) dz), with log Phi(z) and log(1 - Phi(z)) from log_ndtr, so
    no mass near x = 0 or 1 is cut off.
    """
    # loaded here, not at import: no CLI command integrates or loads
    # scipy.special
    from scipy.integrate import IntegrationWarning, quad
    from scipy.special import betaln, log_ndtr, ndtri

    if p.sigma2 <= 0:
        raise InvalidInputError("KL needs a non-degenerate PN (sigma2 > 0)")
    if direction not in ("pn_to_beta", "beta_to_pn"):
        raise InvalidInputError(f"unknown direction {direction!r}")
    if unit not in ("bits", "nats"):
        raise InvalidInputError(f"unknown unit {unit!r}")
    mu, sigma = p.mu, math.sqrt(p.sigma2)
    a, g = b.alpha, b.gamma
    log_norm_pn = -math.log(sigma) - _LOG_SQRT_2PI
    log_norm_beta = -betaln(a, g) - _LOG_SQRT_2PI

    def log_densities(z):
        """log f_PN(Phi(z)) phi(z), log f_Beta(Phi(z)) phi(z): the z-densities."""
        t = (z - mu) / sigma
        lp = -0.5 * t * t + log_norm_pn
        lq = (
            (a - 1.0) * float(log_ndtr(z))
            + (g - 1.0) * float(log_ndtr(-z))
            - 0.5 * z * z
            + log_norm_beta
        )
        return lp, lq

    def integrand(z):
        lp, lq = log_densities(z)
        if direction == "beta_to_pn":
            lp, lq = lq, lp
        w = math.exp(lp)
        # far out on the axis both logs reach -inf; the weight is 0 there
        return w * (lp - lq) if w > 0.0 else 0.0

    # the PN z-density is N(mu, sigma2); the Beta one has Gaussian tails of
    # variance 1/alpha below and 1/gamma above
    anchors = sorted(
        {mu + k * sigma for k in (-8.0, -3.0, -1.0, 0.0, 1.0, 3.0, 8.0)}
        | {-k / math.sqrt(a) for k in (1.0, 3.0, 8.0)}
        | {k / math.sqrt(g) for k in (1.0, 3.0, 8.0)}
        | {float(ndtri(b.alpha / (b.alpha + b.gamma))), 0.0}
    )
    lo, hi = anchors[0], anchors[-1]
    with warnings.catch_warnings():
        # tail spikes of low-shape Betas trip the subdivision heuristic even
        # when the returned value is accurate (checked against a dense
        # trapezoid and Monte Carlo in the tests)
        warnings.simplefilter("ignore", IntegrationWarning)
        opts = dict(limit=400, epsabs=1e-11, epsrel=1e-9)
        val = (
            quad(integrand, -math.inf, lo, **opts)[0]
            + quad(integrand, lo, hi, points=anchors[1:-1], **opts)[0]
            + quad(integrand, hi, math.inf, **opts)[0]
        )
    if not math.isfinite(val):
        raise NumericalFailureError("KL quadrature produced a non-finite value")
    val = max(val, 0.0)  # quadrature round-off can dip below zero
    return val / LN2 if unit == "bits" else val
