"""Probit-Normal (PN) marginals for fragility fields.

A fragility index Z ~ N(mu, sigma2) in probit space induces an exceedance
probability P = Phi(Z) on (0,1).  With

    v   = mu / sqrt(1 + sigma2)
    eta = sigma2 / (1 + sigma2)

the first two moments of P are closed-form:

    E[P]   = Phi(v)
    Var[P] = Phi2(v, v, eta) - Phi(v)^2

where Phi2(h, h, rho) is the bivariate standard-normal CDF at an equal
argument pair.  Phi2 is evaluated through the 1-D reduction

    Phi2(h, h, rho) = Phi(h)^2 + (1/2pi) * int_0^rho exp(-h^2/(1+r)) / sqrt(1-r^2) dr,

which after r = sin(u) becomes a smooth integral over [0, arcsin(rho)].
The inverse map (moments -> latent parameters) fixes v = Phi^{-1}(m) and
solves for u = arcsin(eta) by Newton's method on log C(v, u) = log zeta,
where C is that correction term, compared against zeta directly (never
against zeta + m^2, which would round the upper tail away).  Its derivative
dC/du = exp(-v^2/(1+sin u))/(2pi) is the integrand itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    DomainError,
    InfeasibleMomentsError,
    InfeasibleSeparationError,
    InvalidInputError,
)

__all__ = [
    "HazardLaw",
    "CapacityLaw",
    "PnMarginal",
    "PnMoments",
    "bivariate_equal_cdf",
    "pn_moments",
    "pn_moments_vec",
    "pn_from_moments",
    "pn_from_moments_vec",
    "latent_from_physics",
    "clip_ordinal_probit",
]

SIGMA2_CAP = 1.0e6


def _coerce_floats(obj, *names):
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)))


@dataclass(frozen=True)
class HazardLaw:
    """Lognormal hazard intensity: ln H ~ N(lambda_h, beta_h^2)."""

    lambda_h: float
    beta_h: float

    def __post_init__(self):
        _coerce_floats(self, "lambda_h", "beta_h")
        if not (math.isfinite(self.lambda_h) and math.isfinite(self.beta_h)):
            raise InvalidInputError("hazard law parameters must be finite")
        if self.beta_h < 0:
            raise InvalidInputError("beta_h must be >= 0")


@dataclass(frozen=True)
class CapacityLaw:
    """Lognormal capacity: log-median lambda_c, epistemic log-std beta_c,
    aleatory dispersion beta_aleatory (the fragility denominator)."""

    lambda_c: float
    beta_c: float
    beta_aleatory: float

    def __post_init__(self):
        _coerce_floats(self, "lambda_c", "beta_c", "beta_aleatory")
        if not all(
            math.isfinite(x) for x in (self.lambda_c, self.beta_c, self.beta_aleatory)
        ):
            raise InvalidInputError("capacity law parameters must be finite")
        if self.beta_c < 0:
            raise InvalidInputError("beta_c must be >= 0")
        if self.beta_aleatory <= 0:
            raise InvalidInputError("beta_aleatory must be > 0")


@dataclass(frozen=True)
class PnMarginal:
    """Latent probit mean/variance of one (building, damage-state) cell."""

    mu: float
    sigma2: float

    def __post_init__(self):
        _coerce_floats(self, "mu", "sigma2")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma2)):
            raise InvalidInputError("PN parameters must be finite")
        if self.sigma2 < 0:
            raise InvalidInputError("sigma2 must be >= 0")


@dataclass(frozen=True)
class PnMoments:
    """Mean m and variance zeta of the exceedance probability P = Phi(Z)."""

    m: float
    zeta: float

    def __post_init__(self):
        _coerce_floats(self, "m", "zeta")


# 64-node Gauss-Legendre rule: the integrand u -> exp(-h^2/(1+sin u)) is
# analytic on the (bounded) integration interval, so a fixed high-order rule
# reaches machine precision and vectorizes over many (h, rho) pairs at once.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _phi2_correction_u(h2, ub):
    """(1/2pi) * int_0^ub exp(-h2/(1+sin u)) du, vectorized over (h2, ub).

    64-node Gauss-Legendre on u in [0, ub].  The nodes are summed row by row
    rather than by a BLAS product, so a row's value does not depend on the
    batch it is computed in.
    """
    half = 0.5 * ub
    # u-nodes for each element: shape (..., 64)
    u = half[..., None] * (_GL_NODES + 1.0)
    vals = np.exp(-h2[..., None] / (1.0 + np.sin(u)))
    return (half / (2.0 * np.pi)) * (vals * _GL_WEIGHTS).sum(axis=-1)


def _phi2_correction_gl(h, rho):
    """(1/2pi) * int_0^rho exp(-h^2/(1+r))/sqrt(1-r^2) dr, vectorized.

    Uses r = sin(u) and 64-node Gauss-Legendre on u in [0, arcsin(rho)].
    """
    h = np.asarray(h, dtype=float)
    return _phi2_correction_u(h * h, np.arcsin(np.asarray(rho, dtype=float)))


def bivariate_equal_cdf(h: float, rho: float) -> float:
    """Phi2(h, h, rho): P(X <= h, Y <= h) for standard bivariate normal (corr rho).

    Adaptive quadrature on the 1-D reduction; endpoints rho = +-1 are taken
    as limits (comonotone / antithetic cases).
    """
    # loaded here, not at import: no CLI command integrates
    from scipy.integrate import quad

    if not (math.isfinite(h) and math.isfinite(rho)):
        raise InvalidInputError("arguments must be finite")
    if abs(rho) > 1.0:
        raise DomainError("correlation must satisfy |rho| <= 1")
    if rho == 0.0:
        return float(ndtr(h)) ** 2
    if rho == 1.0:
        return float(ndtr(h))
    if rho == -1.0:
        return max(0.0, 2.0 * float(ndtr(h)) - 1.0)
    ub = math.asin(rho)
    corr, _ = quad(
        lambda u: math.exp(-h * h / (1.0 + math.sin(u))),
        0.0,
        ub,
        epsabs=1e-12,
        epsrel=1e-11,
        limit=200,
    )
    val = float(ndtr(h)) ** 2 + corr / (2.0 * math.pi)
    # round-off guard: the exact value lies in [0, Phi(h)]
    return min(max(val, 0.0), float(ndtr(h)))


def pn_moments(p: PnMarginal) -> PnMoments:
    """Closed-form mean/variance of the exceedance probability."""
    m, zeta = pn_moments_vec(p.mu, p.sigma2)
    return PnMoments(float(m), float(zeta))


def pn_moments_vec(mu, sigma2):
    """Vectorized pn_moments over arrays of (mu, sigma2)."""
    mu = np.asarray(mu, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    v = mu / np.sqrt(1.0 + sigma2)
    eta = sigma2 / (1.0 + sigma2)
    m = ndtr(v)
    zeta = _phi2_correction_gl(v, eta)
    # guard quadrature round-off at the feasibility edges
    zeta = np.clip(zeta, 0.0, m * (1.0 - m))
    return m, zeta


def pn_from_moments(mo: PnMoments) -> PnMarginal:
    """Invert (m, zeta) back to latent (mu, sigma2).

    v = Phi^{-1}(m) is fixed by the mean.  With u = arcsin(eta), the
    correction term C(v, u) = Phi2(v, v, sin u) - m^2 rises strictly from 0
    at u = 0 to m(1-m) at u = pi/2, and u solves C(v, u) = zeta by
    safeguarded Newton steps on log C - log zeta.  Then eta = sin(u),
    sigma2 = eta/(1-eta) (capped at SIGMA2_CAP) and mu = v*sqrt(1+sigma2).
    """
    m, zeta = float(mo.m), float(mo.zeta)
    if not (0.0 < m < 1.0):
        raise InvalidInputError("m must lie strictly inside (0, 1)")
    if zeta < 0.0 or not math.isfinite(zeta):
        raise InfeasibleMomentsError("zeta must be finite and >= 0")
    if zeta >= m * (1.0 - m):
        raise InfeasibleMomentsError(
            f"zeta={zeta!r} >= m(1-m)={m * (1.0 - m)!r}: infeasible for a PN law"
        )
    mu, sigma2 = pn_from_moments_vec(np.array([m]), np.array([zeta]))
    return PnMarginal(float(mu[0]), float(sigma2[0]))


_NEWTON_MAX_ITER = 60
_NEWTON_RTOL = 1e-12  # a step below this share of u ends a cell's iteration


def pn_from_moments_vec(m, zeta):
    """Vectorized inverse moment map; assumes feasible inputs (see scalar op).

    Each cell iterates on its own: C is convex in u with slope
    exp(-v^2)/2pi at u = 0, so u0 = 2pi zeta exp(v^2) (at most pi/2) lies
    above the root and starts the bracket [0, u0].  A Newton step that
    leaves the bracket is replaced by bisection, and a cell whose step falls
    below _NEWTON_RTOL * u stops, so its result does not depend on the other
    cells of the call.  zeta = 0 gives sigma2 = 0 without iterating.
    """
    m = np.asarray(m, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    v = ndtri(m)
    h2 = v * v
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_zeta = np.log(zeta)
        hi = np.minimum(2.0 * np.pi * zeta * np.exp(h2), 0.5 * np.pi)
        lo = np.zeros_like(hi)
        u = hi.copy()
        active = zeta > 0.0
        for _ in range(_NEWTON_MAX_ITER):
            if not active.any():
                break
            c = _phi2_correction_u(h2, u)
            g = np.log(c) - log_zeta
            lo = np.where(g < 0.0, u, lo)
            hi = np.where(g > 0.0, u, hi)
            dlogc = np.exp(-h2 / (1.0 + np.sin(u))) / (2.0 * np.pi * c)
            new = u - g / dlogc
            inside = (new > lo) & (new < hi)
            new = np.where(inside, new, 0.5 * (lo + hi))
            new = np.where(active, new, u)
            active &= np.abs(new - u) > _NEWTON_RTOL * new
            u = new
    eta_cap = SIGMA2_CAP / (1.0 + SIGMA2_CAP)
    eta = np.where(zeta == 0.0, 0.0, np.minimum(np.sin(u), eta_cap))
    sigma2 = eta / (1.0 - eta)
    mu = v * np.sqrt(1.0 + sigma2)
    return mu, sigma2


def latent_from_physics(h: HazardLaw, c: CapacityLaw) -> PnMarginal:
    """Latent fragility index from lognormal hazard/capacity laws:

    mu     = (lambda_h - lambda_c) / beta_aleatory
    sigma2 = (beta_h^2 + beta_c^2) / beta_aleatory^2
    """
    mu = (h.lambda_h - c.lambda_c) / c.beta_aleatory
    try:
        sigma2 = (h.beta_h**2 + c.beta_c**2) / c.beta_aleatory**2
    except (OverflowError, ZeroDivisionError):  # a square left float range
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise InvalidInputError(
            f"latent variance (beta_h^2 + beta_c^2) / beta_aleatory^2 is not finite "
            f"for beta_h={h.beta_h!r}, beta_c={c.beta_c!r}, "
            f"beta_aleatory={c.beta_aleatory!r}"
        )
    return PnMarginal(mu, sigma2)


def clip_ordinal_probit(mus, bound: float = 3.0, separation: float = 0.05):
    """Clip per-state latent means to [-bound, bound], separating clip-ties.

    ``mus`` is indexed by increasing damage severity.  Entries clipped at
    +bound cascade top-down (each at least ``separation`` below its
    predecessor); entries clipped at -bound cascade bottom-up.  A cascade
    extends transitively: an unclipped value overtaken by a descending clip
    chain is pressed into the chain with the same separation.  The output is
    always non-increasing; inversions that owe nothing to clipping are
    resolved by a plain ordering clamp (tie, no separation), and values with
    no part in any of this pass through untouched.
    """
    mus = [float(x) for x in mus]
    n = len(mus)
    if bound <= 0:
        raise InvalidInputError("bound must be > 0")
    if separation < 0:
        raise InvalidInputError("separation must be >= 0")
    if n * separation > 2.0 * bound:
        raise InfeasibleSeparationError(
            f"{n} states with separation {separation} cannot fit in [-{bound}, {bound}]"
        )
    hi_clip = [x > bound for x in mus]
    lo_clip = [x < -bound for x in mus]
    out = [min(max(x, -bound), bound) for x in mus]
    hi_chain = list(hi_clip)
    for j in range(1, n):
        gap = separation if (hi_clip[j] or hi_chain[j - 1]) else 0.0
        ceiling = out[j - 1] - gap
        if out[j] > ceiling:
            hi_chain[j] = hi_clip[j] or hi_chain[j - 1]
            if ceiling < -bound:
                # a descending chain may not leave the band; park the entry
                # at -bound and let the bottom-up pass spread the pile-up
                out[j] = -bound
                lo_clip[j] = True
            else:
                out[j] = ceiling
    lo_chain = list(lo_clip)
    for j in range(n - 2, -1, -1):
        if lo_clip[j] or lo_chain[j + 1]:
            floor = out[j + 1] + separation
            if out[j] < floor:
                out[j] = min(floor, bound)
                lo_chain[j] = True
    return out
