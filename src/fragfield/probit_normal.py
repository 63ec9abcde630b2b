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

The quadrature runs over a field's cells in blocks of _QUAD_BLOCK, so a
field-wide pass (the moments of every cell, each Newton step of the inverse)
holds fixed-size temporaries however large the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    InfeasibleMomentsError,
    InfeasibleSeparationError,
    InvalidInputError,
)

__all__ = [
    "PnMarginal",
    "PnMoments",
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
_GL_NODES_P1 = _GL_NODES + 1.0  # the nodes mapped from [-1, 1] to [0, 2]

# rows per pass of the quadrature: a few (rows x 64) float temporaries of
# 128 KiB each
_QUAD_BLOCK = 256


def _phi2_correction_u(h2, ub):
    """(1/2pi) * int_0^ub exp(-h2/(1+sin u)) du over float arrays (h2, ub).

    64-node Gauss-Legendre on u in [0, ub].  The nodes are summed row by row
    rather than by a BLAS product, so a row's value does not depend on the
    batch it is computed in.  More than _QUAD_BLOCK rows are evaluated
    _QUAD_BLOCK at a time, so the transient memory stays bounded however
    many rows there are.
    """
    if h2.shape != ub.shape:
        h2, ub = np.broadcast_arrays(h2, ub)
    if ub.size <= _QUAD_BLOCK:
        half = 0.5 * ub
        # the integrand at each element's u-nodes, built in place in one
        # (..., 64) buffer
        vals = np.multiply(half[..., None], _GL_NODES_P1)
        np.sin(vals, out=vals)
        np.add(1.0, vals, out=vals)
        np.divide(-h2[..., None], vals, out=vals)
        np.exp(vals, out=vals)
        vals *= _GL_WEIGHTS
        return (half / (2.0 * np.pi)) * vals.sum(axis=-1)
    out = np.empty(ub.shape)
    flat_out, h2, ub = out.reshape(-1), h2.reshape(-1), ub.reshape(-1)
    for start in range(0, ub.size, _QUAD_BLOCK):
        rows = slice(start, start + _QUAD_BLOCK)
        flat_out[rows] = _phi2_correction_u(h2[rows], ub[rows])
    return out


def _phi2_correction_gl(h, rho):
    """(1/2pi) * int_0^rho exp(-h^2/(1+r))/sqrt(1-r^2) dr, vectorized.

    Uses r = sin(u) and 64-node Gauss-Legendre on u in [0, arcsin(rho)].
    """
    h = np.asarray(h, dtype=float)
    return _phi2_correction_u(h * h, np.arcsin(np.asarray(rho, dtype=float)))


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
    mu, sigma2 = pn_from_moments_vec(m, zeta)
    return PnMarginal(mu, sigma2)


_NEWTON_MAX_ITER = 60
_NEWTON_RTOL = 1e-12  # a step below this share of u ends a cell's iteration


def pn_from_moments_vec(m, zeta):
    """Vectorized inverse moment map; assumes feasible inputs (see scalar op).

    Each cell iterates on its own: C is convex in u with slope
    exp(-v^2)/2pi at u = 0, so u0 = 2pi zeta exp(v^2) (at most pi/2) lies
    above the root and starts the bracket [0, u0].  A Newton step that
    leaves the bracket is replaced by bisection, and a cell whose step falls
    below _NEWTON_RTOL * u stops, so its result does not depend on the other
    cells of the call.  zeta = 0 gives sigma2 = 0 without iterating.  A 0-d
    input is one cell: ``pn_from_moments`` passes its two floats so, and
    gets the bits of the same cell in any array.
    """
    m = np.asarray(m, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if m.shape != zeta.shape:
        m, zeta = np.broadcast_arrays(m, zeta)
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


def latent_from_physics(lambda_h, beta_h, lambda_c, beta_c, beta_aleatory):
    """Latent fragility index from lognormal hazard and capacity laws.

    The hazard is ln H ~ N(lambda_h, beta_h^2); the capacity has log-median
    lambda_c, epistemic log-std beta_c and aleatory dispersion beta_aleatory
    (the fragility denominator).  The arguments broadcast to one shape, and
    the result is the pair of arrays of that shape

    mu     = (lambda_h - lambda_c) / beta_aleatory
    sigma2 = (beta_h^2 + beta_c^2) / beta_aleatory^2

    A variance above ``SIGMA2_CAP`` (or not finite) raises InvalidInputError,
    whose ``cell`` attribute is the index of the first such entry.
    """
    args = (lambda_h, beta_h, lambda_c, beta_c, beta_aleatory)
    lambda_h, beta_h, lambda_c, beta_c, beta_aleatory = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in args)
    )
    if not (np.all(beta_h >= 0) and np.all(beta_c >= 0)):
        raise InvalidInputError("spreads beta_h and beta_c must be >= 0")
    if not np.all((beta_aleatory > 0) & (beta_aleatory < math.inf)):
        raise InvalidInputError("beta_aleatory must be finite and > 0")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu = (lambda_h - lambda_c) / beta_aleatory
        sigma2 = (beta_h**2 + beta_c**2) / beta_aleatory**2
    # above SIGMA2_CAP, the largest variance an update writes, a cell's
    # moments may leave the Beta surrogate's domain, so no update could take it
    bad = ~(sigma2 <= SIGMA2_CAP)
    if bad.any():
        cell = np.unravel_index(np.argmax(bad), bad.shape)
        exc = InvalidInputError(
            f"latent variance (beta_h^2 + beta_c^2) / beta_aleatory^2 must be at most "
            f"{SIGMA2_CAP:g}, got {float(sigma2[cell])!r} for beta_h={float(beta_h[cell])!r}, "
            f"beta_c={float(beta_c[cell])!r}, beta_aleatory={float(beta_aleatory[cell])!r}"
        )
        exc.cell = cell
        raise exc
    if not np.all(np.isfinite(mu)):
        raise InvalidInputError(
            "latent mean (lambda_h - lambda_c) / beta_aleatory is not finite"
        )
    return mu, sigma2


def clip_ordinal_probit(mus, bound: float = 3.0, separation: float = 0.05):
    """Clip per-state latent means to [-bound, bound], separating clip-ties.

    ``mus`` is an (..., d) array whose last axis runs over increasing damage
    severity; every row is treated on its own, and the result has the shape
    of ``mus``.  Entries clipped at +bound cascade top-down (each at least
    ``separation`` below its predecessor); entries clipped at -bound cascade
    bottom-up.  A cascade extends transitively: an unclipped value overtaken
    by a descending clip chain is pressed into the chain with the same
    separation.  The output is always non-increasing along a row; inversions
    that owe nothing to clipping are resolved by a plain ordering clamp (tie,
    no separation), and values with no part in any of this pass through
    untouched.  Both cascades loop over the d states, each step over all rows.
    """
    mus = np.asarray(mus, dtype=float)
    d = mus.shape[-1]
    if bound <= 0:
        raise InvalidInputError("bound must be > 0")
    if separation < 0:
        raise InvalidInputError("separation must be >= 0")
    if d * separation > 2.0 * bound:
        raise InfeasibleSeparationError(
            f"{d} states with separation {separation} cannot fit in [-{bound}, {bound}]"
        )
    hi_clip = mus > bound
    lo_clip = mus < -bound
    out = np.minimum(np.maximum(mus, -bound), bound)
    hi_chain = hi_clip.copy()
    for j in range(1, d):
        chained = hi_clip[..., j] | hi_chain[..., j - 1]
        ceiling = out[..., j - 1] - np.where(chained, separation, 0.0)
        pressed = out[..., j] > ceiling
        hi_chain[..., j] |= pressed & hi_chain[..., j - 1]
        # a descending chain may not leave the band; park the entry at
        # -bound and let the bottom-up pass spread the pile-up
        parked = pressed & (ceiling < -bound)
        lo_clip[..., j] |= parked
        out[..., j] = np.where(parked, -bound, np.where(pressed, ceiling, out[..., j]))
    lo_chain = lo_clip.copy()
    for j in range(d - 2, -1, -1):
        floor = out[..., j + 1] + separation
        lifted = (lo_clip[..., j] | lo_chain[..., j + 1]) & (out[..., j] < floor)
        out[..., j] = np.where(lifted, np.minimum(floor, bound), out[..., j])
        lo_chain[..., j] |= lifted
    return out
