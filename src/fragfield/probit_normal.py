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
holds fixed-size temporaries however large the field.  One cell
(``pn_moments``, ``pn_from_moments``) runs the same steps on floats, with
the quadrature on 0-d inputs, and gets the bits that the array body
(``pn_moments_vec``, ``pn_from_moments_vec``) gives that cell in any array.

Phi and Phi^-1 are Cephes' ndtr (with its erf and erfc) and ndtri (Moshier
1989, "Methods and Programs for Mathematical Functions"), written out as
scipy.special 1.17 evaluates them, so they return scipy's bits without
loading scipy.  The arithmetic is IEEE +, -, *, / in the same order, and
every exp and log is libm's (``math.exp``, ``math.log``): numpy's float64
exp and log may differ from libm in the last bit on SIMD hardware.  A 0-d
input goes through the scalar body.  Phi of an array goes through an array
body (NumPy masks and Horner, math.exp per element) _PHI_BLOCK values at a
time; Phi^-1, which the stage-1 paths take on one value per cell only, maps
the scalar body over an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# Cephes polynomial coefficients, highest power first; the Q, S, U and
# ndtri Q arrays omit their leading 1
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1, 1.96520832956077098242e2,
           5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_NDTR_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc underflows below -MAXLOG
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# values per pass of Phi's array body, which costs ~70 us per pass plus
# ~0.12 us per value and holds ~150 bytes per value (its boxed lists of
# math.exp arguments and results included)
_PHI_BLOCK = 4096


def _polevl(x, coef):
    """Horner's rule over ``coef`` (highest power first), on floats or arrays."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """_polevl with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr_one(a: float) -> float:
    """Cephes ndtr(a) = Phi(a) of one float, through erf below |a| = 1 and
    erfc (its rational forms below and above |x| = 8) beyond."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        xx = x * x
        return 0.5 + 0.5 * (x * _polevl(xx, _ERF_T) / _p1evl(xx, _ERF_U))
    # y = erfc(z), which is 1 - erf(z) below z = 1
    if z < 1.0:
        zz = z * z
        y = 1.0 - z * _polevl(zz, _ERF_T) / _p1evl(zz, _ERF_U)
    elif -z * z < -_MAXLOG:
        y = 0.0
    elif z < 8.0:
        y = math.exp(-z * z) * _polevl(z, _NDTR_P) / _p1evl(z, _NDTR_Q)
    else:
        y = math.exp(-z * z) * _polevl(z, _NDTR_R) / _p1evl(z, _NDTR_S)
    y = 0.5 * y
    return 1.0 - y if x > 0.0 else y


def _ndtr_many(a):
    """_ndtr_one over a 1-d float array, branch by branch."""
    out = np.empty_like(a)
    x = a * _SQRT1_2
    z = np.abs(x)
    near = z < _SQRT1_2
    xn = x[near]
    xx = xn * xn
    out[near] = 0.5 + 0.5 * (xn * _polevl(xx, _ERF_T) / _p1evl(xx, _ERF_U))
    far = ~near
    z = z[far]
    with np.errstate(over="ignore", invalid="ignore"):
        zz = z * z
        tail = z >= 8.0
        y = (
            np.array([math.exp(t) for t in (-zz).tolist()])
            * np.where(tail, _polevl(z, _NDTR_R), _polevl(z, _NDTR_P))
            / np.where(tail, _p1evl(z, _NDTR_S), _p1evl(z, _NDTR_Q))
        )
    mid = z < 1.0
    y[mid] = 1.0 - z[mid] * _polevl(zz[mid], _ERF_T) / _p1evl(zz[mid], _ERF_U)
    y[-zz < -_MAXLOG] = 0.0
    y = 0.5 * y
    out[far] = np.where(x[far] > 0.0, 1.0 - y, y)
    out[np.isnan(a)] = np.nan
    return out


def _ndtri_one(p: float) -> float:
    """Cephes ndtri(p) = Phi^-1(p) of one float: a rational form in p - 1/2
    for exp(-2) < p < 1 - exp(-2), and in 1/sqrt(-2 log p) (below and above
    8, that is p = exp(-32)) in the tails."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if p < 0.0 or p > 1.0:
        return math.nan
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return x if upper else -x


def _ndtr(a):
    """Phi(a) elementwise, with scipy.special.ndtr's bits; a 0-d input gives a
    float64 scalar, as a ufunc does."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return np.float64(_ndtr_one(float(a)))
    out = np.empty(a.shape)
    flat_out, a = out.reshape(-1), a.reshape(-1)
    for start in range(0, a.size, _PHI_BLOCK):
        block = slice(start, start + _PHI_BLOCK)
        flat_out[block] = _ndtr_many(a[block])
    return out


def _ndtri(p):
    """Phi^-1(p) elementwise, with scipy.special.ndtri's bits; a 0-d input
    gives a float64 scalar, as a ufunc does."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        return np.float64(_ndtri_one(float(p)))
    return np.array([_ndtri_one(t) for t in p.reshape(-1).tolist()]).reshape(p.shape)


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
    """Closed-form mean/variance of the exceedance probability: the
    expressions of ``pn_moments_vec`` on one cell's floats, with its bits."""
    v = float(p.mu / np.sqrt(1.0 + p.sigma2))
    eta = p.sigma2 / (1.0 + p.sigma2)
    m = _ndtr_one(v)
    zeta = _phi2_correction_u(np.float64(v * v), np.arcsin(eta))
    return PnMoments(m, min(max(zeta, 0.0), m * (1.0 - m)))


def pn_moments_vec(mu, sigma2):
    """Vectorized pn_moments over arrays of (mu, sigma2)."""
    mu = np.asarray(mu, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    v = mu / np.sqrt(1.0 + sigma2)
    eta = sigma2 / (1.0 + sigma2)
    m = _ndtr(v)
    zeta = _phi2_correction_gl(v, eta)
    # guard quadrature round-off at the feasibility edges
    zeta = np.clip(zeta, 0.0, m * (1.0 - m))
    return m, zeta


_NEWTON_MAX_ITER = 60
_NEWTON_RTOL = 1e-12  # a step below this share of u ends a cell's iteration
_ETA_CAP = SIGMA2_CAP / (1.0 + SIGMA2_CAP)


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
    # pn_from_moments_vec's steps on floats.  Transcendentals stay NumPy's, and
    # c and dlogc, which can underflow to 0, stay float64 divisors under errstate
    v = _ndtri_one(m)
    if zeta == 0.0:
        return PnMarginal(v, 0.0)
    h2 = np.float64(v * v)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_zeta = np.log(zeta)
        lo, hi = 0.0, min(2.0 * np.pi * zeta * np.exp(h2), 0.5 * np.pi)
        u = hi
        for _ in range(_NEWTON_MAX_ITER):
            c = _phi2_correction_u(h2, np.float64(u))
            g = np.log(c) - log_zeta
            if g < 0.0:
                lo = u
            elif g > 0.0:
                hi = u
            dlogc = np.exp(-h2 / (1.0 + np.sin(u))) / (2.0 * np.pi * c)
            new = float(u - g / dlogc)
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
            u, step = new, abs(new - u)
            if not step > _NEWTON_RTOL * new:
                break
    eta = min(np.sin(u), _ETA_CAP)
    sigma2 = eta / (1.0 - eta)
    return PnMarginal(v * np.sqrt(1.0 + sigma2), sigma2)


def pn_from_moments_vec(m, zeta):
    """Vectorized inverse moment map; assumes feasible inputs (see scalar op).

    Each cell iterates on its own: C is convex in u with slope
    exp(-v^2)/2pi at u = 0, so u0 = 2pi zeta exp(v^2) (at most pi/2) lies
    above the root and starts the bracket [0, u0].  A Newton step that
    leaves the bracket is replaced by bisection, and a cell whose step falls
    below _NEWTON_RTOL * u stops, so its result does not depend on the other
    cells of the call.  zeta = 0 gives sigma2 = 0 without iterating.
    ``pn_from_moments`` runs these steps on one cell's floats.
    """
    m = np.asarray(m, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if m.shape != zeta.shape:
        m, zeta = np.broadcast_arrays(m, zeta)
    v = _ndtri(m)
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
    eta = np.where(zeta == 0.0, 0.0, np.minimum(np.sin(u), _ETA_CAP))
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
