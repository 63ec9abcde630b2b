"""Global propagation stage: heteroscedastic GP over the probit fragility field.

Pseudo-observations (z, sigma2) per (building, damage state) feed an exact
Gaussian-process posterior under a composite kernel

    K[(i,j),(i*,j*)] = sigma2_global * RBF(s_i, s_i*; ell1, ell2)
                       * (1 if a_i == a_i* else rho_a) * delta[j == j*]
                     + alpha_local * sigma2_global * 1{i == i*}
                       * exp(-(|z_ij - z_i*j*| + 1e-8 |j - j*|) / tau)

The global term propagates within a damage state across space and archetype
and never couples distinct states; the local term ties the states of one
building together through their current latent values.  Posterior summaries
map back to probability space through the probit-normal moment formulas.

One routine, ``_kernel``, assembles K(a, b) for any two point sets: the
self kernel of ``kernel_matrix`` and the inducing-point cross block of the
sparse path alike.  Its hyperparameter-free geometry is built once per pair
of sets (and cached per ``FieldPoints`` for the self kernel): the global
term is evaluated once per pair of *sites*, the distinct (x, y, archetype)
rows, and gathered onto the point pairs through one index in which
cross-state pairs read a trailing zero; the local term is added at the
same-building pairs only.

Hyperparameters are fit by maximizing the log marginal likelihood with a
derivative-free simplex search in a log/logit-transformed space.  A collapsed
variational inducing-point posterior (``sparse_variational_posterior``) is
available as a library function only: no CLI command reaches it, and it has
no hyperparameter fit of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

from .cluster import kmeans
from .errors import InvalidInputError, NumericalFailureError
from .probit_normal import pn_moments_vec

__all__ = [
    "FieldPoints",
    "CompositeKernelParams",
    "GpPosterior",
    "kernel_matrix",
    "exact_posterior",
    "log_marginal_likelihood",
    "fit_hyperparameters",
    "sparse_variational_posterior",
    "posterior_to_probability",
    "ordinality_violation_count",
    "EXACT_SOLVE_CAP",
    "STATE_TIEBREAK",
]

EXACT_SOLVE_CAP = 4000
STATE_TIEBREAK = 1e-8  # tiny |j - j*| perturbation inside the local kernel
_JITTER_START = 1e-10
_JITTER_CAP = 1e-4


class FieldPoints:
    """Column-oriented set of (building, damage state) pseudo-observations.

    The self-kernel geometry (everything that does not depend on kernel
    hyperparameters) is cached per instance, so repeated kernel evaluations
    during hyperparameter search only pay for exp() calls.
    """

    def __init__(self, i, j, x, y, archetype, z, noise_var):
        self.i = np.asarray(i, dtype=int)
        self.j = np.asarray(j, dtype=int)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.archetype = np.asarray(archetype, dtype=int)
        self.z = np.asarray(z, dtype=float)
        self.noise_var = np.asarray(noise_var, dtype=float)
        n = len(self.i)
        for name in ("j", "x", "y", "archetype", "z", "noise_var"):
            if len(getattr(self, name)) != n:
                raise InvalidInputError("field point columns must share length")
        if n == 0:
            raise InvalidInputError("empty point set")
        if np.any(self.noise_var <= 0):
            raise InvalidInputError("noise_var must be > 0")
        if not (
            np.all(np.isfinite(self.x))
            and np.all(np.isfinite(self.y))
            and np.all(np.isfinite(self.z))
            and np.all(np.isfinite(self.noise_var))
        ):
            raise InvalidInputError("field point columns must be finite")
        self._cache = None

    @classmethod
    def from_field_state(cls, fs, *, standardize: bool = True):
        """Flatten a FieldState into building-major points (z=mu, noise=sigma2).

        Coordinates are standardized per axis by default (zero mean, unit
        variance over buildings) so spatial lengthscales are scale-free.
        """
        n, d = fs.mu.shape
        x, y = fs.x, fs.y
        if standardize:
            x = _standardize(x)
            y = _standardize(y)
        return cls(
            i=np.repeat(np.arange(n), d),
            j=np.tile(np.arange(d), n),
            x=np.repeat(x, d),
            y=np.repeat(y, d),
            archetype=np.repeat(fs.archetype, d),
            z=fs.mu.ravel(),
            noise_var=fs.sigma2.ravel(),
        )

    def __len__(self):
        return len(self.i)

    def replace_z(self, z, noise_var=None):
        """New point set with updated latent values (geometry cache rebuilt)."""
        return FieldPoints(
            i=self.i,
            j=self.j,
            x=self.x,
            y=self.y,
            archetype=self.archetype,
            z=z,
            noise_var=self.noise_var if noise_var is None else noise_var,
        )

    def subset(self, idx):
        idx = np.asarray(idx)
        return FieldPoints(
            i=self.i[idx],
            j=self.j[idx],
            x=self.x[idx],
            y=self.y[idx],
            archetype=self.archetype[idx],
            z=self.z[idx],
            noise_var=self.noise_var[idx],
        )

    def _geometry(self) -> "_Geometry":
        if self._cache is None:
            self._cache = _pair_geometry(self, self)
        return self._cache


def _standardize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    sd = v.std()
    if sd == 0:
        return v - v.mean()
    return (v - v.mean()) / sd


class _Geometry(NamedTuple):
    """Hyperparameter-free structure of K(a, b) over S_a x S_b sites."""

    dx2: np.ndarray  # (S_a, S_b) squared x separations of the sites
    dy2: np.ndarray  # (S_a, S_b) squared y separations of the sites
    arch_diff: np.ndarray  # (S_a, S_b) True where the archetypes differ
    take: np.ndarray  # (n_a, n_b) flat site-pair index; S_a*S_b if j != j*
    same_building: np.ndarray  # flat (n_a, n_b) indices of the pairs with i == i*
    local_dist: np.ndarray  # |z - z*| + STATE_TIEBREAK |j - j*| at those pairs


def _pair_geometry(a: FieldPoints, b: FieldPoints) -> _Geometry:
    """Sites are the distinct (x, y, archetype) rows of each set; the global
    term depends on a point only through its site and its state."""
    sites_a, site_a = np.unique(
        np.column_stack([a.x, a.y, a.archetype]), axis=0, return_inverse=True
    )
    sites_b, site_b = np.unique(
        np.column_stack([b.x, b.y, b.archetype]), axis=0, return_inverse=True
    )
    n_sites_b = len(sites_b)
    take = site_a.reshape(-1, 1) * n_sites_b + site_b.reshape(1, -1)
    take[a.j[:, None] != b.j[None, :]] = len(sites_a) * n_sites_b
    same_building = np.flatnonzero(a.i[:, None] == b.i[None, :])
    r, c = np.divmod(same_building, len(b))
    local_dist = np.abs(a.z[r] - b.z[c]) + STATE_TIEBREAK * np.abs(a.j[r] - b.j[c])
    return _Geometry(
        dx2=(sites_a[:, 0, None] - sites_b[None, :, 0]) ** 2,
        dy2=(sites_a[:, 1, None] - sites_b[None, :, 1]) ** 2,
        arch_diff=sites_a[:, 2, None] != sites_b[None, :, 2],
        take=take,
        same_building=same_building,
        local_dist=local_dist,
    )


@dataclass(frozen=True)
class CompositeKernelParams:
    sigma2_global: float = 1.0
    ell1: float = 1.0
    ell2: float = 1.0
    rho_a: float = 0.5
    alpha_local: float = 0.2
    tau: float = 1.0
    jitter: float = 0.0

    def __post_init__(self):
        for name in (
            "sigma2_global",
            "ell1",
            "ell2",
            "rho_a",
            "alpha_local",
            "tau",
            "jitter",
        ):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.sigma2_global <= 0 or self.ell1 <= 0 or self.ell2 <= 0:
            raise InvalidInputError("variance and lengthscales must be > 0")
        if not 0 < self.rho_a < 1:
            raise InvalidInputError("rho_a must lie in (0, 1)")
        if not 0 < self.alpha_local < 1:
            raise InvalidInputError("alpha_local must lie in (0, 1)")
        if self.tau <= 0:
            raise InvalidInputError("tau must be > 0")
        if self.jitter < 0:
            raise InvalidInputError("jitter must be >= 0")


@dataclass
class GpPosterior:
    mean: np.ndarray
    var: np.ndarray
    cov: np.ndarray | None = None
    elbo: float | None = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.var = np.asarray(self.var, dtype=float)
        if self.mean.shape != self.var.shape:
            raise InvalidInputError("mean/var shape mismatch")
        scale = max(1.0, float(np.max(np.abs(self.var), initial=0.0)))
        if np.any(self.var < -1e-6 * scale):
            raise InvalidInputError("negative posterior variance")
        self.var = np.maximum(self.var, 0.0)


def _kernel(geom: _Geometry, params: CompositeKernelParams) -> np.ndarray:
    """K(a, b) for the point sets whose geometry is ``geom``."""
    n_sites_a, n_sites_b = geom.dx2.shape
    buf = np.zeros(n_sites_a * n_sites_b + 1)  # last entry: cross-state pairs
    s = buf[:-1].reshape(n_sites_a, n_sites_b)
    np.exp(-0.5 * (geom.dx2 / params.ell1**2 + geom.dy2 / params.ell2**2), out=s)
    s *= params.sigma2_global
    s[geom.arch_diff] *= params.rho_a
    k = buf.take(geom.take)
    k.flat[geom.same_building] += (
        params.alpha_local
        * params.sigma2_global
        * np.exp(-geom.local_dist / params.tau)
    )
    if not np.all(np.isfinite(k)):
        raise NumericalFailureError("kernel matrix has non-finite entries")
    return k


def kernel_matrix(points: FieldPoints, params: CompositeKernelParams) -> np.ndarray:
    """Assemble the composite kernel matrix over the point set.

    The jitter in ``params`` is *not* added here; solvers add it (plus the
    heteroscedastic noise) to the diagonal themselves.
    """
    return _kernel(points._geometry(), params)


def _chol_with_ladder(a: np.ndarray, jitter: float):
    """Lower Cholesky of a (+ jitter I), escalating jitter on failure."""
    n = a.shape[0]
    attempt = jitter
    while True:
        try:
            shifted = a if attempt == 0 else a + attempt * np.eye(n)
            return cholesky(shifted, lower=True, check_finite=False), attempt
        except np.linalg.LinAlgError:
            pass
        except ValueError as exc:  # non-finite input
            raise NumericalFailureError(str(exc)) from exc
        attempt = _JITTER_START if attempt == 0 else attempt * 10.0
        if attempt > _JITTER_CAP:
            raise NumericalFailureError(
                f"Cholesky failed with jitter escalated to {attempt:.0e}"
            )


def _exact_solve(points: FieldPoints, params: CompositeKernelParams):
    """(K, L, alpha): the kernel, the lower Cholesky factor L of
    K + diag(noise) and alpha = (K + diag(noise))^-1 z."""
    n = len(points)
    if n > EXACT_SOLVE_CAP:
        raise InvalidInputError(
            f"{n} points exceeds the exact-solve cap {EXACT_SOLVE_CAP}; "
            "use sparse_variational_posterior"
        )
    k = kernel_matrix(points, params)
    low, _ = _chol_with_ladder(k + np.diag(points.noise_var), params.jitter)
    return k, low, cho_solve((low, True), points.z, check_finite=False)


def exact_posterior(
    points: FieldPoints, params: CompositeKernelParams, *, full_cov: bool = False
):
    k, low, alpha = _exact_solve(points, params)
    mean = k @ alpha
    v = solve_triangular(low, k, lower=True, check_finite=False)
    if full_cov:
        cov = k - v.T @ v
        var = np.diag(cov).copy()
    else:
        cov = None
        var = np.diag(k) - np.einsum("ij,ij->j", v, v)
    return GpPosterior(mean=mean, var=var, cov=cov)


def log_marginal_likelihood(
    points: FieldPoints, params: CompositeKernelParams
) -> float:
    _, low, alpha = _exact_solve(points, params)
    return float(
        -0.5 * points.z @ alpha
        - np.sum(np.log(np.diag(low)))
        - 0.5 * len(points) * math.log(2.0 * math.pi)
    )


# hyperparameter search runs in an unconstrained space: log for the positive
# parameters, logit for the (0,1) ones, affine logit for tau's box
_TAU_LO, _TAU_HI = 0.05, 10.0
_FIT_FIELDS = ("sigma2_global", "ell1", "ell2", "rho_a", "alpha_local", "tau")


def _logit(p):
    return math.log(p / (1.0 - p))


def _expit(t):
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _to_vector(params: CompositeKernelParams) -> np.ndarray:
    tau_frac = (params.tau - _TAU_LO) / (_TAU_HI - _TAU_LO)
    tau_frac = min(max(tau_frac, 1e-12), 1 - 1e-12)
    return np.array(
        [
            math.log(params.sigma2_global),
            math.log(params.ell1),
            math.log(params.ell2),
            _logit(params.rho_a),
            _logit(params.alpha_local),
            _logit(tau_frac),
        ]
    )


def _from_vector(t: np.ndarray, base: CompositeKernelParams) -> CompositeKernelParams:
    rho = min(max(_expit(t[3]), 1e-9), 1 - 1e-9)
    alpha = min(max(_expit(t[4]), 1e-9), 1 - 1e-9)
    tau = _TAU_LO + (_TAU_HI - _TAU_LO) * _expit(t[5])
    return replace(
        base,
        sigma2_global=math.exp(min(max(t[0], -700.0), 50.0)),
        ell1=math.exp(min(max(t[1], -700.0), 50.0)),
        ell2=math.exp(min(max(t[2], -700.0), 50.0)),
        rho_a=rho,
        alpha_local=alpha,
        tau=min(max(tau, _TAU_LO), _TAU_HI),
    )


def fit_hyperparameters(
    points: FieldPoints,
    init: CompositeKernelParams,
    *,
    restarts: int = 3,
    max_iter: int = 500,
    tol: float = 1e-6,
    xatol: float = 1e-4,
    perturb_scale: float = 0.5,
    seed: int = 0,
) -> CompositeKernelParams:
    """Maximize the log marginal likelihood over the kernel hyperparameters.

    Derivative-free Nelder–Mead in the transformed (unconstrained) space,
    with ``restarts`` seeded starts: the first from ``init``, the rest from
    Gaussian perturbations of it.  The returned parameters never score below
    ``init``.  Deterministic for a fixed seed.
    """
    base_val = log_marginal_likelihood(points, init)
    if not math.isfinite(base_val):
        raise InvalidInputError("log marginal likelihood non-finite at init")

    def objective(t):
        try:
            val = -log_marginal_likelihood(points, _from_vector(t, init))
        except (NumericalFailureError, InvalidInputError):
            return 1e12
        return val if math.isfinite(val) else 1e12

    rng = np.random.default_rng(seed)
    t0 = _to_vector(init)
    best_params, best_val = init, base_val
    for r in range(max(restarts, 1)):
        start = t0 if r == 0 else t0 + perturb_scale * rng.standard_normal(t0.shape)
        # explicit simplex: scipy's default steps vanish for zero coordinates
        # (log 1 = logit 0.5 = 0), freezing those hyperparameters entirely
        simplex = np.vstack([start, start + 0.5 * np.eye(len(start))])
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxiter": max_iter,
                "xatol": xatol,
                "fatol": tol,
                "adaptive": True,
                "initial_simplex": simplex,
            },
        )
        cand = _from_vector(res.x, init)
        try:
            val = log_marginal_likelihood(points, cand)
        except NumericalFailureError:
            continue
        if val > best_val:
            best_params, best_val = cand, val
    return best_params


def data_informed_init(points: FieldPoints) -> CompositeKernelParams:
    """Starting hyperparameters scaled to the pseudo-observation spread.

    sigma2_global tracks the field variance so the zero-mean prior can carry
    a field-wide offset through long-range correlation; lengthscales start at
    half a standardized coordinate unit.
    """
    return CompositeKernelParams(
        sigma2_global=max(float(np.var(points.z)), 0.25),
        ell1=0.5,
        ell2=0.5,
        rho_a=0.5,
        alpha_local=0.2,
        tau=1.0,
    )


def _select_inducing(pts: FieldPoints, n_inducing: int, seed: int) -> np.ndarray:
    """Indices of inducing points: k-means over (s, a, j, z), nearest-to-centroid."""
    feats = np.column_stack(
        [
            _standardize(pts.x),
            _standardize(pts.y),
            _standardize(pts.archetype.astype(float)),
            _standardize(pts.j.astype(float)),
            _standardize(pts.z),
        ]
    )
    _, centroids = kmeans(feats, n_inducing, rng=seed)
    chosen = []
    taken = np.zeros(len(pts), dtype=bool)
    for c in centroids:
        d2 = np.sum((feats - c) ** 2, axis=1)
        d2[taken] = np.inf
        idx = int(np.argmin(d2))
        chosen.append(idx)
        taken[idx] = True
    return np.array(sorted(chosen))


def sparse_variational_posterior(
    points: FieldPoints,
    params: CompositeKernelParams,
    inducing=None,
    *,
    n_inducing: int | None = None,
    seed: int = 0,
):
    """Collapsed variational posterior with a fixed inducing set.

    For a Gaussian likelihood the optimal variational distribution over the
    inducing values is available in closed form, so a single analytic step
    lands on the ELBO optimum for the given inducing locations (no iterative
    ascent is required, and with inducing = all points the result collapses
    onto the exact posterior).  ``inducing`` may be an index array; when
    omitted, indices are chosen by seeded k-means over (x, y, archetype,
    state, z) features.
    """
    n = len(points)
    if inducing is None:
        m = n_inducing if n_inducing is not None else min(512, max(1, n // 4))
        m = min(m, n)
        inducing = _select_inducing(points, m, seed)
    inducing = np.asarray(inducing, dtype=int)
    if len(inducing) == 0 or len(inducing) > n:
        raise InvalidInputError("inducing set must be a non-empty subset")
    u = points.subset(inducing)

    kuu = kernel_matrix(u, params)
    kuf = _kernel(_pair_geometry(u, points), params)
    kff_diag = params.sigma2_global * (1.0 + params.alpha_local) * np.ones(n)

    lu, _ = _chol_with_ladder(kuu, max(params.jitter, _JITTER_START))
    b = solve_triangular(lu, kuf, lower=True, check_finite=False)
    qff_diag = np.einsum("ij,ij->j", b, b)

    inv_noise = 1.0 / points.noise_var
    c = kuf * inv_noise[None, :]
    m_mat = kuu + c @ kuf.T
    lm, _ = _chol_with_ladder(m_mat, max(params.jitter, _JITTER_START))

    cz = c @ points.z
    mean = kuf.T @ cho_solve((lm, True), cz, check_finite=False)
    t = solve_triangular(lm, kuf, lower=True, check_finite=False)
    var = kff_diag - qff_diag + np.einsum("ij,ij->j", t, t)

    # collapsed bound: log N(z | 0, Qff + Sigma) - 0.5 tr(Sigma^-1 (Kff - Qff))
    w = solve_triangular(lm, cz, lower=True, check_finite=False)
    quad = points.z @ (points.z * inv_noise) - w @ w
    logdet = (
        2.0 * np.sum(np.log(np.diag(lm)))
        - 2.0 * np.sum(np.log(np.diag(lu)))
        + np.sum(np.log(points.noise_var))
    )
    trace_gap = np.sum((kff_diag - qff_diag) * inv_noise)
    elbo = float(
        -0.5 * quad - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi) - 0.5 * trace_gap
    )
    return GpPosterior(mean=mean, var=np.maximum(var, 0.0), elbo=elbo)


def posterior_to_probability(post: GpPosterior):
    """Map latent posterior marginals to (E[P], Var[P]) per point."""
    return pn_moments_vec(post.mean, post.var)


def ordinality_violation_count(points: FieldPoints, mean_p, tol: float = 1e-12) -> int:
    """Number of buildings whose probability means increase with severity."""
    mean_p = np.asarray(mean_p, dtype=float)
    count = 0
    for i in np.unique(points.i):
        mask = points.i == i
        order = np.argsort(points.j[mask])
        m = mean_p[mask][order]
        if np.any(np.diff(m) > tol):
            count += 1
    return int(count)


