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
of sets (and cached per ``FieldPoints`` for the self kernel), and nothing in
it has n_a x n_b entries.  The global term is evaluated once per pair of
*sites*, the distinct (x, y, archetype) rows, or the buildings of a
building-major complete field, and written into one block per state, since
it never couples states; on the complete layout each block is a strided
slice.  The local term is added at the same-building pairs, which a sort of
the building ids finds.

An exact solve allocates one n x n array: the kernel is written straight
into it, the noise is added on its diagonal, and LAPACK ``dpotrf`` factors
it in place, with one shared jitter ladder for the exact and sparse paths.
The exact posterior carries its log marginal likelihood (``log_evidence``),
computed from the same Cholesky factor of K + diag(noise) as the posterior
moments, so reporting a fitted GP takes one factorisation.  The factor
overwrote K, so the posterior writes K into a second n x n buffer, reads
K @ alpha and diag(K) from it, and solves the triangular system in place:
it holds two n x n arrays.  The sparse posterior holds the m x n cross block
and one m x n temporary at a time.

Hyperparameters are fit by maximizing the log marginal likelihood with a
derivative-free simplex search in a log/logit-transformed space:
``_nelder_mead``, the adaptive Nelder–Mead of scipy.optimize written out
here step for step, so a fit returns scipy's bits without loading
scipy.optimize.  A collapsed variational inducing-point posterior
(``sparse_variational_posterior``) is available as a library function only:
no CLI command reaches it, and it has no hyperparameter fit of its own; its
``log_evidence`` is the collapsed bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

# scipy.linalg is imported inside the functions that use it: every CLI call
# is a fresh process, and `prior` and `update --mode local` never reach the
# GP, so they should not pay for loading it
from .cluster import kmeans
from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "FieldPoints",
    "CompositeKernelParams",
    "GpPosterior",
    "kernel_matrix",
    "exact_posterior",
    "log_marginal_likelihood",
    "fit_hyperparameters",
    "sparse_variational_posterior",
    "ordinality_violation_count",
    "check_exact_size",
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
        # the kernel files each point under its state and building by these
        # ids, so a truncated 0.7 or a negative id would file it wrongly
        self.i = _integer_column(i, "i", nonnegative=True)
        self.j = _integer_column(j, "j", nonnegative=True)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.archetype = _integer_column(archetype, "archetype", nonnegative=False)
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
    def from_field_state(cls, fs):
        """Flatten a FieldState into building-major points (z=mu, noise=sigma2).

        Coordinates are standardized per axis (zero mean, unit variance over
        buildings) so spatial lengthscales are scale-free.
        """
        n, d = fs.mu.shape
        return cls(
            i=np.repeat(np.arange(n), d),
            j=np.tile(np.arange(d), n),
            x=np.repeat(_standardize(fs.x), d),
            y=np.repeat(_standardize(fs.y), d),
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


def _integer_column(values, name: str, *, nonnegative: bool) -> np.ndarray:
    raw = np.asarray(values)
    col = raw.astype(int) if raw.dtype.kind in "iuf" else None
    if col is None or not np.array_equal(col, raw):
        raise InvalidInputError(f"field point {name} must be integers")
    if nonnegative and np.any(col < 0):
        raise InvalidInputError(f"field point {name} must be >= 0")
    return col


def _standardize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    sd = v.std()
    if sd == 0:
        return v - v.mean()
    return (v - v.mean()) / sd


class _Geometry(NamedTuple):
    """Hyperparameter-free structure of K(a, b): nothing in it has n_a x n_b
    entries."""

    shape: tuple[int, int]  # (n_a, n_b)
    dx2: np.ndarray  # (S_a, S_b) squared x separations of the sites
    dy2: np.ndarray  # (S_a, S_b) squared y separations of the sites
    arch_diff: np.ndarray  # (S_a, S_b) True where the archetypes differ
    # per state of both sets: (rows of a, their sites, rows of b, their sites)
    blocks: tuple[tuple, ...]
    pair_rows: np.ndarray  # rows in a of the pairs with i == i*
    pair_cols: np.ndarray  # their columns in b
    local_dist: np.ndarray  # |z - z*| + STATE_TIEBREAK |j - j*| at those pairs


def _sites(p: FieldPoints):
    """(sites, states): the (x, y, archetype) rows of the global term's sites,
    and for each state of ``p`` its rows and the site of each row.

    On the building-major complete layout that ``from_field_state`` builds,
    each building is a site, and state j holds rows j::d and every site in
    order, so both are slices.  Otherwise the sites are the distinct rows
    and both are index arrays.
    """
    n, d = len(p), int(p.j.max()) + 1
    cols = (p.x, p.y, p.archetype)
    if (
        n % d == 0
        and np.array_equal(p.j, np.tile(np.arange(d), n // d))
        and all(np.all(c.reshape(-1, d) == c[::d, None]) for c in cols)
    ):
        sites = np.column_stack([c[::d] for c in cols])
        return sites, {j: (slice(j, None, d), slice(None)) for j in range(d)}
    sites, site = np.unique(np.column_stack(cols), axis=0, return_inverse=True)
    order = np.argsort(p.j, kind="stable")
    states, starts = np.unique(p.j[order], return_index=True)
    site = site.ravel()
    return sites, {
        int(j): (rows, site[rows])
        for j, rows in zip(states, np.split(order, starts[1:]))
    }


def _same_building_pairs(ia: np.ndarray, ib: np.ndarray):
    """(rows, cols) of every pair with ia[row] == ib[col]: each row's run of
    equal ids in the sorted ib, rather than an n_a x n_b comparison."""
    order = np.argsort(ib, kind="stable")
    sorted_ib = ib[order]
    lo = np.searchsorted(sorted_ib, ia, side="left")
    count = np.searchsorted(sorted_ib, ia, side="right") - lo
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return np.repeat(np.arange(len(ia)), count), order[np.repeat(lo, count) + k]


def _pair_geometry(a: FieldPoints, b: FieldPoints) -> _Geometry:
    """The global term depends on a point only through its site and its
    state, and is zero across states; the local term only on same-building
    pairs."""
    sites_a, states_a = _sites(a)
    sites_b, states_b = _sites(b)
    r, c = _same_building_pairs(a.i, b.i)

    def squared_separation(k):
        d2 = np.subtract.outer(sites_a[:, k], sites_b[:, k])
        return np.square(d2, out=d2)

    return _Geometry(
        shape=(len(a), len(b)),
        dx2=squared_separation(0),
        dy2=squared_separation(1),
        arch_diff=np.not_equal.outer(sites_a[:, 2], sites_b[:, 2]),
        blocks=tuple((*states_a[j], *states_b[j]) for j in states_a if j in states_b),
        pair_rows=r,
        pair_cols=c,
        local_dist=np.abs(a.z[r] - b.z[c]) + STATE_TIEBREAK * np.abs(a.j[r] - b.j[c]),
    )


@dataclass(frozen=True)
class CompositeKernelParams:
    sigma2_global: float = 1.0
    ell1: float = 1.0
    ell2: float = 1.0
    rho_a: float = 0.5
    alpha_local: float = 0.2
    tau: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        if self.sigma2_global <= 0 or self.ell1 <= 0 or self.ell2 <= 0:
            raise InvalidInputError("variance and lengthscales must be > 0")
        if not 0 < self.rho_a < 1:
            raise InvalidInputError("rho_a must lie in (0, 1)")
        if not 0 < self.alpha_local < 1:
            raise InvalidInputError("alpha_local must lie in (0, 1)")
        if self.tau <= 0:
            raise InvalidInputError("tau must be > 0")


@dataclass
class GpPosterior:
    mean: np.ndarray
    var: np.ndarray
    # exact: the log marginal likelihood; sparse: its collapsed lower bound
    log_evidence: float | None = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.var = np.asarray(self.var, dtype=float)
        if self.mean.shape != self.var.shape:
            raise InvalidInputError("mean/var shape mismatch")
        scale = max(1.0, float(np.max(np.abs(self.var), initial=0.0)))
        if np.any(self.var < -1e-6 * scale):
            raise InvalidInputError("negative posterior variance")
        self.var = np.maximum(self.var, 0.0)


def _kernel(
    geom: _Geometry, params: CompositeKernelParams, out: np.ndarray | None = None
) -> np.ndarray:
    """K(a, b) for the point sets whose geometry is ``geom``, written into
    ``out`` (an n_a x n_b float array) when one is given."""
    if out is None:
        out = np.empty(geom.shape)
    s = geom.dx2 / params.ell1**2
    # S_a x S_b <= n_a x n_b, so out, written last, holds the second term
    term = out.reshape(-1)[: s.size].reshape(s.shape)
    s += np.divide(geom.dy2, params.ell2**2, out=term)
    s *= -0.5
    np.exp(s, out=s)
    s *= params.sigma2_global
    # x * 1.0 is exact, so this is the product with where(arch_diff, rho_a, 1)
    np.multiply(s, params.rho_a, out=s, where=geom.arch_diff)
    out.fill(0.0)
    for rows_a, sites_a, rows_b, sites_b in geom.blocks:
        out[_cross(rows_a, rows_b)] = s[_cross(sites_a, sites_b)]
    local = out[geom.pair_rows, geom.pair_cols] + (
        params.alpha_local
        * params.sigma2_global
        * np.exp(-geom.local_dist / params.tau)
    )
    out[geom.pair_rows, geom.pair_cols] = local
    # every other entry of out is a copy of a site entry or zero
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(local))):
        raise NumericalFailureError("kernel matrix has non-finite entries")
    return out


def _cross(rows, cols):
    """Index of the rows x cols block: slices and one index array combine
    as they are, two index arrays need np.ix_."""
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        return np.ix_(rows, cols)
    return rows, cols


def kernel_matrix(
    points: FieldPoints, params: CompositeKernelParams, out: np.ndarray | None = None
) -> np.ndarray:
    """Assemble the composite kernel matrix over the point set.

    Neither noise nor jitter is added here; solvers add the heteroscedastic
    noise (and any jitter) to the diagonal themselves.  ``out``, a
    C-contiguous n x n float array, receives K in place of a new array.
    """
    return _kernel(points._geometry(), params, out)


def _chol_with_ladder(n: int, assemble, jitter: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of A + jitter I, escalating jitter on failure.

    ``assemble(buf)`` writes the n x n matrix A into ``buf``, a Fortran-order
    array whose lower triangle LAPACK ``dpotrf`` then factors in place.  The
    returned factor is that buffer: its lower triangle holds L, and its strict
    upper triangle still holds A, so every reader must use the lower triangle
    only.  A failed factorisation leaves ``buf`` partly overwritten, so A is
    assembled again before each rung of the ladder.
    """
    from scipy.linalg.lapack import dpotrf

    buf = np.empty((n, n), order="F")
    attempt = jitter
    while True:
        assemble(buf)
        if attempt:
            buf.T.flat[:: n + 1] += attempt
        low, info = dpotrf(buf, lower=1, overwrite_a=1, clean=0)
        if info == 0:
            return low, attempt
        if info < 0:
            raise NumericalFailureError(f"dpotrf rejected argument {-info}")
        attempt = _JITTER_START if attempt == 0 else attempt * 10.0
        if attempt > _JITTER_CAP:
            raise NumericalFailureError(
                f"Cholesky failed with jitter escalated to {attempt:.0e}"
            )


def check_exact_size(n_buildings: int, n_states: int) -> None:
    """Reject a gp run over more (building, state) points than the exact
    solve takes; gp mode has no other posterior."""
    if n_buildings * n_states > EXACT_SOLVE_CAP:
        raise InvalidInputError(
            f"gp mode takes at most {EXACT_SOLVE_CAP // n_states} buildings "
            f"({EXACT_SOLVE_CAP} GP points over {n_states} states), got {n_buildings}"
        )


def _exact_solve(points: FieldPoints, params: CompositeKernelParams):
    """(L, alpha, lml): the lower Cholesky factor L of K + diag(noise) (as
    ``_chol_with_ladder`` returns it), alpha = (K + diag(noise))^-1 z and the
    log marginal likelihood log N(z | 0, K + diag(noise)) (Rasmussen &
    Williams, Alg. 2.1).  K is assembled straight into the buffer LAPACK
    factors, so the solve allocates one n x n array."""
    from scipy.linalg.lapack import dpotrs

    n = len(points)
    if n > EXACT_SOLVE_CAP:
        raise InvalidInputError(
            f"{n} points exceeds the exact-solve cap {EXACT_SOLVE_CAP}; "
            "use sparse_variational_posterior"
        )

    def assemble(buf):
        # K is symmetric, so the C-order view of the Fortran buffer takes it
        k = kernel_matrix(points, params, out=buf.T)
        k.flat[:: n + 1] += points.noise_var

    low, _ = _chol_with_ladder(n, assemble, 0.0)
    alpha, _ = dpotrs(low, points.z, lower=1)
    lml = float(
        -0.5 * points.z @ alpha
        - np.sum(np.log(low.diagonal()))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    return low, alpha, lml


def exact_posterior(points: FieldPoints, params: CompositeKernelParams) -> GpPosterior:
    """Posterior marginals at the points, with the log marginal likelihood
    from the same factorisation as ``log_evidence``."""
    from scipy.linalg import solve_triangular

    low, alpha, lml = _exact_solve(points, params)
    # the factor overwrote the solve's copy of K, so K is assembled again
    # into a second buffer, which the triangular solve then overwrites; K
    # is symmetric, so the Fortran buffer and its C-order view both hold it
    n = len(points)
    buf = np.empty((n, n), order="F")
    k = kernel_matrix(points, params, out=buf.T)
    mean = k @ alpha
    k_diag = k.diagonal().copy()
    v = solve_triangular(low, buf, lower=True, check_finite=False, overwrite_b=True)
    var = k_diag - np.einsum("ij,ij->j", v, v)
    return GpPosterior(mean=mean, var=var, log_evidence=lml)


def log_marginal_likelihood(
    points: FieldPoints, params: CompositeKernelParams
) -> float:
    return _exact_solve(points, params)[2]


# hyperparameter search runs in an unconstrained space: log for the positive
# parameters, logit for the (0,1) ones, affine logit for tau's box
_TAU_LO, _TAU_HI = 0.05, 10.0
_FAILED = 1e12  # objective value of a point whose LML cannot be evaluated


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


def _nelder_mead(f, simplex, max_iter, xatol, fatol):
    """Minimize ``f`` from ``simplex``, an (n + 1, n) array of vertices, by
    the adaptive Nelder–Mead of Gao & Han (2012); returns ``(x, f(x))``.

    This is scipy.optimize's ``minimize(method="Nelder-Mead", adaptive=True,
    initial_simplex=simplex)`` with ``maxiter=max_iter`` (scipy 1.17) written
    out expression for expression: the same coefficients, centroid, branch
    order, ``<``/``<=`` tie rules and argsort passes, so it evaluates ``f``
    at the same points in the same order and returns the same bits.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    fsim = np.array([f(v) for v in sim], dtype=float)
    for _ in range(2):  # scipy sorts the first simplex twice
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < max_iter:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], fsim[0]


def fit_hyperparameters(
    points: FieldPoints,
    init: CompositeKernelParams,
    *,
    restarts: int = 3,
    max_iter: int = 500,
    tol: float = 1e-6,
    xatol: float = 1e-4,
    seed: int = 0,
) -> CompositeKernelParams:
    """Maximize the log marginal likelihood over the kernel hyperparameters.

    Derivative-free Nelder–Mead in the transformed (unconstrained) space,
    with ``restarts`` seeded starts: the first from ``init``, the rest from
    Gaussian perturbations (scale 0.5) of it.  Each restart is scored by the
    optimizer's own value at its returned point, which is the objective
    evaluated there.  The returned parameters never score below ``init``.
    Deterministic for a fixed seed.
    """
    # init is scored at its own vector image, which is also the first
    # vertex of the first restart's simplex, so that point is solved once
    t0 = _to_vector(init)
    base_val = log_marginal_likelihood(points, _from_vector(t0, init))
    if not math.isfinite(base_val):
        raise InvalidInputError("log marginal likelihood non-finite at init")

    def objective(t):
        if np.array_equal(t, t0):
            return -base_val
        try:
            val = -log_marginal_likelihood(points, _from_vector(t, init))
        except (NumericalFailureError, InvalidInputError):
            return _FAILED
        return val if math.isfinite(val) else _FAILED

    rng = np.random.default_rng(seed)
    best_params, best_val = init, base_val
    for r in range(max(restarts, 1)):
        start = t0 if r == 0 else t0 + 0.5 * rng.standard_normal(t0.shape)
        # steps of 0.5 on every axis: steps proportional to the start (as in
        # scipy's default simplex) would vanish for zero coordinates
        # (log 1 = logit 0.5 = 0), freezing those hyperparameters entirely
        simplex = np.vstack([start, start + 0.5 * np.eye(len(start))])
        x, fun = _nelder_mead(objective, simplex, max_iter, xatol, tol)
        if fun < _FAILED and -fun > best_val:
            best_params, best_val = _from_vector(x, init), -fun
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
    from scipy.linalg import solve_triangular
    from scipy.linalg.lapack import dpotrs

    n = len(points)
    if inducing is None:
        m = n_inducing if n_inducing is not None else min(512, max(1, n // 4))
        m = min(m, n)
        inducing = _select_inducing(points, m, seed)
    inducing = np.asarray(inducing, dtype=int)
    if len(inducing) == 0 or len(inducing) > n:
        raise InvalidInputError("inducing set must be a non-empty subset")
    m = len(inducing)
    u = points.subset(inducing)

    kuu = kernel_matrix(u, params)
    kuf = _kernel(_pair_geometry(u, points), params)
    kff_diag = params.sigma2_global * (1.0 + params.alpha_local) * np.ones(n)

    # beside kuf, one m x n temporary at a time: b, then c, then t
    lu, _ = _chol_with_ladder(m, lambda buf: np.copyto(buf, kuu), _JITTER_START)
    b = solve_triangular(lu, kuf, lower=True, check_finite=False)
    qff_diag = np.einsum("ij,ij->j", b, b)
    del b

    inv_noise = 1.0 / points.noise_var
    c = kuf * inv_noise[None, :]
    m_mat = kuu + c @ kuf.T
    cz = c @ points.z
    del c
    lm, _ = _chol_with_ladder(m, lambda buf: np.copyto(buf, m_mat), _JITTER_START)

    mean = kuf.T @ dpotrs(lm, cz, lower=1)[0]
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
    return GpPosterior(mean=mean, var=np.maximum(var, 0.0), log_evidence=elbo)


def ordinality_violation_count(points: FieldPoints, mean_p) -> int:
    """Number of buildings whose probability means increase with severity
    (by more than 1e-12 between consecutive states)."""
    order = np.lexsort((points.j, points.i))
    i = points.i[order]
    mean_p = np.asarray(mean_p, dtype=float)[order]
    rises = (np.diff(mean_p) > 1e-12) & (i[1:] == i[:-1])
    return int(np.unique(i[1:][rises]).size)
