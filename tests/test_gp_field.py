import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf
from scipy.optimize import minimize

from fragfield import gp_field
from fragfield.cluster import balanced_kmeans, kmeans
from fragfield.errors import InvalidInputError, NumericalFailureError
from fragfield.gp_field import (
    CompositeKernelParams,
    FieldPoints,
    GpPosterior,
    _kernel,
    _select_inducing,
    exact_posterior,
    fit_hyperparameters,
    kernel_matrix,
    log_marginal_likelihood,
    ordinality_violation_count,
    sparse_variational_posterior,
)
from fragfield.probit_normal import pn_moments_vec


def pt(i, j, x, y, arch=1, z=0.0, noise=1.0):
    """One (i, j, x, y, archetype, z, noise_var) row."""
    return (i, j, x, y, arch, z, noise)


def fp(*rows):
    """FieldPoints from pt() rows."""
    return FieldPoints(*zip(*rows))


def random_points(rng, n, n_states=3, n_arch=4):
    return FieldPoints(
        i=rng.integers(0, max(2, n // 2), n),
        j=rng.integers(0, n_states, n),
        x=rng.normal(0, 2, n),
        y=rng.normal(0, 2, n),
        archetype=rng.integers(1, n_arch + 1, n),
        z=rng.normal(0, 1, n),
        noise_var=rng.uniform(0.05, 2.0, n),
    )


def grid_points(rng, b, d=3):
    """Building-major set: every building carries all d states at one site."""
    return FieldPoints(
        i=np.repeat(np.arange(b), d),
        j=np.tile(np.arange(d), b),
        x=np.repeat(rng.normal(0, 1, b), d),
        y=np.repeat(rng.normal(0, 1, b), d),
        archetype=np.repeat(rng.integers(1, 5, b), d),
        z=rng.normal(0, 1, b * d),
        noise_var=rng.uniform(1e-3, 1.0, b * d),
    )


def random_params(rng):
    return CompositeKernelParams(
        sigma2_global=float(rng.uniform(0.1, 5)),
        ell1=float(rng.uniform(0.2, 3)),
        ell2=float(rng.uniform(0.2, 3)),
        rho_a=float(rng.uniform(0.05, 0.95)),
        alpha_local=float(rng.uniform(0.05, 0.95)),
        tau=float(rng.uniform(0.1, 5)),
    )


def reference_chol(a, jitter):
    """Copy-based jitter ladder: scipy's cholesky on a + attempt * I."""
    attempt = jitter
    while True:
        try:
            shifted = a if attempt == 0 else a + attempt * np.eye(len(a))
            return cholesky(shifted, lower=True, check_finite=False), attempt
        except np.linalg.LinAlgError:
            attempt = 1e-10 if attempt == 0 else attempt * 10.0
            assert attempt <= 1e-4


def reference_exact(points, params):
    """(lml, mean, var, jitter) from K + diag(noise) formed as a new array."""
    k = kernel_matrix(points, params)
    low, jitter = reference_chol(k + np.diag(points.noise_var), 0.0)
    alpha = cho_solve((low, True), points.z, check_finite=False)
    lml = float(
        -0.5 * points.z @ alpha
        - np.sum(np.log(np.diag(low)))
        - 0.5 * len(points) * math.log(2.0 * math.pi)
    )
    v = solve_triangular(low, k, lower=True, check_finite=False)
    var = np.diag(k) - np.einsum("ij,ij->j", v, v)
    return lml, k @ alpha, np.maximum(var, 0.0), jitter


def reference_sparse(points, params, inducing):
    """(mean, var, bound) of the collapsed posterior with copied Kuu and M."""
    n = len(points)
    u = points.subset(inducing)
    kuu = kernel_matrix(u, params)
    kuf = _kernel(gp_field._pair_geometry(u, points), params)
    kff_diag = params.sigma2_global * (1.0 + params.alpha_local) * np.ones(n)
    lu, _ = reference_chol(kuu, 1e-10)
    b = solve_triangular(lu, kuf, lower=True, check_finite=False)
    qff_diag = np.einsum("ij,ij->j", b, b)
    inv_noise = 1.0 / points.noise_var
    c = kuf * inv_noise[None, :]
    lm, _ = reference_chol(kuu + c @ kuf.T, 1e-10)
    cz = c @ points.z
    mean = kuf.T @ cho_solve((lm, True), cz, check_finite=False)
    t = solve_triangular(lm, kuf, lower=True, check_finite=False)
    var = kff_diag - qff_diag + np.einsum("ij,ij->j", t, t)
    w = solve_triangular(lm, cz, lower=True, check_finite=False)
    quad = points.z @ (points.z * inv_noise) - w @ w
    logdet = (
        2.0 * np.sum(np.log(np.diag(lm)))
        - 2.0 * np.sum(np.log(np.diag(lu)))
        + np.sum(np.log(points.noise_var))
    )
    trace_gap = np.sum((kff_diag - qff_diag) * inv_noise)
    bound = float(
        -0.5 * quad - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi) - 0.5 * trace_gap
    )
    return mean, np.maximum(var, 0.0), bound


def repeated_site_points(rng, n):
    """Scattered set on four distinct coordinates, one archetype."""
    xs = rng.normal(0, 1, 4)
    site = rng.integers(0, 4, n)
    return FieldPoints(
        i=rng.integers(0, max(2, n // 2), n),
        j=rng.integers(0, 3, n),
        x=xs[site],
        y=0.5 * xs[site],
        archetype=np.ones(n, dtype=int),
        z=rng.normal(0, 1, n),
        noise_var=rng.uniform(1e-3, 1.0, n),
    )


def gather_kernel(a, b, params):
    """K(a, b) by the single gather that preceded the per-state blocks: every
    point pair reads its site pair through one n_a x n_b index, cross-state
    pairs read a trailing zero, and the local term is added at the
    same-building pairs."""
    cols_a = np.column_stack([a.x, a.y, a.archetype])
    cols_b = np.column_stack([b.x, b.y, b.archetype])
    sites_a, site_a = np.unique(cols_a, axis=0, return_inverse=True)
    sites_b, site_b = np.unique(cols_b, axis=0, return_inverse=True)
    n_sites_b = len(sites_b)
    take = site_a.reshape(-1, 1) * n_sites_b + site_b.reshape(1, -1)
    take[a.j[:, None] != b.j[None, :]] = len(sites_a) * n_sites_b
    dx2 = (sites_a[:, 0, None] - sites_b[None, :, 0]) ** 2
    dy2 = (sites_a[:, 1, None] - sites_b[None, :, 1]) ** 2
    buf = np.zeros(len(sites_a) * n_sites_b + 1)
    s = buf[:-1].reshape(len(sites_a), n_sites_b)
    np.exp(-0.5 * (dx2 / params.ell1**2 + dy2 / params.ell2**2), out=s)
    s *= params.sigma2_global
    s *= np.where(sites_a[:, 2, None] != sites_b[None, :, 2], params.rho_a, 1.0)
    k = buf.take(take)
    same_building = np.flatnonzero(a.i[:, None] == b.i[None, :])
    r, c = np.divmod(same_building, len(b))
    local_dist = np.abs(a.z[r] - b.z[c]) + 1e-8 * np.abs(a.j[r] - b.j[c])
    k.flat[same_building] = k.flat[same_building] + (
        params.alpha_local * params.sigma2_global * np.exp(-local_dist / params.tau)
    )
    return k


class TestKernelMatrix:
    def test_self_entry(self):
        p = CompositeKernelParams(sigma2_global=2.0, alpha_local=0.3)
        k = kernel_matrix(fp(pt(0, 0, 0, 0)), p)
        assert k[0, 0] == pytest.approx(2.0 + 0.3 * 2.0)

    def test_two_buildings_rbf_value(self):
        p = CompositeKernelParams(sigma2_global=1.5, ell1=2.0, ell2=1.0)
        pts = fp(pt(0, 0, 0.0, 0.0), pt(1, 0, 2.0, 0.0))
        k = kernel_matrix(pts, p)
        # separation of exactly one ell1 along x: sigma2 * e^-0.5
        assert k[0, 1] == pytest.approx(1.5 * math.exp(-0.5))
        assert k[0, 1] == k[1, 0]

    def test_cross_archetype_factor(self):
        p = CompositeKernelParams(rho_a=0.25)
        pts = fp(pt(0, 0, 0, 0, arch=1), pt(1, 0, 0, 0, arch=2))
        k = kernel_matrix(pts, p)
        assert k[0, 1] == pytest.approx(0.25 * p.sigma2_global)

    def test_same_building_cross_state(self):
        p = CompositeKernelParams(sigma2_global=1.0, alpha_local=0.2, tau=1.0)
        pts = fp(pt(0, 0, 0, 0, z=0.5), pt(0, 1, 0, 0, z=0.5))
        k = kernel_matrix(pts, p)
        # global term vanishes (different states); local ~ alpha*sigma2
        assert k[0, 1] == pytest.approx(0.2 * math.exp(-1e-8 / 1.0), rel=1e-9)

    def test_cross_state_cross_building_is_zero(self):
        p = CompositeKernelParams()
        pts = fp(pt(0, 0, 0, 0), pt(1, 1, 0.1, 0.1))
        k = kernel_matrix(pts, p)
        assert k[0, 1] == 0.0

    def test_local_z_decay(self):
        p = CompositeKernelParams(alpha_local=0.5, tau=2.0)
        pts = fp(pt(0, 0, 0, 0, z=1.0), pt(0, 1, 0, 0, z=-1.0))
        k = kernel_matrix(pts, p)
        expected = 0.5 * math.exp(-(2.0 + 1e-8) / 2.0)
        assert k[0, 1] == pytest.approx(expected, rel=1e-9)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(7)
        b, d = 11, 3
        grid = FieldPoints(
            i=np.repeat(np.arange(b), d),
            j=np.tile(np.arange(d), b),
            x=np.repeat(rng.normal(0, 1, b), d),
            y=np.repeat(rng.normal(0, 1, b), d),
            archetype=np.repeat(rng.integers(1, 5, b), d),
            z=rng.normal(0, 1, b * d),
            noise_var=np.ones(b * d),
        )
        p = CompositeKernelParams(
            sigma2_global=1.7, ell1=0.8, ell2=1.3, rho_a=0.4, alpha_local=0.3, tau=0.7
        )
        # a building-major grid and a scattered set whose buildings carry
        # several coordinates: reordering the points reorders K exactly
        for pts in (grid, random_points(rng, 40)):
            perm = rng.permutation(len(pts))
            k = kernel_matrix(pts, p)
            k_perm = kernel_matrix(pts.subset(perm), p)
            assert np.array_equal(k_perm, k[np.ix_(perm, perm)])

    def test_nan_site_entry_raises(self):
        # ell1**2 underflows to 0, so 0/0 puts NaN on the site diagonal
        pts = fp(pt(0, 0, 0, 0), pt(1, 0, 1.0, 0.5))
        with pytest.raises(NumericalFailureError):
            kernel_matrix(pts, CompositeKernelParams(ell1=1e-200))

    def test_overflow_in_same_building_term_raises(self):
        # every site entry is finite (at most 1e308); only the sum with the
        # local term at same-building pairs overflows (1e308 + 0.9e308)
        pts = fp(pt(0, 0, 0, 0, z=0.5), pt(0, 1, 0, 0, z=0.5), pt(1, 0, 3.0, 0))
        p = CompositeKernelParams(sigma2_global=1e308, alpha_local=0.9)
        with pytest.raises(NumericalFailureError):
            kernel_matrix(pts, p)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_psd_random_configs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 100))
        pts = random_points(rng, n)
        p = CompositeKernelParams(
            sigma2_global=float(rng.uniform(0.1, 5)),
            ell1=float(rng.uniform(0.2, 3)),
            ell2=float(rng.uniform(0.2, 3)),
            rho_a=float(rng.uniform(0.05, 0.95)),
            alpha_local=float(rng.uniform(0.05, 0.95)),
            tau=float(rng.uniform(0.1, 5)),
        )
        k = kernel_matrix(pts, p)
        assert np.allclose(k, k.T, atol=1e-12)
        w = np.linalg.eigvalsh(k + 1e-10 * np.eye(n))
        assert w.min() >= -1e-8


class TestKernelEqualsGather:
    """The per-state blocks write the gather's kernel bit for bit."""

    @pytest.mark.parametrize("kind", ["grid", "shuffled", "scattered", "repeated"])
    @pytest.mark.parametrize("seed", range(5))
    def test_self_and_cross_block(self, kind, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(4, 150))
        if kind == "scattered":
            pts = random_points(rng, n)
        elif kind == "repeated":
            pts = repeated_site_points(rng, n)
        else:
            pts = grid_points(rng, n // 3 + 1)
            if kind == "shuffled":
                pts = pts.subset(rng.permutation(len(pts)))
        p = random_params(rng)
        assert np.array_equal(kernel_matrix(pts, p), gather_kernel(pts, pts, p))
        u = pts.subset(_select_inducing(pts, max(1, len(pts) // 4), seed))
        kuf = _kernel(gp_field._pair_geometry(u, pts), p)
        assert np.array_equal(kuf, gather_kernel(u, pts, p))

    def test_states_missing_from_one_set(self):
        # the inducing set holds state 1 of buildings 0-4 only
        rng = np.random.default_rng(3)
        pts = grid_points(rng, 20)
        u = pts.subset(np.flatnonzero(pts.j == 1)[:5])
        p = random_params(rng)
        kuf = _kernel(gp_field._pair_geometry(u, pts), p)
        assert np.array_equal(kuf, gather_kernel(u, pts, p))
        assert not np.any(kuf[:, (pts.j != 1) & (pts.i > 4)])

    def test_geometry_of_complete_field_under_4_bytes_per_pair(self):
        # the gather's int64 index and its bool masks peaked near 10 bytes
        # per point pair; the site pairs of a complete field are n^2 / 9
        rng = np.random.default_rng(1)
        pts = grid_points(rng, 1000)
        tracemalloc.start()
        try:
            geom = gp_field._pair_geometry(pts, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(pts) ** 2
        assert all(a.size < len(pts) ** 2 for a in geom if isinstance(a, np.ndarray))


class TestExactPosterior:
    def test_scalar_case(self):
        # K = sigma2*(1+alpha) must equal 1: set sigma2 = 1/(1+alpha)
        alpha = 0.25
        p = CompositeKernelParams(sigma2_global=1.0 / (1 + alpha), alpha_local=alpha)
        post = exact_posterior(fp(pt(0, 0, 0, 0, z=2.0, noise=1.0)), p)
        assert post.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert post.var[0] == pytest.approx(0.5, abs=1e-12)

    def test_high_noise_reverts_to_prior(self):
        rng = np.random.default_rng(3)
        pts = random_points(rng, 40)
        p = CompositeKernelParams()
        kscale = p.sigma2_global * (1 + p.alpha_local)
        noisy = pts.replace_z(pts.z, noise_var=np.full(len(pts), 1e6 * kscale))
        post = exact_posterior(noisy, p)
        assert np.max(np.abs(post.mean)) < 1e-3
        k = kernel_matrix(noisy, p)
        assert np.allclose(post.var, np.diag(k), rtol=1e-3)

    def test_low_noise_interpolates(self):
        rng = np.random.default_rng(4)
        pts = random_points(rng, 40)
        p = CompositeKernelParams()
        kscale = p.sigma2_global * (1 + p.alpha_local)
        sharp = pts.replace_z(pts.z, noise_var=np.full(len(pts), 1e-6 * kscale))
        post = exact_posterior(sharp, p)
        assert np.max(np.abs(post.mean - sharp.z)) < 1e-3

    def test_posterior_variance_bounded_by_prior(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 60)
        p = CompositeKernelParams()
        post = exact_posterior(pts, p)
        k = kernel_matrix(pts, p)
        assert np.all(post.var <= np.diag(k) + 1e-8)
        assert np.all(post.var >= 0)

    def test_anchoring_monotone(self):
        # shrinking noise at A pulls the mean at correlated B toward z_A
        p = CompositeKernelParams(sigma2_global=1.0, ell1=1.0, ell2=1.0)
        means = []
        for noise_a in (10.0, 1.0, 0.1, 0.01, 1e-4):
            pts = FieldPoints(
                i=[0, 1],
                j=[0, 0],
                x=[0.0, 0.3],
                y=[0.0, 0.0],
                archetype=[1, 1],
                z=[2.0, 0.0],
                noise_var=[noise_a, 5.0],
            )
            means.append(exact_posterior(pts, p).mean[1])
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_cap_enforced(self):
        n = 4001
        pts = FieldPoints(
            i=np.arange(n),
            j=np.zeros(n, dtype=int),
            x=np.zeros(n),
            y=np.zeros(n),
            archetype=np.ones(n, dtype=int),
            z=np.zeros(n),
            noise_var=np.ones(n),
        )
        with pytest.raises(InvalidInputError, match="cap"):
            exact_posterior(pts, CompositeKernelParams())


class TestLogMarginalLikelihood:
    def test_near_zero_kernel(self):
        p = CompositeKernelParams(sigma2_global=1e-300, alpha_local=1e-9)
        val = log_marginal_likelihood(fp(pt(0, 0, 0, 0, z=0.0, noise=1.0)), p)
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-9)

    def test_scalar_formula(self):
        alpha = 0.5
        p = CompositeKernelParams(sigma2_global=2.0, alpha_local=alpha)
        z, noise = 1.3, 0.7
        v = 2.0 * (1 + alpha) + noise
        expected = -0.5 * z * z / v - 0.5 * math.log(v) - 0.5 * math.log(2 * math.pi)
        got = log_marginal_likelihood(fp(pt(0, 0, 0, 0, z=z, noise=noise)), p)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_gaussian_logpdf(self):
        rng = np.random.default_rng(11)
        pts = random_points(rng, 20)
        p = CompositeKernelParams()
        k = kernel_matrix(pts, p) + np.diag(pts.noise_var)
        sign, logdet = np.linalg.slogdet(k)
        assert sign > 0
        expected = (
            -0.5 * pts.z @ np.linalg.solve(k, pts.z)
            - 0.5 * logdet
            - 0.5 * len(pts) * math.log(2 * math.pi)
        )
        assert log_marginal_likelihood(pts, p) == pytest.approx(expected, abs=1e-9)
        # the posterior carries the same value from its own factorisation
        assert exact_posterior(pts, p).log_evidence == log_marginal_likelihood(pts, p)


class TestInPlaceFactor:
    """The in-place LAPACK solve gives the copy-based solve's values exactly."""

    @pytest.mark.parametrize("kind", ["grid", "shuffled", "repeated"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_copy_based_solve(self, kind, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(5, 120))
        if kind == "repeated":
            pts = repeated_site_points(rng, n)
        else:
            pts = grid_points(rng, n // 3 + 1)
            if kind == "shuffled":
                pts = pts.subset(rng.permutation(len(pts)))
        p = random_params(rng)
        lml, mean, var, _ = reference_exact(pts, p)
        assert log_marginal_likelihood(pts, p) == lml
        post = exact_posterior(pts, p)
        assert post.log_evidence == lml
        assert np.array_equal(post.mean, mean)
        assert np.array_equal(post.var, var)
        inducing = _select_inducing(pts, max(1, len(pts) // 4), seed)
        svgp = sparse_variational_posterior(pts, p, inducing=inducing)
        s_mean, s_var, bound = reference_sparse(pts, p, inducing)
        assert np.array_equal(svgp.mean, s_mean)
        assert np.array_equal(svgp.var, s_var)
        assert svgp.log_evidence == bound

    def test_forced_jitter_ladder(self):
        # two copies of one (building, state) point: K is singular, and the
        # noise (1e-30) is lost against K's 1.5, so rung 0 fails
        pts = fp(
            pt(0, 0, 0, 0, z=0.3, noise=1e-30), pt(0, 0, 0, 0, z=0.3, noise=1e-30)
        )
        p = CompositeKernelParams(sigma2_global=1.0, alpha_local=0.5)
        k = kernel_matrix(pts, p)
        assert dpotrf(k + np.diag(pts.noise_var), lower=1)[1] == 2
        lml, mean, var, jitter = reference_exact(pts, p)
        assert jitter == 1e-10
        assert log_marginal_likelihood(pts, p) == lml
        post = exact_posterior(pts, p)
        assert np.array_equal(post.mean, mean)
        assert np.array_equal(post.var, var)

    def test_nan_kernel_raises_from_lml(self):
        # ell1**2 underflows to 0, so 0/0 puts NaN on the site diagonal
        pts = fp(pt(0, 0, 0, 0), pt(1, 0, 1.0, 0.5))
        with pytest.raises(NumericalFailureError):
            log_marginal_likelihood(pts, CompositeKernelParams(ell1=1e-200))


# the statement that runs only on each branch of _nelder_mead's loop
NM_BRANCHES = {
    "expansion": "xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]",
    "outside contraction": "xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]",
    "inside contraction": "xc = (1 - psi) * xbar + psi * sim[-1]",
    "shrink": "fsim[j] = f(sim[j])",
    "tolerance stop": "break",
}


def nm_branches_taken(*args):
    """Run _nelder_mead(*args) and name the branches of NM_BRANCHES it took."""
    func = gp_field._nelder_mead
    lines, first = inspect.getsourcelines(func)
    text = {first + k: line.strip() for k, line in enumerate(lines)}
    hit = set()

    def tracer(frame, event, arg):
        if frame.f_code is not func.__code__:
            return None
        if event == "line":
            hit.add(text[frame.f_lineno])
        return tracer

    sys.settrace(tracer)
    try:
        func(*args)
    finally:
        sys.settrace(None)
    assert set(NM_BRANCHES.values()) <= set(text.values())
    return {name for name, stmt in NM_BRANCHES.items() if stmt in hit}


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def quadratic(x):
    return float(np.sum(np.arange(1, len(x) + 1) * (x - 0.3) ** 2))


def kinked(x):
    return float(np.sum(np.abs(x - 0.1)) + 0.5 * np.max(np.abs(x)))


def walled(x):
    """A bowl behind a wall of the fit's failure sentinel."""
    return gp_field._FAILED if x[0] > 0.4 else float(np.sum((x + 0.5) ** 2))


# (objective, simplex, max_iter, xatol, fatol): together the cases take every
# branch of the loop; the last two shrink, and the last starts with three
# vertices behind the wall
NM_CASES = [
    (rosenbrock, np.array([[-1.2, 1.0], [-0.7, 1.0], [-1.2, 1.5]]), 400, 1e-8, 1e-8),
    (rosenbrock, np.array([[-1.2, 1.0], [-0.7, 1.0], [-1.2, 1.5]]), 60, 1e-4, 1e-6),
    (quadratic, np.vstack([np.zeros(6), 0.5 * np.eye(6)]), 500, 1e-4, 1e-6),
    (quadratic, np.vstack([np.zeros(6), 0.5 * np.eye(6)]), 1, 1e-4, 1e-6),
    (kinked, np.vstack([np.ones(3), np.ones(3) + 0.5 * np.eye(3)]), 300, 1e-6, 1e-8),
    (rosenbrock, np.array([[1.5, 1.4], [-0.6, 1.4], [1.2, 1.1]]), 200, 1e-4, 1e-6),
    (
        walled,
        np.array(
            [
                [1.4, -0.1, -0.7, 0.6],
                [1.3, 0.1, 1.4, 0.2],
                [0.1, 0.6, 1.5, 1.4],
                [0.2, 0.9, 0.2, 0.3],
                [1.0, 0.0, 0.8, 0.8],
            ]
        ),
        200,
        1e-4,
        1e-6,
    ),
]


class TestNelderMead:
    """_nelder_mead against scipy.optimize's adaptive Nelder–Mead."""

    @pytest.mark.parametrize("case", range(len(NM_CASES)))
    def test_same_points_and_result_as_scipy(self, case):
        f, simplex, max_iter, xatol, fatol = NM_CASES[case]
        ours, theirs = [], []

        def spy(calls):
            def g(x):
                calls.append(np.array(x))
                return f(x)

            return g

        x, fun = gp_field._nelder_mead(spy(ours), simplex, max_iter, xatol, fatol)
        res = minimize(
            spy(theirs),
            simplex[0],
            method="Nelder-Mead",
            options={
                "maxiter": max_iter,
                "xatol": xatol,
                "fatol": fatol,
                "adaptive": True,
                "initial_simplex": simplex,
            },
        )
        assert np.array_equal(x, res.x)
        assert fun == res.fun
        assert len(ours) == len(theirs) == res.nfev
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    def test_cases_take_every_branch(self):
        taken = set()
        for f, simplex, max_iter, xatol, fatol in NM_CASES:
            taken |= nm_branches_taken(f, simplex, max_iter, xatol, fatol)
        assert taken == set(NM_BRANCHES)
        assert "shrink" in nm_branches_taken(*NM_CASES[-1])
        assert sum(walled(v) == gp_field._FAILED for v in NM_CASES[-1][1]) == 3


def reference_fit(points, init, *, restarts, max_iter, tol=1e-6, xatol=1e-4, seed=0):
    """fit_hyperparameters as it ran on scipy.optimize.minimize."""
    t0 = gp_field._to_vector(init)
    base_val = log_marginal_likelihood(points, gp_field._from_vector(t0, init))

    def objective(t):
        if np.array_equal(t, t0):
            return -base_val
        try:
            val = -log_marginal_likelihood(points, gp_field._from_vector(t, init))
        except (NumericalFailureError, InvalidInputError):
            return gp_field._FAILED
        return val if math.isfinite(val) else gp_field._FAILED

    rng = np.random.default_rng(seed)
    best_params, best_val = init, base_val
    for r in range(max(restarts, 1)):
        start = t0 if r == 0 else t0 + 0.5 * rng.standard_normal(t0.shape)
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
        if res.fun < gp_field._FAILED and -res.fun > best_val:
            best_params, best_val = gp_field._from_vector(res.x, init), -res.fun
    return best_params


class TestFitHyperparameters:
    def test_improves_or_matches_init(self):
        rng = np.random.default_rng(21)
        pts = random_points(rng, 30)
        init = CompositeKernelParams()
        fitted = fit_hyperparameters(pts, init, restarts=1, max_iter=80, seed=0)
        assert log_marginal_likelihood(pts, fitted) >= log_marginal_likelihood(
            pts, init
        )

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        pts = random_points(rng, 25)
        init = CompositeKernelParams()
        a = fit_hyperparameters(pts, init, restarts=2, max_iter=60, seed=5)
        b = fit_hyperparameters(pts, init, restarts=2, max_iter=60, seed=5)
        assert a == b

    def test_init_vertex_solved_once(self, monkeypatch):
        # init's score and the first simplex vertex are the same point
        seen = []
        solve = gp_field._exact_solve

        def spy(points, params):
            seen.append(params)
            return solve(points, params)

        monkeypatch.setattr(gp_field, "_exact_solve", spy)
        rng = np.random.default_rng(23)
        pts = random_points(rng, 20)
        init = CompositeKernelParams()
        fit_hyperparameters(pts, init, restarts=1, max_iter=30)
        assert seen[0] == gp_field._from_vector(gp_field._to_vector(init), init)
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("restarts", [1, 2])
    def test_same_fit_and_solves_as_scipy_minimize(self, monkeypatch, restarts):
        solves = []
        solve = gp_field._exact_solve

        def spy(points, params):
            solves.append(params)
            return solve(points, params)

        monkeypatch.setattr(gp_field, "_exact_solve", spy)
        rng = np.random.default_rng(24)
        pts = grid_points(rng, 12)
        init = gp_field.data_informed_init(pts)
        fitted = fit_hyperparameters(pts, init, restarts=restarts, max_iter=60, seed=3)
        ours, solves[:] = list(solves), []
        expected = reference_fit(pts, init, restarts=restarts, max_iter=60, seed=3)
        assert fitted == expected
        assert ours == solves

    def test_single_point_returns_init_when_no_uphill(self):
        p = CompositeKernelParams()
        pts = fp(pt(0, 0, 0, 0, z=0.0, noise=1.0))
        fitted = fit_hyperparameters(pts, p, restarts=1, max_iter=40, seed=0)
        assert log_marginal_likelihood(pts, fitted) >= log_marginal_likelihood(pts, p)

    def test_lengthscale_recovery_within_factor(self):
        # simulate from known params on a spatial grid and refit
        true = CompositeKernelParams(
            sigma2_global=1.0, ell1=0.6, ell2=1.8, rho_a=0.5, alpha_local=0.2, tau=1.0
        )
        rng = np.random.default_rng(33)
        b, d = 80, 2
        pts0 = FieldPoints(
            i=np.repeat(np.arange(b), d),
            j=np.tile(np.arange(d), b),
            x=np.repeat(rng.uniform(-3, 3, b), d),
            y=np.repeat(rng.uniform(-3, 3, b), d),
            archetype=np.repeat(rng.integers(1, 3, b), d),
            z=np.zeros(b * d),
            noise_var=np.full(b * d, 0.05),
        )
        k = kernel_matrix(pts0, true)
        sample = np.linalg.cholesky(k + 1e-10 * np.eye(b * d)) @ rng.standard_normal(
            b * d
        )
        pts = pts0.replace_z(sample + math.sqrt(0.05) * rng.standard_normal(b * d))
        init = CompositeKernelParams(ell1=1.0, ell2=1.0)
        fitted = fit_hyperparameters(pts, init, restarts=3, max_iter=400, seed=1)
        assert true.ell1 / 1.5 <= fitted.ell1 <= true.ell1 * 1.5
        assert true.ell2 / 1.5 <= fitted.ell2 <= true.ell2 * 1.5

    def test_no_uphill_neighbor_after_fit(self):
        rng = np.random.default_rng(44)
        pts = random_points(rng, 30)
        init = CompositeKernelParams()
        fitted = fit_hyperparameters(pts, init, seed=2)
        best = log_marginal_likelihood(pts, fitted)
        from dataclasses import replace

        for field in ("sigma2_global", "ell1", "ell2", "tau"):
            for fac in (0.95, 1.05):
                try:
                    cand = replace(fitted, **{field: getattr(fitted, field) * fac})
                except InvalidInputError:
                    continue
                assert log_marginal_likelihood(pts, cand) <= best + 1e-6


class TestSparseVariational:
    def test_collapse_to_exact(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            pts = random_points(rng, 100)
            p = CompositeKernelParams()
            exact = exact_posterior(pts, p)
            svgp = sparse_variational_posterior(pts, p, inducing=np.arange(len(pts)))
            assert np.max(np.abs(svgp.mean - exact.mean)) < 1e-6
            assert np.max(np.abs(svgp.var - exact.var)) < 1e-6

    def test_cross_block_equals_kernel_rows(self, monkeypatch):
        rng = np.random.default_rng(99)
        pts = random_points(rng, 80)
        p = CompositeKernelParams(
            sigma2_global=1.3, ell1=0.9, ell2=1.4, rho_a=0.3, alpha_local=0.4, tau=0.6
        )
        expected = kernel_matrix(pts, p)[_select_inducing(pts, 20, 4), :]
        blocks = []

        def spy(geom, params, out=None):
            blocks.append(_kernel(geom, params, out))
            return blocks[-1]

        monkeypatch.setattr(gp_field, "_kernel", spy)
        sparse_variational_posterior(pts, p, n_inducing=20, seed=4)
        kuf = [k for k in blocks if k.shape == (20, 80)]
        assert len(kuf) == 1
        assert np.array_equal(kuf[0], expected)

    def test_rank_one_constant_over_identical_points(self):
        # identical buildings share kernel rows, so a single inducing point
        # yields an identical posterior mean everywhere
        pts = FieldPoints(
            i=[0, 1, 2, 3],
            j=[0, 0, 0, 0],
            x=[0.0, 0.0, 0.0, 0.0],
            y=[0.0, 0.0, 0.0, 0.0],
            archetype=[1, 1, 1, 1],
            z=[1.0, 1.0, 1.0, 1.0],
            noise_var=[0.5, 0.5, 0.5, 0.5],
        )
        p = CompositeKernelParams()
        svgp = sparse_variational_posterior(pts, p, inducing=np.array([0]))
        # buildings 1..3 share an identical kernel row against the inducing
        # point (building 0 adds its own local self-term, so it differs)
        assert np.allclose(svgp.mean[1:], svgp.mean[1])

    def test_quarter_inducing_rmse(self):
        # 400-point synthetic with a smooth, low-rank-friendly field
        rng = np.random.default_rng(77)
        b, d = 200, 2
        x = rng.uniform(-3, 3, b)
        y = rng.uniform(-3, 3, b)
        arch = rng.integers(1, 3, b)
        pts0 = FieldPoints(
            i=np.repeat(np.arange(b), d),
            j=np.tile(np.arange(d), b),
            x=np.repeat(x, d),
            y=np.repeat(y, d),
            archetype=np.repeat(arch, d),
            z=np.zeros(b * d),
            noise_var=np.full(b * d, 0.5),
        )
        p = CompositeKernelParams(
            ell1=2.0, ell2=2.0, rho_a=0.7, alpha_local=0.05, tau=1.0
        )
        k = kernel_matrix(pts0, p)
        z = np.linalg.cholesky(k + 1e-10 * np.eye(b * d)) @ rng.standard_normal(b * d)
        pts = pts0.replace_z(z + math.sqrt(0.5) * rng.standard_normal(b * d))
        exact = exact_posterior(pts, p)
        svgp = sparse_variational_posterior(pts, p, n_inducing=(b * d) // 4, seed=3)
        rmse = math.sqrt(np.mean((svgp.mean - exact.mean) ** 2))
        assert rmse < 0.1

    def test_elbo_below_lml_and_improves_with_inducing(self):
        rng = np.random.default_rng(88)
        pts = random_points(rng, 60)
        p = CompositeKernelParams()
        lml = log_marginal_likelihood(pts, p)
        e_small = sparse_variational_posterior(pts, p, n_inducing=5, seed=0).log_evidence
        e_big = sparse_variational_posterior(
            pts, p, inducing=np.arange(len(pts))
        ).log_evidence
        assert e_small <= lml + 1e-8
        assert e_big <= lml + 1e-8
        assert e_big >= e_small - 1e-8
        assert e_big == pytest.approx(lml, abs=1e-4)


class TestPosteriorToProbability:
    def test_examples(self):
        post = GpPosterior(mean=np.array([0.0, 0.0, 3.0]), var=np.array([0.0, 1.0, 0.01]))
        m, zeta = pn_moments_vec(post.mean, post.var)
        assert m[0] == pytest.approx(0.5)
        assert zeta[0] == pytest.approx(0.0, abs=1e-12)
        assert m[1] == pytest.approx(0.5)
        assert zeta[1] == pytest.approx(1.0 / 12, abs=1e-9)
        # independent oracle for Phi(3/sqrt(1.01)) via erfc
        from scipy.special import erfc

        expected = 0.5 * erfc(-(3.0 / math.sqrt(1.01)) / math.sqrt(2.0))
        assert m[2] == pytest.approx(expected, abs=1e-12)
        assert m[2] == pytest.approx(0.9986, abs=5e-5)


class TestOrdinalityHelpers:
    def test_violation_count(self):
        pts = FieldPoints(
            i=[0, 0, 1, 1],
            j=[0, 1, 0, 1],
            x=[0, 0, 1, 1],
            y=[0, 0, 0, 0],
            archetype=[1, 1, 1, 1],
            z=[0, 0, 0, 0],
            noise_var=[1, 1, 1, 1],
        )
        assert ordinality_violation_count(pts, [0.9, 0.5, 0.2, 0.4]) == 1
        assert ordinality_violation_count(pts, [0.9, 0.5, 0.4, 0.2]) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_violation_count_matches_per_building_loop(self, seed):
        def loop_count(points, mean_p):
            count = 0
            for i in np.unique(points.i):
                mask = points.i == i
                m = np.asarray(mean_p)[mask][np.argsort(points.j[mask])]
                count += bool(np.any(np.diff(m) > 1e-12))
            return count

        rng = np.random.default_rng(seed)
        grid = grid_points(rng, 50, d=4)
        # buildings with a state missing, and points in no particular order
        keep = rng.random(len(grid)) < 0.7
        for pts in (grid, grid.subset(rng.permutation(len(grid))), grid.subset(keep)):
            for mean_p in (
                rng.random(len(pts)),
                np.round(rng.random(len(pts)), 1),  # ties are not rises
                np.sort(rng.random(len(pts)))[::-1],
            ):
                assert ordinality_violation_count(pts, mean_p) == loop_count(
                    pts, mean_p
                )


class TestCluster:
    def test_kmeans_separable(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.1, (40, 2))
        b = rng.normal(10, 0.1, (40, 2)) + np.array([10.0, 0.0])
        pts = np.vstack([a, b])
        labels, _ = kmeans(pts, 2, rng=0)
        assert len(set(labels[:40])) == 1
        assert len(set(labels[40:])) == 1
        assert labels[0] != labels[40]

    def test_balanced_sizes(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(0, 1, (83, 2))
        labels, _ = balanced_kmeans(pts, 8, rng=0)
        sizes = np.bincount(labels, minlength=8)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 83

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 1, (60, 2))
        l1, c1 = balanced_kmeans(pts, 5, rng=42)
        l2, c2 = balanced_kmeans(pts, 5, rng=42)
        assert np.array_equal(l1, l2)
        assert np.allclose(c1, c2)

    def test_k_bounds(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.zeros((3, 2)), 4, rng=0)


class TestValidation:
    def test_bad_noise(self):
        with pytest.raises(InvalidInputError):
            fp(pt(0, 0, 0, 0, noise=0.0))

    def test_bad_params(self):
        with pytest.raises(InvalidInputError):
            CompositeKernelParams(rho_a=1.0)
        with pytest.raises(InvalidInputError):
            CompositeKernelParams(alpha_local=0.0)
        with pytest.raises(InvalidInputError):
            CompositeKernelParams(ell1=-1.0)

    def test_nonfinite_z(self):
        with pytest.raises(InvalidInputError):
            fp(pt(0, 0, 0, 0, z=float("nan")))

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("j", [0.7, 2.9]),
            ("i", [0.0, 1.5]),
            ("archetype", [1.0, 2.5]),
            ("i", [-1, 0]),
            ("j", [0, -2]),
            ("j", ["0", "1"]),
        ],
    )
    def test_non_integer_or_negative_ids_rejected(self, name, bad):
        # np.asarray(dtype=int) would file j = 0.7 under state 0
        cols = dict(
            i=[0, 1], j=[0, 2], x=[0.0, 1.0], y=[0.0, 1.0], archetype=[1, 2],
            z=[0.0, 0.0], noise_var=[1.0, 1.0],
        )
        with pytest.raises(InvalidInputError, match=f"field point {name} "):
            FieldPoints(**{**cols, name: bad})

    def test_integral_float_ids_and_negative_archetype_accepted(self):
        pts = FieldPoints(
            i=[0.0, 1.0], j=[0.0, 2.0], x=[0.0, 1.0], y=[0.0, 1.0],
            archetype=[-1.0, 2], z=[0.0, 0.0], noise_var=[1.0, 1.0],
        )
        assert pts.j.tolist() == [0, 2] and pts.archetype.tolist() == [-1, 2]
