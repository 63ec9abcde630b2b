import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from fragfield.errors import (
    DomainError,
    InfeasibleMomentsError,
    InfeasibleSeparationError,
    InvalidInputError,
)
from fragfield.probit_normal import (
    _PHI_BLOCK,
    _QUAD_BLOCK,
    SIGMA2_CAP,
    PnMarginal,
    PnMoments,
    _ndtr,
    _ndtr_one,
    _ndtri,
    _ndtri_one,
    _phi2_correction_gl,
    _phi2_correction_u,
    clip_ordinal_probit,
    latent_from_physics,
    pn_from_moments,
    pn_from_moments_vec,
    pn_moments,
    pn_moments_vec,
)


class TestStdNormal:
    """At sigma2 = 0 the moment map is m = Phi(mu) and its inverse mu = Phi^-1(m)."""

    def test_cdf_at_zero(self):
        assert pn_moments_vec(np.array([0.0]), np.array([0.0]))[0][0] == 0.5

    def test_cdf_reference_value(self):
        # classic two-sided 95% point
        m, _ = pn_moments_vec(np.array([1.959964]), np.array([0.0]))
        assert m[0] == pytest.approx(0.975, abs=1e-6)

    def test_quantile_at_half(self):
        assert pn_from_moments_vec(np.array([0.5]), np.array([0.0]))[0][0] == 0.0

    def test_round_trip(self):
        # Phi(x) stored as a double near 1 carries at best ~eps/2 absolute
        # error, which the quantile amplifies by 1/phi(x); allow that floor
        # on top of the nominal 1e-9 tolerance.
        xs = np.linspace(-6.0, 6.0, 61)
        zero = np.zeros_like(xs)
        back, sigma2 = pn_from_moments_vec(pn_moments_vec(xs, zero)[0], zero)
        assert np.all(sigma2 == 0.0)
        phi = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
        tol = 1e-9 + 0.5 * np.finfo(float).eps / phi
        assert np.all(np.abs(back - xs) < tol)
        inner = np.abs(xs) <= 5.0
        assert np.max(np.abs(back[inner] - xs[inner])) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, p):
        with pytest.raises(InvalidInputError, match="strictly inside"):
            pn_from_moments(PnMoments(p, 0.0))


def _ulps_around(x, k=32):
    """``x`` and the k doubles on each side of it."""
    return (np.array([float(x)]).view(np.int64) + np.arange(-k, k + 1)).view(float)


def _ndtr_inputs():
    rng = np.random.default_rng(19)
    edges = [
        # |a| = 1, where ndtr leaves erf for erfc; erfc's own switches at
        # |x| = 1 and 8 (x = a / sqrt 2); its MAXLOG underflow near a = -37.7
        *(_ulps_around(s * c) for s in (1.0, -1.0) for c in (1.0, math.sqrt(2.0), 8 * math.sqrt(2.0))),
        _ulps_around(-math.sqrt(2.0 * 7.09782712893383996843e2)),
        _ulps_around(math.sqrt(2.0 * 7.09782712893383996843e2)),
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308],
    ]
    return np.concatenate(
        [rng.normal(0.0, 3.0, 500_000), rng.uniform(-40.0, 40.0, 500_000),
         rng.normal(0.0, 1e-3, 20_000), *map(np.asarray, edges)]
    )


def _ndtri_inputs():
    rng = np.random.default_rng(91)
    # p where x = sqrt(-2 log p) crosses 8 (p = exp(-32), 1.27e-14), in steps
    # of a few ulps of p: one ulp of x spans about 64 of them
    x8 = math.exp(-32.0) * (1.0 + np.linspace(-1e-12, 1e-12, 4001))
    xs = [math.sqrt(-2.0 * math.log(p)) for p in x8]
    assert min(xs) < 8.0 <= max(xs)
    edges = [
        # p = exp(-2) and 1 - exp(-2), where the tails begin
        _ulps_around(math.exp(-2.0)), _ulps_around(1.0 - math.exp(-2.0)),
        x8, 1.0 - x8,
        # subnormal p, the smallest normal, and p at 0 and 1
        _ulps_around(5e-324), _ulps_around(2.2250738585072014e-308), _ulps_around(1.0),
        [0.0, -0.0, 1.0, 0.5, math.nan, -math.nan, math.inf, -math.inf, -1e-300, 2.0],
    ]
    return np.concatenate(
        [rng.uniform(0.0, 1.0, 400_000), 10.0 ** rng.uniform(-324.0, 0.0, 300_000),
         1.0 - 10.0 ** rng.uniform(-17.0, 0.0, 300_000), rng.uniform(-1.0, 2.0, 20_000),
         *map(np.asarray, edges)]
    )


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize(
    "ours, one, theirs, inputs",
    [(_ndtr, _ndtr_one, ndtr, _ndtr_inputs), (_ndtri, _ndtri_one, ndtri, _ndtri_inputs)],
    ids=["ndtr", "ndtri"],
)
class TestPhiMatchesScipy:
    """The private Phi and Phi^-1 return scipy.special's bits (NaNs included),
    through the scalar body and on arrays (Phi's array body, block by block),
    in every shape."""

    def test_bit_equal_on_arrays_and_one_by_one(self, ours, one, theirs, inputs):
        x = inputs()
        assert x.size > 1_000_000
        want = _bits(theirs(x))
        assert np.array_equal(_bits(ours(x)), want)
        assert np.array_equal(_bits([one(t) for t in x.tolist()]), want)

    def test_shapes(self, ours, one, theirs, inputs):
        x = inputs()[::100]
        assert x.size > 2 * _PHI_BLOCK
        for v in x[:50].tolist():  # 0-d: a float64 scalar, as from the ufunc
            got = ours(np.asarray(v))
            assert type(got) is np.float64 and _bits(got) == _bits(theirs(v))
        for shape in [(0,), (1,), (7, 3), (_PHI_BLOCK,), (x.size,), (x.size // 3, 3), (0, 3)]:
            a = x[: math.prod(shape)].reshape(shape)
            got = ours(a)
            assert got.shape == shape
            assert np.array_equal(_bits(got), _bits(theirs(a)))


def bivariate_equal_cdf(h: float, rho: float) -> float:
    """Phi2(h, h, rho): P(X <= h, Y <= h) for standard bivariate normal (corr rho).

    The adaptive-quadrature reference for the Gauss-Legendre path, on the
    same 1-D reduction; endpoints rho = +-1 are taken as limits (comonotone /
    antithetic cases).
    """
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


def _mc_phi2(h, rho, z1, z2):
    """Monte-Carlo oracle for Phi2(h, h, rho) from shared N(0,1) draws."""
    y = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
    hit = (z1 <= h) & (y <= h)
    p = hit.mean()
    se = math.sqrt(max(p * (1 - p), 1e-12) / len(z1))
    return p, se


class TestBivariateEqualCdf:
    def test_independence(self):
        assert bivariate_equal_cdf(0.0, 0.0) == 0.25

    def test_closed_form_arcsin(self):
        # Phi2(0,0,rho) = 1/4 + arcsin(rho)/(2*pi)
        assert bivariate_equal_cdf(0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert bivariate_equal_cdf(0.0, -0.5) == pytest.approx(
            0.25 - math.asin(0.5) / (2 * math.pi), abs=1e-10
        )

    def test_limits(self):
        assert bivariate_equal_cdf(0.7, 1.0) == pytest.approx(ndtr(0.7))
        assert bivariate_equal_cdf(0.7, -1.0) == pytest.approx(
            2 * ndtr(0.7) - 1
        )
        assert bivariate_equal_cdf(-0.7, -1.0) == 0.0

    def test_monotone_in_rho(self):
        rhos = np.linspace(-0.99, 0.99, 41)
        vals = [bivariate_equal_cdf(0.8, r) for r in rhos]
        assert np.all(np.diff(vals) > 0)

    def test_bounds(self):
        for h in (-2.0, -0.3, 0.0, 1.2, 3.0):
            for r in (-0.9, -0.2, 0.0, 0.4, 0.97):
                val = bivariate_equal_cdf(h, r)
                assert 0.0 <= val <= ndtr(h) + 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bivariate_equal_cdf(0.0, 1.5)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(42)
        z1 = rng.standard_normal(10_000_000)
        z2 = rng.standard_normal(10_000_000)
        for h, rho in [(1.0, 0.25), (1.0, 0.75)]:
            est, _ = _mc_phi2(h, rho, z1, z2)
            assert bivariate_equal_cdf(h, rho) == pytest.approx(est, abs=5e-4)
        # broader sweep: stay within 3 sigma of the MC error
        for _ in range(20):
            h = rng.uniform(-2.5, 2.5)
            rho = rng.uniform(-0.95, 0.95)
            est, se = _mc_phi2(h, rho, z1, z2)
            assert abs(bivariate_equal_cdf(h, rho) - est) < 3 * se + 1e-6

    def test_gauss_legendre_matches_adaptive(self):
        for h in np.linspace(-3, 3, 13):
            for rho in np.linspace(-0.98, 0.98, 9):
                gl = ndtr(h) ** 2 + _phi2_correction_gl(h, rho)
                assert gl == pytest.approx(bivariate_equal_cdf(h, rho), abs=1e-12)


class TestPnMoments:
    def test_degenerate(self):
        mo = pn_moments(PnMarginal(0.0, 0.0))
        assert mo.m == 0.5 and mo.zeta == 0.0

    def test_unit_variance_is_uniform(self):
        mo = pn_moments(PnMarginal(0.0, 1.0))
        assert mo.m == pytest.approx(0.5, abs=1e-14)
        assert mo.zeta == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_large_variance_limit(self):
        mo = pn_moments(PnMarginal(0.0, 1e8))
        assert mo.m == 0.5
        assert mo.zeta == pytest.approx(0.25, abs=1e-3)

    @given(
        mu=st.floats(-8, 8),
        sigma2=st.floats(0, 50),
    )
    @settings(max_examples=200)
    def test_feasibility_envelope(self, mu, sigma2):
        mo = pn_moments(PnMarginal(mu, sigma2))
        assert 0.0 < mo.m < 1.0
        assert 0.0 <= mo.zeta <= mo.m * (1.0 - mo.m)
        if sigma2 > 0:
            assert mo.zeta < mo.m * (1.0 - mo.m)

    @given(
        mu=st.floats(-5, 4.9),
        delta=st.floats(0.1, 3),
        sigma2=st.floats(0, 10),
    )
    @settings(max_examples=100)
    def test_mean_monotone_in_mu(self, mu, delta, sigma2):
        lo = pn_moments(PnMarginal(mu, sigma2))
        hi = pn_moments(PnMarginal(mu + delta, sigma2))
        assert hi.m > lo.m

    def test_vec_row_equals_scalar_exactly(self):
        # a cell's moments do not depend on the batch it is computed in
        rng = np.random.default_rng(5)
        mu = rng.uniform(-6, 6, 500)
        s2 = np.exp(rng.uniform(math.log(1e-4), math.log(100), 500))
        s2[::50] = 0.0
        m, zeta = pn_moments_vec(mu, s2)
        for k in range(len(mu)):
            mo = pn_moments(PnMarginal(mu[k], s2[k]))
            assert (mo.m, mo.zeta) == (m[k], zeta[k])

    def test_zeta_vanishes_with_sigma(self):
        zetas = [pn_moments(PnMarginal(0.7, s2)).zeta for s2 in (1.0, 0.1, 0.01, 1e-4)]
        assert all(a > b for a, b in zip(zetas, zetas[1:]))
        assert zetas[-1] < 1e-4


class TestPnFromMoments:
    def test_uniform_case(self):
        p = pn_from_moments(PnMoments(0.5, 1.0 / 12.0))
        assert p.mu == pytest.approx(0.0, abs=1e-9)
        assert p.sigma2 == pytest.approx(1.0, abs=1e-6)

    def test_zero_variance(self):
        p = pn_from_moments(PnMoments(0.5, 0.0))
        assert p == PnMarginal(0.0, 0.0)

    def test_infeasible(self):
        with pytest.raises(InfeasibleMomentsError):
            pn_from_moments(PnMoments(0.5, 0.25))
        with pytest.raises(InfeasibleMomentsError):
            pn_from_moments(PnMoments(0.5, 0.3))
        with pytest.raises(InvalidInputError):
            pn_from_moments(PnMoments(0.0, 0.01))

    def test_round_trip_grid(self):
        for mu in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for s2 in (0.1, 0.5, 1.0, 2.0):
                mo = pn_moments(PnMarginal(mu, s2))
                back = pn_from_moments(mo)
                assert back.mu == pytest.approx(mu, abs=1e-6)
                assert back.sigma2 == pytest.approx(s2, abs=1e-6)

    def test_moment_reproduction(self):
        mo = PnMoments(0.23, 0.04)
        p = pn_from_moments(mo)
        out = pn_moments(p)
        assert out.m == pytest.approx(mo.m, abs=1e-8)
        assert out.zeta == pytest.approx(mo.zeta, abs=1e-8)

    def test_near_bernoulli_cap(self):
        p = pn_from_moments(PnMoments(0.5, 0.25 - 1e-12))
        assert p.sigma2 == pytest.approx(1e6)

    def test_vectorized_matches_scalar(self):
        m = np.array([0.1, 0.4, 0.9])
        zeta = np.array([0.02, 0.1, 0.05])
        mus, s2s = pn_from_moments_vec(m, zeta)
        for i in range(3):
            p = pn_from_moments(PnMoments(m[i], zeta[i]))
            assert mus[i] == pytest.approx(p.mu, abs=1e-10)
            assert s2s[i] == pytest.approx(p.sigma2, abs=1e-8)


def _rounding_floor(mu, s2):
    """First-order (mu, sigma2) error that an exact inverse makes when it is
    fed (m, zeta) as doubles: one ulp of m (in the upper tail 1 - m keeps only
    a few significant bits) and a few ulps of zeta, mapped back through the
    inverse of the forward map's Jacobian (central differences)."""
    m, zeta = pn_moments_vec(mu, s2)
    hm, hs = 1e-5, 1e-5 * s2
    jac = np.empty((2, 2))
    for col, (d_mu, d_s2) in enumerate(((hm, 0.0), (0.0, hs))):
        up = pn_moments_vec(mu + d_mu, s2 + d_s2)
        down = pn_moments_vec(mu - d_mu, s2 - d_s2)
        jac[:, col] = (np.array(up) - np.array(down)) / (2 * (d_mu + d_s2))
    err_in = np.array([np.spacing(m), 4 * np.finfo(float).eps * zeta])
    return np.abs(np.linalg.inv(jac)) @ err_in


def _assert_round_trip(mu, s2):
    back = pn_from_moments(pn_moments(PnMarginal(mu, s2)))
    floor_mu, floor_s2 = _rounding_floor(mu, s2)
    assert abs(back.mu - mu) <= 1e-9 + floor_mu
    assert abs(back.sigma2 - s2) <= 1e-9 * s2 + floor_s2


class TestPnFromMomentsTails:
    @pytest.mark.parametrize("mu", [5.0, -5.0])
    def test_symmetric_tail_round_trip(self, mu):
        back = pn_from_moments(pn_moments(PnMarginal(mu, 0.01)))
        assert abs(back.sigma2 - 0.01) <= 1e-9 * 0.01
        assert abs(back.mu - mu) <= 1e-9

    def test_tail_round_trip_grid(self):
        # relative sigma2 error 1e-9 and mu error 1e-9 on top of what the
        # rounding of m alone costs; that floor matters only for mu > 5,
        # where 1 - m < 3e-7 carries fewer than 30 significant bits
        for mu in np.linspace(-6.0, 6.0, 25):
            for s2 in np.geomspace(1e-3, 50.0, 12):
                _assert_round_trip(float(mu), float(s2))
        floor_mu, floor_s2 = _rounding_floor(-6.0, 1e-3)
        assert floor_mu < 1e-12 and floor_s2 < 1e-12 * 1e-3

    @given(mu=st.floats(-6, 6), log_s2=st.floats(math.log(1e-3), math.log(50)))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, mu, log_s2):
        _assert_round_trip(mu, math.exp(log_s2))

    @given(
        m=st.floats(1e-9, 1 - 1e-9),
        frac=st.floats(1e-9, 1 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_moment_reproduction_property(self, m, frac):
        zeta = frac * m * (1.0 - m)
        p = pn_from_moments(PnMoments(m, zeta))
        out = pn_moments(p)
        assert out.m == pytest.approx(m, rel=1e-12, abs=1e-15)
        if p.sigma2 == pytest.approx(SIGMA2_CAP, rel=1e-9):
            # the cap gives up some variance of a nearly Bernoulli cell
            assert out.zeta < zeta
        else:
            assert out.zeta == pytest.approx(zeta, rel=1e-9)

    def test_zero_zeta_gives_zero_variance(self):
        m = np.array([0.02, 0.5, 0.97])
        mu, s2 = pn_from_moments_vec(m, np.zeros(3))
        assert np.array_equal(s2, np.zeros(3))
        assert np.array_equal(mu, ndtri(m))

    @pytest.mark.parametrize("m", [1e-6, 0.1, 0.5, 0.9, 1 - 1e-6])
    def test_zeta_just_below_bound_hits_cap(self, m):
        zeta = np.nextafter(m * (1.0 - m), 0.0)
        p = pn_from_moments(PnMoments(m, zeta))
        assert p.sigma2 == pytest.approx(SIGMA2_CAP, rel=1e-9)
        assert p.mu == pytest.approx(ndtri(m) * math.sqrt(1 + SIGMA2_CAP), rel=1e-9)

    @pytest.mark.parametrize("m", [1e-12, 0.5e-12, 1 - 1e-12, 1 - 0.5e-12])
    @pytest.mark.parametrize("frac", [1e-6, 0.3, 0.99])
    def test_m_at_the_edges(self, m, frac):
        zeta = frac * m * (1.0 - m)
        p = pn_from_moments(PnMoments(m, zeta))
        assert math.isfinite(p.mu) and 0.0 < p.sigma2 < SIGMA2_CAP
        out = pn_moments(p)
        assert out.m == pytest.approx(m, rel=1e-12, abs=1e-15)
        assert out.zeta == pytest.approx(zeta, rel=1e-9)

    def test_vec_row_equals_scalar_exactly(self):
        # a cell's result does not depend on which cells share the call
        rng = np.random.default_rng(9)
        mu0 = rng.uniform(-6, 6, 400)
        s20 = np.exp(rng.uniform(math.log(1e-3), math.log(50), 400))
        m, zeta = pn_moments_vec(mu0, s20)
        zeta[::40] = 0.0
        mus, s2s = pn_from_moments_vec(m, zeta)
        for k in range(len(m)):
            p = pn_from_moments(PnMoments(m[k], zeta[k]))
            assert (p.mu, p.sigma2) == (mus[k], s2s[k])


# ---------------------------------------------------------------- blocked passes
#
# More than _QUAD_BLOCK rows are evaluated _QUAD_BLOCK at a time;
# every row must come out with the bits of a call on that row alone.

_B = _QUAD_BLOCK
_BLOCK_SIZES = [_B - 1, _B, _B + 1, 2 * _B + 3]


def _elementwise(f, *arrays):
    """``f`` called on each element of the broadcast ``arrays``, in C order."""
    flat = [a.ravel() for a in np.broadcast_arrays(*arrays)]
    return [f(*(a[k] for a in flat)) for k in range(flat[0].size)]


def _tail_m(rng, shape):
    """Means in three equal shares: log-uniform down to 1e-300, 1 - m
    log-uniform down to 1e-16, and uniform on [0.01, 0.99]."""
    low = 10.0 ** rng.uniform(-300.0, math.log10(0.5), shape)
    high = 1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.5), shape)
    return np.choose(rng.integers(0, 3, shape), [low, high, rng.uniform(0.01, 0.99, shape)])


def _shapes(n):
    """(first, second) argument shapes: plain, broadcast against 0-d and
    against a row of states, and (n, 1) against (n, 3)."""
    return [((n,), (n,)), ((n,), ()), ((), (n,)), ((n, 3), (3,)), ((n, 1), (n, 3))]


@pytest.mark.parametrize("n", _BLOCK_SIZES)
class TestBlockedPasses:
    def test_correction_rows_equal_one_row_calls(self, n):
        rng = np.random.default_rng(n)
        for shape_a, shape_b in _shapes(n):
            h2 = rng.uniform(0.0, 40.0, shape_a)
            ub = rng.uniform(0.0, 0.5 * np.pi, shape_b)
            got = _phi2_correction_u(h2, ub)
            assert got.shape == np.broadcast_shapes(shape_a, shape_b)
            ref = _elementwise(_phi2_correction_u, h2, ub)
            assert np.array_equal(got.ravel(), ref), (shape_a, shape_b)

    @pytest.mark.filterwarnings("error")
    def test_moments_equal_scalar_calls(self, n):
        rng = np.random.default_rng(n + 1)
        for shape_a, shape_b in _shapes(n):
            # half the draws in the tails: mu to +-40, sigma2 from 1e-8 to the cap
            tail_a, tail_b = rng.random(shape_a) < 0.5, rng.random(shape_b) < 0.5
            mu = np.where(tail_a, rng.uniform(-40.0, 40.0, shape_a), rng.uniform(-6.0, 6.0, shape_a))
            s2 = np.exp(np.where(
                tail_b,
                rng.uniform(math.log(1e-8), math.log(SIGMA2_CAP), shape_b),
                rng.uniform(math.log(1e-4), math.log(1e4), shape_b),
            ))
            m, zeta = pn_moments_vec(mu, s2)
            assert m.shape == zeta.shape == np.broadcast_shapes(shape_a, shape_b)
            ref = _elementwise(lambda a, b: pn_moments(PnMarginal(a, b)), mu, s2)
            where = (shape_a, shape_b)
            assert np.array_equal(m.ravel(), [mo.m for mo in ref]), where
            assert np.array_equal(zeta.ravel(), [mo.zeta for mo in ref]), where

    @pytest.mark.filterwarnings("error")
    def test_inverse_equals_scalar_calls(self, n):
        rng = np.random.default_rng(n + 2)
        for shape_a, shape_b in _shapes(n):
            if np.broadcast_shapes(shape_a, shape_b) == shape_b:
                # each zeta meets one m: tail means, and zeta a share of
                # m(1-m) that is log-uniform down to 1e-300 for half the draws
                m = _tail_m(rng, shape_a)
                share = np.where(
                    rng.random(shape_b) < 0.5,
                    10.0 ** rng.uniform(-300.0, math.log10(0.99), shape_b),
                    rng.uniform(0.0, 0.99, shape_b),
                )
                zeta = share * (m * (1.0 - m))
            else:
                # zeta below the smallest m(1-m) of the draws keeps every pair feasible
                m = rng.uniform(0.01, 0.99, shape_a)
                zeta = rng.uniform(0.0, 0.0099, shape_b)
            edges = m.shape == zeta.shape == (n,)
            if edges:
                # zeta = 0 returns sigma2 = 0 without iterating, and the
                # near-Bernoulli cells end on the SIGMA2_CAP clip
                m[:3] = [0.3, 0.5, 0.9]
                zeta[:3] = [0.0, 0.25 - 1e-12, 0.09 * (1.0 - 1e-11)]
            mu, s2 = pn_from_moments_vec(m, zeta)
            assert mu.shape == s2.shape == np.broadcast_shapes(shape_a, shape_b)
            if edges:
                assert s2[0] == 0.0
                assert s2[1] == s2[2] == pytest.approx(SIGMA2_CAP, rel=1e-9)
            ref = _elementwise(lambda a, b: pn_from_moments(PnMoments(a, b)), m, zeta)
            where = (shape_a, shape_b)
            assert np.array_equal(mu.ravel(), [p.mu for p in ref]), where
            assert np.array_equal(s2.ravel(), [p.sigma2 for p in ref]), where


@pytest.mark.parametrize(
    "n", [_B // 3, _B // 3 + 1, _B + 1, _PHI_BLOCK // 3 + 1, _PHI_BLOCK + 1]
)
def test_moments_of_a_row_subset_equal_the_whole_field(n):
    # the experiment runner recomputes only the rows a step updated, so a
    # row's moments must not depend on the rows passed with it
    rng = np.random.default_rng(n + 3)
    tail = rng.random((n, 3)) < 0.5
    mu = np.where(tail, rng.uniform(-40.0, 40.0, (n, 3)), rng.uniform(-6.0, 6.0, (n, 3)))
    s2 = np.exp(np.where(
        rng.random((n, 3)) < 0.5,
        rng.uniform(math.log(1e-8), math.log(SIGMA2_CAP), (n, 3)),
        rng.uniform(math.log(1e-4), math.log(1e4), (n, 3)),
    ))
    m, zeta = pn_moments_vec(mu, s2)
    for size in (1, int(rng.integers(2, n)), n):
        rows = rng.choice(n, size, replace=False)
        sub_m, sub_zeta = pn_moments_vec(mu[rows], s2[rows])
        assert np.array_equal(sub_m, m[rows]), size
        assert np.array_equal(sub_zeta, zeta[rows]), size


def test_moments_of_a_large_field_hold_bounded_memory():
    # 60,000 cells: a whole-field quadrature held several (cells x 64)
    # float temporaries at once, 96 MB traced
    rng = np.random.default_rng(60)
    mu = rng.uniform(-4.0, 4.0, (20_000, 3))
    s2 = rng.uniform(0.0, 5.0, (20_000, 3))
    tracemalloc.start()
    try:
        pn_moments_vec(mu, s2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


class TestLatentFromPhysics:
    def test_equal_medians(self):
        mu, sigma2 = latent_from_physics(math.log(50), 0.0, math.log(50), 0.0, 0.4)
        assert (mu, sigma2) == (0.0, 0.0)

    def test_epistemic_variance(self):
        _, sigma2 = latent_from_physics(math.log(50), 0.09, math.log(50), 0.40, 0.4)
        assert sigma2 == pytest.approx(1.050625, abs=1e-12)

    def test_mean_scaling(self):
        mu, _ = latent_from_physics(math.log(100), 0.0, math.log(50), 0.0, 0.5)
        assert mu == pytest.approx(math.log(2) / 0.5, abs=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidInputError, match="latent mean"):
            latent_from_physics(math.nan, 0.1, 1.0, 0.1, 0.4)
        with pytest.raises(InvalidInputError, match="beta_aleatory"):
            latent_from_physics(0.0, 0.1, 1.0, 0.1, 0.0)
        with pytest.raises(InvalidInputError, match=">= 0"):
            latent_from_physics(0.0, [0.1, -0.1], 1.0, 0.1, 0.4)

    def test_broadcasts_over_cells(self):
        # one hazard per building against a per-state capacity row
        lam_h = np.log([[40.0], [80.0]])
        lam_c = np.log([[35.0, 50.0, 65.0], [40.0, 60.0, 80.0]])
        disp = np.array([[0.1, 0.2, 0.3], [0.2, 0.2, 0.25]])
        mu, sigma2 = latent_from_physics(lam_h, 0.09, lam_c, 0.4, disp)
        assert mu.shape == sigma2.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                one = latent_from_physics(lam_h[i, 0], 0.09, lam_c[i, j], 0.4, disp[i, j])
                assert (mu[i, j], sigma2[i, j]) == one

    @pytest.mark.parametrize(
        "beta_h, beta_c, beta_aleatory",
        [(1e308, 0.1, 0.4), (0.1, 1e200, 0.4), (1e154, 1e154, 0.4), (0.1, 0.1, 1e-200)],
        ids=["square_overflows", "other_square", "sum_overflows", "denominator_underflows"],
    )
    def test_non_finite_variance_rejected(self, beta_h, beta_c, beta_aleatory):
        with pytest.raises(InvalidInputError, match="latent variance"):
            latent_from_physics(0.0, beta_h, 0.0, beta_c, beta_aleatory)

    def test_variance_above_cap_rejected_at_its_cell(self):
        # sqrt(SIGMA2_CAP) = 1000 gives the cap exactly, which an update can write
        beta_h = np.array([[0.1, 1000.0], [0.1, 1000.001]])
        _, sigma2 = latent_from_physics(0.0, beta_h[0], 0.0, 0.0, 1.0)
        assert sigma2[1] == SIGMA2_CAP
        with pytest.raises(InvalidInputError, match="latent variance") as info:
            latent_from_physics(0.0, beta_h, 0.0, 0.0, 1.0)
        assert info.value.cell == (1, 1)


class TestClipOrdinalProbit:
    def test_upper_cascade(self):
        out = clip_ordinal_probit([5.0, 4.0, 3.5]).tolist()
        assert out == pytest.approx([3.0, 2.95, 2.90])

    def test_untouched(self):
        assert clip_ordinal_probit([1.0, 0.5, -0.2]).tolist() == [1.0, 0.5, -0.2]

    def test_lower_cascade(self):
        assert clip_ordinal_probit([-4.0, -4.0, -4.0]).tolist() == pytest.approx(
            [-2.90, -2.95, -3.00]
        )

    def test_mixed_bounds(self):
        out = clip_ordinal_probit([5.0, 0.0, -5.0]).tolist()
        assert out == pytest.approx([3.0, 0.0, -3.0])

    def test_upper_chain_presses_unclipped_value(self):
        # the third value never hits the bound but sits inside the descending
        # clip chain, so it is pressed down with the same separation
        out = clip_ordinal_probit([5.0, 4.0, 2.97]).tolist()
        assert out == pytest.approx([3.0, 2.95, 2.90])

    def test_lower_chain_pushes_unclipped_value(self):
        out = clip_ordinal_probit([-2.97, -4.0, -4.1]).tolist()
        assert out == pytest.approx([-2.90, -2.95, -3.00])

    def test_interior_inversion_clamps_without_separation(self):
        # inversions that owe nothing to clipping resolve to a tie
        out = clip_ordinal_probit([-1.0, -1.88, -1.84]).tolist()
        assert out == pytest.approx([-1.0, -1.88, -1.88])

    def test_rows_are_independent(self):
        # a batch gives each row what that row gives on its own
        rows = [[5.0, 4.0, 2.97], [-2.97, -4.0, -4.1], [-1.0, -1.88, -1.84]]
        batch = clip_ordinal_probit(np.array(rows))
        assert batch.shape == (3, 3)
        assert batch.tolist() == [clip_ordinal_probit(r).tolist() for r in rows]

    def test_infeasible_separation(self):
        with pytest.raises(InfeasibleSeparationError):
            clip_ordinal_probit([1.0, 0.5, 0.0], bound=0.05, separation=0.05)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_ordinality_and_bounds(self, mus):
        out = clip_ordinal_probit(mus).tolist()
        assert all(a >= b - 1e-12 for a, b in zip(out, out[1:]))
        assert all(-3.0 - 1e-12 <= x <= 3.0 + 1e-12 for x in out)
        # a moved interior value is always explained by a neighbour: pressed
        # onto the chain below its predecessor or lifted above its successor
        for j, (raw, clipped) in enumerate(zip(mus, out)):
            if -3.0 < raw < 3.0 and clipped != raw:
                explained = (
                    j > 0 and clipped in (out[j - 1], pytest.approx(out[j - 1] - 0.05))
                ) or (j < len(out) - 1 and clipped == pytest.approx(out[j + 1] + 0.05))
                assert explained

    @given(
        st.lists(st.floats(-2.99, 2.99), min_size=1, max_size=6).map(
            lambda xs: sorted(xs, reverse=True)
        )
    )
    @settings(max_examples=200)
    def test_in_band_ordered_input_passes_through(self, mus):
        assert clip_ordinal_probit(mus).tolist() == mus
