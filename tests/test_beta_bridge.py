import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import betaln, log_ndtr, ndtri

from fragfield.beta_bridge import (
    BetaSurrogate,
    WeightedObservation,
    beta_from_pn_moments,
    beta_moments,
    conjugate_update,
    kl_pn_beta,
    local_update_cycle,
    update_cells,
)
from fragfield.errors import DegenerateSurrogateError, InfeasibleMomentsError
from fragfield.probit_normal import PnMarginal, PnMoments, pn_moments


def obs(y, w):
    return WeightedObservation(y=y, weight=w)


class TestBetaFromPnMoments:
    def test_uniform(self):
        b = beta_from_pn_moments(PnMoments(0.5, 1.0 / 12.0))
        assert b.alpha == pytest.approx(1.0, abs=1e-12)
        assert b.gamma == pytest.approx(1.0, abs=1e-12)

    def test_beta_2_1(self):
        b = beta_from_pn_moments(PnMoments(2.0 / 3.0, 1.0 / 18.0))
        assert b.alpha == pytest.approx(2.0, abs=1e-12)
        assert b.gamma == pytest.approx(1.0, abs=1e-12)

    def test_low_concentration(self):
        b = beta_from_pn_moments(PnMoments(0.5, 0.2))
        assert b.alpha == pytest.approx(0.125, abs=1e-14)
        assert b.gamma == pytest.approx(0.125, abs=1e-14)

    def test_degenerate(self):
        with pytest.raises(DegenerateSurrogateError):
            beta_from_pn_moments(PnMoments(0.5, 0.0))

    def test_infeasible(self):
        with pytest.raises(InfeasibleMomentsError):
            beta_from_pn_moments(PnMoments(0.5, 0.25))

    @given(
        m=st.floats(0.01, 0.99),
        frac=st.floats(1e-6, 1 - 1e-6),
    )
    @settings(max_examples=200)
    def test_moment_preservation_exact(self, m, frac):
        zeta = frac * m * (1 - m)
        b = beta_from_pn_moments(PnMoments(m, zeta))
        back = beta_moments(b)
        assert back.m == pytest.approx(m, abs=1e-12)
        assert back.zeta == pytest.approx(zeta, abs=1e-12)


class TestConjugateUpdate:
    def test_unit_hard_positive(self):
        out = conjugate_update(BetaSurrogate(1, 1), [obs(1.0, 1.0)])
        assert (out.alpha, out.gamma) == (2.0, 1.0)

    def test_soft(self):
        out = conjugate_update(BetaSurrogate(1, 1), [obs(0.75, 2.0)])
        assert (out.alpha, out.gamma) == (2.5, 1.5)

    def test_empty_identity(self):
        prior = BetaSurrogate(3, 2)
        assert conjugate_update(prior, []) == prior

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 5)),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_order_independence(self, pairs, rnd):
        batch = [obs(y, w) for y, w in pairs]
        shuffled = batch[:]
        rnd.shuffle(shuffled)
        a = conjugate_update(BetaSurrogate(1.3, 0.7), batch)
        b = conjugate_update(BetaSurrogate(1.3, 0.7), shuffled)
        assert a.alpha == pytest.approx(b.alpha, abs=1e-10)
        assert a.gamma == pytest.approx(b.gamma, abs=1e-10)

    def test_partition_equals_whole(self):
        batch = [obs(0.1, 1.5), obs(0.9, 2.0), obs(0.4, 0.3)]
        whole = conjugate_update(BetaSurrogate(2, 2), batch)
        split = conjugate_update(
            conjugate_update(BetaSurrogate(2, 2), batch[:1]), batch[1:]
        )
        assert whole.alpha == pytest.approx(split.alpha, abs=1e-10)
        assert whole.gamma == pytest.approx(split.gamma, abs=1e-10)


class TestBetaMoments:
    def test_uniform(self):
        mo = beta_moments(BetaSurrogate(1, 1))
        assert (mo.m, mo.zeta) == (0.5, pytest.approx(1 / 12))

    def test_beta_2_1(self):
        mo = beta_moments(BetaSurrogate(2, 1))
        assert mo.m == pytest.approx(2 / 3)
        assert mo.zeta == pytest.approx(1 / 18)

    def test_concentrated(self):
        mo = beta_moments(BetaSurrogate(100, 100))
        assert mo.m == 0.5
        assert mo.zeta == pytest.approx(0.25 / 201)


class TestGridBayesOracle:
    """Conjugate posterior moments must agree with brute-force grid Bayes."""

    def _grid_posterior_moments(self, a0, g0, batch, n=100_000):
        p = (np.arange(n) + 0.5) / n
        logpost = (a0 - 1) * np.log(p) + (g0 - 1) * np.log1p(-p)
        for o in batch:
            logpost += o.weight * (o.y * np.log(p) + (1 - o.y) * np.log1p(-p))
        logpost -= logpost.max()
        w = np.exp(logpost)
        w /= w.sum()
        mean = float((w * p).sum())
        var = float((w * (p - mean) ** 2).sum())
        return mean, var

    def test_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a0 = rng.uniform(0.4, 5.0)
            g0 = rng.uniform(0.4, 5.0)
            k = rng.integers(1, 4)
            batch = [
                obs(
                    rng.integers(1, 10) / 10.0,  # rational y
                    rng.integers(1, 9) / 2.0,  # rational weight
                )
                for _ in range(k)
            ]
            post = conjugate_update(BetaSurrogate(a0, g0), batch)
            mo = beta_moments(post)
            gm, gv = self._grid_posterior_moments(a0, g0, batch)
            assert mo.m == pytest.approx(gm, abs=1e-4)
            assert mo.zeta == pytest.approx(gv, abs=1e-4)


class TestLocalUpdateCycle:
    def test_worked_example(self):
        post = local_update_cycle(PnMarginal(0, 1), [obs(1.0, 1.0)])
        mo = pn_moments(post)
        assert mo.m == pytest.approx(2 / 3, abs=1e-8)
        assert mo.zeta == pytest.approx(1 / 18, abs=1e-8)

    def test_empty_batch_is_identity(self):
        prior = PnMarginal(0.3, 0.8)
        assert local_update_cycle(prior, []) is prior

    @pytest.mark.parametrize("prior", [PnMarginal(-3.0, 0.0), PnMarginal(0.3, 1.2)])
    def test_zero_weight_batch_is_identity(self, prior):
        # a round trip through the surrogate would move both: the degenerate
        # prior through ZETA_FLOOR, the other by round-off
        assert local_update_cycle(prior, [obs(1.0, 0.0)]) is prior
        assert local_update_cycle(prior, [obs(0.2, 0.0), obs(0.9, 0.0)]) is prior

    def test_sequential_equals_combined(self):
        prior = PnMarginal(-0.4, 1.3)
        one = local_update_cycle(prior, [obs(0.8, 1.5), obs(0.2, 0.5)])
        two = local_update_cycle(
            local_update_cycle(prior, [obs(0.8, 1.5)]), [obs(0.2, 0.5)]
        )
        mo1, mo2 = pn_moments(one), pn_moments(two)
        assert mo1.m == pytest.approx(mo2.m, abs=1e-10)
        assert mo1.zeta == pytest.approx(mo2.zeta, abs=1e-10)

    def test_zeta_floor_allows_degenerate_prior(self):
        post = local_update_cycle(PnMarginal(-3.0, 0.0), [obs(1.0, 5.0)])
        assert pn_moments(post).m > pn_moments(PnMarginal(-3.0, 0.0)).m

    def test_contraction_under_concordant_evidence(self):
        # updating with y equal to the prior mean rescales (alpha, gamma)
        # proportionally, which always shrinks the variance
        prior = PnMarginal(0.5, 2.0)
        mo = pn_moments(prior)
        post = local_update_cycle(prior, [obs(mo.m, 3.0)])
        assert pn_moments(post).zeta < mo.zeta

    def test_contraction_under_heavy_evidence(self):
        prior = PnMarginal(0.5, 2.0)
        post = local_update_cycle(prior, [obs(0.9, 50.0)])
        assert pn_moments(post).zeta < pn_moments(prior).zeta


class TestUpdateCells:
    def test_shuffled_cells_equal_cell_by_cell_cycles(self):
        # up to three observations per cell, the cells interleaved and the
        # rows shuffled: each cell still runs one cycle on its own rows, in
        # the order given
        rng = np.random.default_rng(31)
        mu = rng.normal(-1.0, 1.5, (40, 3))
        sigma2 = rng.uniform(0.0, 3.0, (40, 3))
        k = rng.integers(0, 4, mu.shape)
        i, j = (np.repeat(a.ravel(), k.ravel()) for a in np.indices(mu.shape))
        order = rng.permutation(len(i))
        i, j = i[order], j[order]
        y, w = rng.uniform(0, 1, len(i)), rng.uniform(0, 8, len(i))
        expected_mu, expected_sigma2 = mu.copy(), sigma2.copy()
        for cell in zip(*np.nonzero(k)):
            rows = np.flatnonzero((i == cell[0]) & (j == cell[1]))
            post = local_update_cycle(
                PnMarginal(mu[cell], sigma2[cell]), [obs(y[r], w[r]) for r in rows]
            )
            expected_mu[cell], expected_sigma2[cell] = post.mu, post.sigma2
        update_cells(mu, sigma2, i, j, y, w)
        assert np.array_equal(mu, expected_mu)
        assert np.array_equal(sigma2, expected_sigma2)

    def test_zero_weight_cells_are_untouched(self):
        # cell (0, 0) sees only zero weights and keeps its bits, a degenerate
        # prior included; a zero weight beside a weighted one changes nothing
        mu = np.array([[-3.0, 0.3], [0.3, -1.0]])
        sigma2 = np.array([[0.0, 1.2], [1.2, 0.5]])
        i, j = [0, 0, 1, 0, 1, 1], [0, 1, 0, 0, 0, 1]
        y, w = [1.0, 0.2, 0.2, 0.4, 0.7, 0.6], [0.0, 0.0, 0.0, 0.0, 2.5, 3.0]
        expected_mu, expected_sigma2 = mu.copy(), sigma2.copy()
        for cell, batch in [((1, 0), [obs(0.2, 0.0), obs(0.7, 2.5)]), ((1, 1), [obs(0.6, 3.0)])]:
            post = local_update_cycle(PnMarginal(mu[cell], sigma2[cell]), batch)
            expected_mu[cell], expected_sigma2[cell] = post.mu, post.sigma2
        update_cells(mu, sigma2, i, j, y, w)
        assert np.array_equal(mu, expected_mu)
        assert np.array_equal(sigma2, expected_sigma2)
        assert (mu[0, 0], sigma2[0, 0], mu[0, 1], sigma2[0, 1]) == (-3.0, 0.0, 0.3, 1.2)
        assert (mu[1, 0], sigma2[1, 0]) != (0.3, 1.2)


def _kl_on_unit_interval(p, b, direction):
    """The earlier quadrature: the x-space integral on (1e-12, 1 - 1e-12)."""
    mu, sigma = p.mu, math.sqrt(p.sigma2)

    def log_pn(x):
        z = float(ndtri(x))
        return -0.5 * ((z - mu) / sigma) ** 2 - math.log(sigma) + 0.5 * z * z

    def log_beta(x):
        return (
            (b.alpha - 1) * math.log(x)
            + (b.gamma - 1) * math.log1p(-x)
            - float(betaln(b.alpha, b.gamma))
        )

    def integrand(x):
        lp, lq = log_pn(x), log_beta(x)
        if direction == "pn_to_beta":
            return math.exp(lp) * (lp - lq)
        return math.exp(lq) * (lq - lp)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            integrand, 1e-12, 1 - 1e-12, points=[1e-3, 0.5, 1 - 1e-3], limit=400,
            epsabs=1e-11, epsrel=1e-9,
        )
    return val / math.log(2)


def _kl_trapezoid(p, b, direction):
    """Dense trapezoid on the probit axis z in [-60, 60], vectorized."""
    z = np.linspace(-60.0, 60.0, 1_200_001)
    s = math.sqrt(p.sigma2)
    lp = -0.5 * ((z - p.mu) / s) ** 2 - math.log(s) - 0.5 * math.log(2 * math.pi)
    lq = (
        (b.alpha - 1) * log_ndtr(z)
        + (b.gamma - 1) * log_ndtr(-z)
        - 0.5 * z * z
        - betaln(b.alpha, b.gamma)
        - 0.5 * math.log(2 * math.pi)
    )
    f = np.exp(lp) * (lp - lq) if direction == "pn_to_beta" else np.exp(lq) * (lq - lp)
    return float(np.trapezoid(f, z)) / math.log(2)


class TestKl:
    @pytest.mark.parametrize("direction", ["pn_to_beta", "beta_to_pn"])
    def test_mid_range_matches_unit_interval_quadrature(self, direction):
        # no mass lies beyond 1e-12 of the edges here, so both agree
        p = PnMarginal(0.0, 0.5)
        b = beta_from_pn_moments(pn_moments(p))
        old = _kl_on_unit_interval(p, b, direction)
        assert kl_pn_beta(p, b, direction) == pytest.approx(old, rel=1e-6, abs=1e-10)

    def test_edge_mass_is_counted(self):
        # a01's worst point: the Beta (gamma ~ 0.14) puts mass within 1e-12
        # of x = 1 that the unit-interval quadrature dropped (1.36 bits)
        p = PnMarginal(3.0, 0.5)
        b = beta_from_pn_moments(pn_moments(p))
        kl = kl_pn_beta(p, b, "beta_to_pn")
        assert _kl_on_unit_interval(p, b, "beta_to_pn") < 1.37
        assert kl > 1.36
        assert kl == pytest.approx(2.28, abs=0.01)
        assert kl == pytest.approx(_kl_trapezoid(p, b, "beta_to_pn"), rel=1e-7)

    def test_mirror_symmetry(self):
        # x -> 1 - x maps PN(mu) to PN(-mu) and Beta(a, g) to Beta(g, a)
        for mu, s2 in ((3.0, 0.5), (-1.2, 2.0)):
            p, q = PnMarginal(mu, s2), PnMarginal(-mu, s2)
            bp = beta_from_pn_moments(pn_moments(p))
            bq = BetaSurrogate(bp.gamma, bp.alpha)
            for direction in ("pn_to_beta", "beta_to_pn"):
                assert kl_pn_beta(p, bp, direction) == pytest.approx(
                    kl_pn_beta(q, bq, direction), rel=1e-9
                )

    def test_pn01_is_uniform(self):
        # PN(0,1) has density phi(ndtri(x))/phi(ndtri(x)) = 1: uniform
        x = np.linspace(1e-6, 1 - 1e-6, 101)
        z = ndtri(x)
        dens = np.exp(-0.5 * (z - 0) ** 2) / np.exp(-0.5 * z**2)
        assert np.allclose(dens, 1.0, atol=1e-12)
        kl = kl_pn_beta(PnMarginal(0, 1), BetaSurrogate(1, 1))
        assert kl < 1e-6

    def test_self_divergence_zero(self):
        p = PnMarginal(0.4, 0.9)
        mo = pn_moments(p)
        b = beta_from_pn_moments(mo)
        # Beta vs itself through the beta_to_pn direction of an exactly
        # matching pair is not zero, but beta vs beta must be
        as_beta = kl_pn_beta(p, b, direction="pn_to_beta")
        assert as_beta >= 0.0

    def test_nonnegative_both_directions(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            p = PnMarginal(rng.uniform(-2, 2), rng.uniform(0.3, 3.0))
            b = beta_from_pn_moments(pn_moments(p))
            assert kl_pn_beta(p, b, "pn_to_beta") >= 0.0
            assert kl_pn_beta(p, b, "beta_to_pn") >= 0.0

    def test_units(self):
        p = PnMarginal(1.2, 0.5)
        b = beta_from_pn_moments(pn_moments(p))
        bits = kl_pn_beta(p, b, unit="bits")
        nats = kl_pn_beta(p, b, unit="nats")
        assert bits == pytest.approx(nats / math.log(2), rel=1e-9)

    def test_monte_carlo_agreement(self):
        # independent check of the quadrature against sampling
        p = PnMarginal(-1.5, 0.6)
        b = beta_from_pn_moments(pn_moments(p))
        rng = np.random.default_rng(11)
        z = rng.normal(p.mu, math.sqrt(p.sigma2), size=2_000_000)
        from scipy.special import betaln as _betaln, ndtr

        x = np.clip(ndtr(z), 1e-15, 1 - 1e-15)
        zz = ndtri(x)
        lp = -0.5 * ((zz - p.mu) / math.sqrt(p.sigma2)) ** 2 - 0.5 * math.log(
            p.sigma2
        ) + 0.5 * zz**2
        lq = (
            (b.alpha - 1) * np.log(x)
            + (b.gamma - 1) * np.log1p(-x)
            - _betaln(b.alpha, b.gamma)
        )
        mc = float(np.mean(lp - lq)) / math.log(2)
        se = float(np.std(lp - lq)) / math.sqrt(len(x)) / math.log(2)
        assert kl_pn_beta(p, b) == pytest.approx(mc, abs=4 * se + 1e-6)
