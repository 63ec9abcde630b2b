import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragfield.errors import InvalidInputError
from fragfield.field_state import Inventory
from fragfield.hazard import (
    FragilityTable,
    TornadoTrack,
    build_prior_field,
    distances_to_centerline,
    wind_speed,
    wind_speeds,
)
from fragfield.probit_normal import clip_ordinal_probit, pn_moments_vec


def track(width=800.0, centerline=((-10_000.0, 0.0), (10_000.0, 0.0))):
    return TornadoTrack(centerline=centerline, width_total=width)


def inventory(x, y, archetype):
    """An inventory of the columns x, y and archetype, scalars broadcast."""
    x, y, archetype = (np.array(c) for c in np.broadcast_arrays(x, y, archetype))
    ids = [f"b{i}" for i in range(len(x))]
    return Inventory(ids, x.astype(float), y.astype(float), archetype.astype(int))


class TestDistance:
    def test_perpendicular(self):
        assert distances_to_centerline([0.0], [1.0], track())[0] == pytest.approx(1.0)

    def test_on_line(self):
        assert distances_to_centerline([3.0], [0.0], track())[0] == 0.0

    def test_beyond_endpoint_brute_force(self):
        t = TornadoTrack(
            centerline=((0.0, 0.0), (100.0, 40.0), (250.0, -30.0)), width_total=800.0
        )
        p = (312.0, 55.0)
        # brute-force oracle: sample the polyline at 1 mm resolution
        best = math.inf
        for (ax, ay), (bx, by) in zip(t.centerline, t.centerline[1:]):
            seg_len = math.hypot(bx - ax, by - ay)
            n = int(seg_len / 0.001)
            ts = np.linspace(0.0, 1.0, n)
            d = np.hypot(p[0] - (ax + ts * (bx - ax)), p[1] - (ay + ts * (by - ay)))
            best = min(best, float(d.min()))
        assert distances_to_centerline([p[0]], [p[1]], t)[0] == pytest.approx(best, abs=1e-5)

    def test_single_point_centerline(self):
        with pytest.raises(InvalidInputError):
            t = TornadoTrack(centerline=((0.0, 0.0),), width_total=800.0)
            distances_to_centerline([1.0], [1.0], t)


class TestWindProfile:
    def test_radii_for_800(self):
        t = track(800.0)
        assert t.r_core == pytest.approx(109.2)
        assert t.r_edge == pytest.approx(349.2)
        assert wind_speed(100.0, t) == 115.0

    def test_edge_value_exact(self):
        for w in (400.0, 800.0, 1600.0, 3200.0):
            t = track(w)
            assert wind_speed(t.r_edge, t) == pytest.approx(38.0, abs=1e-9)

    def test_core_continuity(self):
        t = track(800.0)
        # |dV/dr| at r_core is v_core*k/r_core ~ 1.0 (m/s)/m, so the jump must
        # shrink linearly with the probe width
        eps = 1e-9
        slope = t.v_core * t.decay_exponent / t.r_core
        gap = abs(wind_speed(t.r_core - eps, t) - wind_speed(t.r_core + eps, t))
        assert gap <= 2 * eps * slope * 1.01
        assert wind_speed(t.r_core, t) == t.v_core

    def test_interior_power_law_value(self):
        t = track(800.0)
        k = math.log(115 / 38) / math.log(349.2 / 109.2)
        assert t.decay_exponent == pytest.approx(k)
        assert k == pytest.approx(0.9527, abs=2e-4)
        assert wind_speed(218.4, t) == pytest.approx(115.0 * (109.2 / 218.4) ** k)
        assert wind_speed(218.4, t) == pytest.approx(59.4, abs=0.05)

    def test_degenerate_width(self):
        t = track(0.0)
        assert wind_speed(123.0, t) == 0.0

    @given(st.floats(0, 5000), st.floats(0, 5000))
    @settings(max_examples=500)
    def test_monotone_nonincreasing(self, r1, r2):
        t = track(1600.0)
        lo, hi = sorted((r1, r2))
        assert wind_speed(lo, t) >= wind_speed(hi, t) - 1e-12


class TestFragilityTable:
    def test_default_table_shape(self):
        table = FragilityTable.default()
        assert table.archetypes == list(range(1, 20))
        for arch in table.archetypes:
            med = table.medians[arch]
            assert len(med) == 3
            assert all(a <= b for a, b in zip(med, med[1:]))
            assert all(b > 0 for b in table.dispersions[arch])

    def test_known_rows(self):
        table = FragilityTable.default()
        assert table.medians[1] == (35.2, 37.7, 49.4)
        assert table.dispersions[1] == (0.14, 0.13, 0.12)
        assert table.medians[12] == (44.0, 64.4, 77.9)
        assert table.dispersions[17] == (0.12, 0.11, 0.12)

    def test_rejects_decreasing_medians(self):
        with pytest.raises(InvalidInputError):
            FragilityTable(
                medians={1: (40.0, 30.0, 50.0)}, dispersions={1: (0.1, 0.1, 0.1)}
            )


class TestBuildPriorField:
    def test_core_building_clips_high(self):
        # archetype 1 at the axis: mu = (ln 115 - ln 35.2)/0.14 ~ 8.46 -> clip
        fs = build_prior_field(inventory(0.0, 0.0, [1]), track(800.0))
        raw = (math.log(115) - math.log(35.2)) / 0.14
        assert raw == pytest.approx(8.46, abs=0.01)
        assert fs.mu[0, 0] == 3.0

    def test_far_field_clips_low_with_separation(self):
        fs = build_prior_field(inventory(0.0, 200_000.0, [1]), track(800.0))
        assert fs.mu[0] == pytest.approx([-2.90, -2.95, -3.00])

    def test_zero_width_uniform_prior(self):
        fs = build_prior_field(inventory(0.0, 0.0, [1, 5, 12]), track(0.0))
        assert np.allclose(fs.mu, fs.mu[0][None, :])
        assert np.all(fs.mu <= -2.9)

    def test_missing_archetype(self):
        table = FragilityTable(
            medians={1: (35.2, 37.7, 49.4)}, dispersions={1: (0.14, 0.13, 0.12)}
        )
        with pytest.raises(InvalidInputError, match=r"\[5\]"):
            build_prior_field(inventory(0.0, 0.0, [1, 5]), track(800.0), table)

    def test_building_validation(self):
        # a building of an archetype outside 1..19 gets no prior
        with pytest.raises(InvalidInputError, match=r"archetype\(s\) \[23\] absent"):
            build_prior_field(inventory(0.0, 0.0, [1, 23]), track(800.0))

    def test_sigma2_from_epistemics(self):
        fs = build_prior_field(inventory(0.0, 0.0, [1]), track(800.0))
        expected = (0.09**2 + 0.40**2) / 0.14**2
        assert fs.sigma2[0, 0] == pytest.approx(expected)

    def test_latent_ordinality_all_archetypes_everywhere(self):
        for where in (0.0, 500.0, 5000.0, 200_000.0):
            fs = build_prior_field(inventory(0.0, where, np.arange(1, 20)), track(3200.0))
            assert np.all(np.diff(fs.mu, axis=1) <= 1e-12)

    def test_exceedance_ordinality_away_from_clip_bands(self):
        # m = Phi(mu/sqrt(1+sigma2)) is ordinal wherever no state was clipped
        for arch in range(1, 20):
            inv = inventory(0.0, np.linspace(0, 4000, 161), arch)
            fs = build_prior_field(inv, track(1600.0))
            m, _ = pn_moments_vec(fs.mu, fs.sigma2)
            interior = np.all(np.abs(fs.mu) < 3.0 - 1e-9, axis=1)
            assert np.all(np.diff(m[interior], axis=1) <= 1e-12)

    def test_exceedance_ordinality_equal_dispersion_archetype(self):
        # archetype 7 has a single dispersion across states, so latent
        # ordinality carries over to the exceedance means even at the bands
        fs = build_prior_field(inventory(0.0, np.linspace(0, 300_000, 301), 7), track(1600.0))
        m, _ = pn_moments_vec(fs.mu, fs.sigma2)
        assert np.all(np.diff(m, axis=1) <= 1e-12)

    def test_mu_within_bounds(self):
        gx, gy = np.meshgrid(np.linspace(-2000, 2000, 9), np.linspace(0, 3000, 9), indexing="ij")
        inv = inventory(gx.ravel(), gy.ravel(), np.arange(81) % 19 + 1)
        fs = build_prior_field(inv, track(800.0))
        assert np.all(fs.mu <= 3.0 + 1e-12)
        assert np.all(fs.mu >= -3.0 - 1e-12)

    def test_field_carries_the_inventory_columns(self):
        inv = inventory([5.0, -7.5], [1.0, 2.0], [3, 19])
        fs = build_prior_field(inv, track(800.0))
        assert fs.ids == inv.ids
        for name in ("x", "y", "archetype"):
            assert np.array_equal(getattr(fs, name), getattr(inv, name))

    def test_empty_inventory(self):
        with pytest.raises(InvalidInputError, match="empty inventory"):
            build_prior_field(inventory([], [], []), track(800.0))


# ---------------------------------------------------------------- per-cell reference
#
# The prior as it was built one cell at a time: scalar Python arithmetic on
# every (building, state) cell and the scalar ordinal cascade on every
# building.  The array pass must give the same field, bit for bit.


def _ref_clip_ordinal_probit(mus, bound, separation):
    mus = [float(x) for x in mus]
    n = len(mus)
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


def _ref_build_prior_field(inv, track, eps_hazard, eps_capacity, bound, separation):
    table = FragilityTable.default()
    n = len(inv.ids)
    if track.width_total == 0.0:
        v = np.full(n, 1.0)
    else:
        v = np.maximum(wind_speeds(distances_to_centerline(inv.x, inv.y, track), track), 1.0)
    mu = np.empty((n, 3))
    sigma2 = np.empty((n, 3))
    for i, arch in enumerate(inv.archetype.tolist()):
        lam_h = math.log(v[i])
        raw = []
        for j in range(3):
            disp = table.dispersions[arch][j]
            raw.append((lam_h - math.log(table.medians[arch][j])) / disp)
            sigma2[i, j] = (eps_hazard**2 + eps_capacity**2) / disp**2
        mu[i] = _ref_clip_ordinal_probit(raw, bound, separation)
    return mu, sigma2


_SETTINGS = [
    # eps_hazard, eps_capacity, clip_bound, separation
    (0.09, 0.40, 3.0, 0.05),
    (0.0, 0.0, 3.0, 0.05),
    (0.2, 0.7, 1.5, 0.3),
    (0.05, 0.25, 4.0, 0.0),
]


class TestArrayPassMatchesPerCellReference:
    @staticmethod
    def _inventory():
        # every archetype on a line across the track, plus random sites
        # scattered over it and one far out
        rng = np.random.default_rng(11)
        line = np.linspace(-6000.0, 6000.0, 41)
        xs = rng.uniform(-8000.0, 8000.0, 400)
        ys = rng.uniform(-5000.0, 5000.0, 400)
        arch = rng.integers(1, 20, 400)
        return inventory(
            np.concatenate([np.zeros(19 * 41), xs, [0.0]]),
            np.concatenate([np.tile(line, 19), ys, [250_000.0]]),
            np.concatenate([np.repeat(np.arange(1, 20), 41), arch, [19]]),
        )

    @pytest.mark.parametrize("width", [0.0, 300.0, 800.0, 1600.0, 3200.0, 9000.0])
    @pytest.mark.parametrize("setting", _SETTINGS)
    def test_bit_identical(self, width, setting):
        eps_h, eps_c, bound, sep = setting
        inv = self._inventory()
        fs = build_prior_field(
            inv, track(width), eps_hazard=eps_h, eps_capacity=eps_c,
            clip_bound=bound, separation=sep,
        )
        mu, sigma2 = _ref_build_prior_field(inv, track(width), eps_h, eps_c, bound, sep)
        assert np.array_equal(fs.mu, mu)
        assert np.array_equal(fs.sigma2, sigma2)

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_cascade_row_by_row(self, d):
        # values on the bounds, just inside and outside them, and ties, so
        # that both cascades, parking and lifting all occur
        rng = np.random.default_rng(d)
        grid = np.array([-4.0, -3.0, -2.97, -2.9, -1.0, 0.0, 2.9, 2.97, 3.0, 4.0])
        mus = np.where(
            rng.random((5000, d)) < 0.5,
            rng.choice(grid, (5000, d)),
            rng.uniform(-5.0, 5.0, (5000, d)),
        )
        for bound, sep in ((3.0, 0.05), (3.0, 0.0), (1.0, 0.5)):
            if d * sep > 2 * bound:
                continue
            out = clip_ordinal_probit(mus, bound=bound, separation=sep)
            ref = [_ref_clip_ordinal_probit(row, bound, sep) for row in mus.tolist()]
            assert out.tolist() == ref
