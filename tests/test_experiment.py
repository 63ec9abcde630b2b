"""Tests for the online-learning experiment: truth, observer, batches, runner."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import fragfield.experiment as experiment
from fragfield.errors import InvalidInputError
from fragfield.evidence import DEFAULT_W_MAX, calibrate_weights
from fragfield.experiment import (
    MetricsRecord,
    ObserverModel,
    ScenarioConfig,
    calibrate_observer,
    default_config,
    generate_inventory,
    generate_truth,
    hard_exceedance,
    log_loss,
    make_batches,
    run_online_experiment,
    simulate_observer,
    soft_exceedance,
)
from fragfield.gp_field import EXACT_SOLVE_CAP
from fragfield.hazard import (
    Building,
    FragilityTable,
    TornadoTrack,
    distances_to_centerline,
    wind_speed,
    wind_speeds,
)

STRAIGHT_TRACK = TornadoTrack(centerline=((0.0, 0.0), (10_000.0, 0.0)), width_total=1_600.0)


def _repeat_building(n, x, y, archetype=1):
    return [Building(id=f"c{k}", x=x, y=y, archetype=archetype) for k in range(n)]


class TestGenerateTruth:
    def test_ef5_core_nearly_always_complete(self):
        # archetype-1 Complete median 49.4 m/s, beta 0.12: V=115 sits ~7 log-sd
        # above it, so essentially every sampled capacity is exceeded
        inv = _repeat_building(10_000, 5_000.0, 0.0)
        rng = np.random.default_rng(11)
        classes = generate_truth(inv, STRAIGHT_TRACK, rng)
        assert np.mean(classes == 3) > 0.99

    def test_far_outside_footprint_no_damage(self):
        inv = _repeat_building(200, 5_000.0, 200_000.0)
        rng = np.random.default_rng(12)
        classes = generate_truth(inv, STRAIGHT_TRACK, rng)
        assert np.all(classes == 0)

    def test_zero_width_track_no_damage(self):
        inv = _repeat_building(50, 5_000.0, 0.0)
        track = TornadoTrack(centerline=((0.0, 0.0), (10_000.0, 0.0)), width_total=0.0)
        classes = generate_truth(inv, track, np.random.default_rng(13))
        assert np.all(classes == 0)

    def test_median_capacity_wind_splits_complete_in_half(self):
        # place buildings exactly where the decayed wind equals the archetype-1
        # Complete median; the sampled-capacity comparison is then a fair coin
        r_at_median = brentq(
            lambda r: wind_speed(r, STRAIGHT_TRACK) - 49.4,
            STRAIGHT_TRACK.r_core,
            STRAIGHT_TRACK.r_edge,
            xtol=1e-10,
        )
        inv = _repeat_building(10_000, 5_000.0, r_at_median)
        classes = generate_truth(inv, STRAIGHT_TRACK, np.random.default_rng(14))
        frac = np.mean(classes == 3)
        # 4-sigma binomial band around 0.5 at n = 1e4
        assert abs(frac - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        inv = _repeat_building(100, 5_000.0, 400.0)
        a = generate_truth(inv, STRAIGHT_TRACK, np.random.default_rng(7))
        b = generate_truth(inv, STRAIGHT_TRACK, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_equals_per_cell_draw_loop_on_default_scenario(self):
        """One (n, 3) draw is the stream of one scalar draw per cell, so the
        classes and the generator's state after the call are those of the
        per-building loop it replaced."""
        cfg = default_config()
        inv = generate_inventory(cfg, experiment._streams(cfg.seed)["inventory"])
        table = FragilityTable.default()
        xy = np.array([[b.x, b.y] for b in inv])
        v = wind_speeds(distances_to_centerline(xy[:, 0], xy[:, 1], cfg.true_track), cfg.true_track)
        rng = experiment._streams(cfg.seed)["truth"]
        expected = np.zeros(len(inv), dtype=int)
        for k, b in enumerate(inv):
            med, disp = table.medians[b.archetype], table.dispersions[b.archetype]
            for j in range(len(med)):
                cap = math.exp(math.log(med[j]) + disp[j] * rng.standard_normal())
                if v[k] >= cap:
                    expected[k] = j + 1
        got_rng = experiment._streams(cfg.seed)["truth"]
        got = generate_truth(inv, cfg.true_track, got_rng)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert got_rng.random() == rng.random()


class TestObserver:
    def test_perfect_observer_one_hot_and_max_weight(self):
        observer = ObserverModel(class_error=0.0, concentration=None)
        truth = np.array([0, 1, 2, 3, 3, 2, 1, 0] * 40)
        inv = _repeat_building(len(truth), 0.0, 0.0)
        rng = np.random.default_rng(21)
        soft = simulate_observer(truth, observer, rng)
        assert np.array_equal(soft, np.eye(4)[truth])
        with pytest.warns(RuntimeWarning, match="infinite weight"):
            w, f1 = calibrate_observer(inv, truth, observer, np.random.default_rng(22))
        assert np.allclose(f1, 1.0)
        assert np.allclose(w, DEFAULT_W_MAX)

    def test_default_fidelity_band(self):
        # default observer targets F1 ~ 0.9; measured calibration F1 must land
        # inside [0.85, 0.95] for every damage state
        cfg = default_config()
        from fragfield.experiment import _streams

        streams = _streams(cfg.seed)
        inv = generate_inventory(cfg, streams["inventory"])
        truth = generate_truth(inv, cfg.true_track, streams["truth"])
        _, f1 = calibrate_observer(inv, truth, cfg.observer, streams["calibration"])
        assert np.all(f1 >= 0.85) and np.all(f1 <= 0.95)

    def test_uniform_observer_matches_prevalence_baseline(self):
        # a know-nothing observer reporting uniform class mass scores the
        # prevalence-determined soft F1: with constant g and prevalence p,
        # F1 = 2gp / (2gp + g(1-p) + (1-g)p)
        rng = np.random.default_rng(23)
        truth = rng.integers(0, 4, 500)
        hard = hard_exceedance(truth)
        g_const = (0.75, 0.5, 0.25)  # reverse-cumsum of uniform class mass
        _, f1 = calibrate_weights(hard, np.tile(g_const, (len(truth), 1)), DEFAULT_W_MAX)
        for j in range(3):
            p = hard[:, j].mean()
            g = g_const[j]
            expected = 2 * g * p / (2 * g * p + g * (1 - p) + (1 - g) * p)
            assert f1[j] == pytest.approx(expected, abs=1e-12)

    def test_soft_rows_are_distributions(self):
        observer = ObserverModel()
        truth = np.random.default_rng(24).integers(0, 4, 300)
        soft = simulate_observer(truth, observer, np.random.default_rng(25))
        assert soft.shape == (300, 4)
        assert np.all(soft >= 0)
        np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-9)

    def test_soft_exceedance_shape_and_monotone(self):
        truth = np.random.default_rng(26).integers(0, 4, 100)
        soft = simulate_observer(truth, ObserverModel(), np.random.default_rng(27))
        y = soft_exceedance(soft)
        assert y.shape == (100, 3)
        assert np.all(np.diff(y, axis=1) <= 1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidInputError):
            ObserverModel(class_error=1.5)
        with pytest.raises(InvalidInputError):
            ObserverModel(concentration=0.0)
        with pytest.raises(InvalidInputError):
            ObserverModel(spread=1.0)
        with pytest.raises(InvalidInputError):
            ObserverModel(calibration_size=0)


class TestMakeBatches:
    def test_random_80_over_8_gives_tens(self):
        ids = list(range(80))
        batches = make_batches(ids, "random", 8, 3)
        assert len(batches) == 8
        assert all(len(b) == 10 for b in batches)
        assert sorted(x for b in batches for x in b) == ids

    def test_grouped_recovers_separated_clusters(self):
        rng = np.random.default_rng(31)
        a = rng.normal((0, 0), 1.0, (40, 2))
        b = rng.normal((100, 100), 1.0, (40, 2))
        coords = np.vstack([a, b])
        ids = list(range(80))
        batches = make_batches(ids, "grouped", 2, 5, coords=coords)
        sets = [set(b) for b in batches]
        assert {frozenset(s) for s in sets} == {
            frozenset(range(40)),
            frozenset(range(40, 80)),
        }

    @given(
        n=st.integers(min_value=8, max_value=120),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, k, seed):
        ids = [f"id{j}" for j in range(n)]
        batches = make_batches(ids, "random", k, seed)
        flat = [x for b in batches for x in b]
        assert sorted(flat) == sorted(ids)
        sizes = [len(b) for b in batches]
        assert max(sizes) - min(sizes) <= 1

    def test_grouped_partition_and_balance(self):
        rng = np.random.default_rng(32)
        coords = rng.uniform(0, 100, (91, 2))
        ids = [f"g{j}" for j in range(91)]
        batches = make_batches(ids, "grouped", 7, 9, coords=coords)
        flat = sorted(x for b in batches for x in b)
        assert flat == sorted(ids)
        sizes = sorted(len(b) for b in batches)
        assert sizes == [13] * 7

    def test_empty_observed_rejected(self):
        with pytest.raises(InvalidInputError):
            make_batches([], "random", 2, 0)

    def test_more_batches_than_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            make_batches([1, 2], "random", 3, 0)

    def test_grouped_without_coords_rejected(self):
        with pytest.raises(InvalidInputError):
            make_batches([1, 2, 3], "grouped", 2, 0)

    def test_deterministic(self):
        ids = list(range(37))
        assert make_batches(ids, "random", 5, 77) == make_batches(ids, "random", 5, 77)


class TestLogLoss:
    def test_symmetric_half(self):
        assert log_loss([0.5], [0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct(self):
        assert log_loss([0.9], [1.0]) == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_endpoint_clamped_finite(self):
        assert math.isfinite(log_loss([0.0], [1.0]))
        assert math.isfinite(log_loss([1.0], [0.0]))
        assert log_loss([0.0], [1.0]) == pytest.approx(-math.log(1e-12))

    def test_proper_scoring_minimized_at_target(self):
        y = 0.37
        grid = np.linspace(0.01, 0.99, 197)
        losses = [log_loss([m], [y]) for m in grid]
        best = grid[int(np.argmin(losses))]
        assert abs(best - y) < 0.006  # grid resolution

    def test_averages_over_subset(self):
        v = log_loss([0.9, 0.5], [1.0, 0.5])
        assert v == pytest.approx((-math.log(0.9) + math.log(2.0)) / 2.0, abs=1e-12)


class TestConfigValidation:
    def test_bad_holdout_fraction(self):
        with pytest.raises(InvalidInputError):
            default_config(holdout_fraction=0.0)

    def test_bad_batches(self):
        with pytest.raises(InvalidInputError):
            default_config(n_batches=0)

    def test_bad_strategy(self):
        with pytest.raises(InvalidInputError):
            default_config(strategies=("spiral",))

    def test_bad_mode(self):
        with pytest.raises(InvalidInputError):
            default_config(modes=("offline",))

    def test_gp_mode_above_exact_cap(self):
        n = EXACT_SOLVE_CAP // 3 + 1
        with pytest.raises(InvalidInputError, match=f"at most {n - 1} buildings"):
            default_config(n_buildings=n)
        with pytest.raises(InvalidInputError, match=f"at most {n - 1} buildings"):
            default_config(n_buildings=n, modes=("gp-enabled",))
        default_config(n_buildings=n, modes=("local-only",))
        default_config(n_buildings=n - 1)


def _small_config(**over):
    base = dict(
        n_buildings=50,
        n_batches=3,
        prior_widths=(0.0, 1_600.0),
        strategies=("random",),
        modes=("local-only", "gp-enabled"),
        gp_cold_max_iter=15,
        gp_warm_max_iter=6,
        seed=424242,
    )
    base.update(over)
    return default_config(**base)


@pytest.fixture(scope="module")
def small_run():
    cfg = _small_config()
    return cfg, run_online_experiment(cfg)


class TestRunOnlineExperiment:
    def test_metrics_row_count(self, small_run):
        cfg, res = small_run
        expected = (
            len(cfg.strategies)
            * len(cfg.prior_widths)
            * len(cfg.modes)
            * (cfg.n_batches + 2)
            * 2  # subsets
            * 3  # states
        )
        assert len(res.metrics) == expected

    def test_local_only_holdout_flat_then_drop(self, small_run):
        cfg, res = small_run
        for width in cfg.prior_widths:
            for state in ("moderate", "extensive", "complete"):
                rows = sorted(
                    (
                        m
                        for m in res.metrics
                        if m.mode == "local-only"
                        and m.prior_width_m == width
                        and m.subset == "unobserved"
                        and m.state == state
                    ),
                    key=lambda m: m.step,
                )
                vals = [m.log_loss_vs_observer for m in rows]
                # untouched cells keep their prior until the holdout step
                assert vals[0] == pytest.approx(vals[cfg.n_batches], rel=1e-12)
                assert vals[-1] < vals[0]

    def test_gp_mode_moves_holdout_before_assimilation(self, small_run):
        cfg, res = small_run
        moved = 0
        for width in cfg.prior_widths:
            rows = sorted(
                (
                    m
                    for m in res.metrics
                    if m.mode == "gp-enabled"
                    and m.prior_width_m == width
                    and m.subset == "unobserved"
                    and m.state == "complete"
                ),
                key=lambda m: m.step,
            )
            vals = [m.log_loss_vs_observer for m in rows]
            if any(abs(v - vals[0]) > 1e-9 for v in vals[1 : cfg.n_batches + 1]):
                moved += 1
        assert moved == len(cfg.prior_widths)

    def test_observed_loss_drops_by_final(self, small_run):
        cfg, res = small_run
        for mode in cfg.modes:
            for width in cfg.prior_widths:
                rows = sorted(
                    (
                        m
                        for m in res.metrics
                        if m.mode == mode
                        and m.prior_width_m == width
                        and m.subset == "observed"
                        and m.state == "complete"
                    ),
                    key=lambda m: m.step,
                )
                assert rows[-1].log_loss_vs_observer < rows[0].log_loss_vs_observer

    def test_variance_contracts_on_observed(self, small_run):
        cfg, res = small_run
        for mode in cfg.modes:
            rows = {
                m.step: m.var_p_median
                for m in res.metrics
                if m.mode == mode
                and m.prior_width_m == 0.0
                and m.subset == "observed"
                and m.state == "complete"
            }
            assert rows[cfg.n_batches] < rows[0]

    def test_trajectory_only_for_gp_mode(self, small_run):
        cfg, res = small_run
        assert all(t.mode == "gp-enabled" for t in res.trajectory)
        # one record per evaluated step (incl. prior and holdout) per gp run
        expected = len(cfg.prior_widths) * len(cfg.strategies) * (cfg.n_batches + 2)
        assert len(res.trajectory) == expected
        assert all(math.isfinite(t.log_marginal_likelihood) for t in res.trajectory)

    def test_final_fields_keyed_by_run(self, small_run):
        cfg, res = small_run
        expected = {(float(w), s) for w in cfg.prior_widths for s in cfg.strategies}
        assert set(res.final_fields) == expected

    def test_final_fields_share_one_trajectory(self, small_run):
        """Every mode scores one field per (width, strategy), so the both-mode
        run ends on the bits of a local-only run of the same scenario."""
        cfg, res = small_run
        local = run_online_experiment(replace(cfg, modes=("local-only",)))
        assert set(local.final_fields) == set(res.final_fields)
        for key, fs in res.final_fields.items():
            for name in ("mu", "sigma2"):
                got, want = getattr(fs, name), getattr(local.final_fields[key], name)
                assert got.tobytes() == want.tobytes(), (key, name)

    def test_one_update_pass_per_strategy_and_width(self, monkeypatch):
        """Both modes score one conjugate field, so each batch updates it once."""
        real, calls = experiment.update_cells, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(experiment, "update_cells", counting)
        cfg = _small_config(
            n_buildings=30, strategies=("random", "grouped"), gp_cold_max_iter=4,
            gp_warm_max_iter=2,
        )
        run_online_experiment(cfg)
        assert len(calls) == len(cfg.strategies) * len(cfg.prior_widths) * (cfg.n_batches + 1)

    def test_step0_fit_shared_across_strategies(self, monkeypatch):
        """Step 0 fits the same prior field for every strategy, so each width
        fits it once, and each strategy reports what it would alone."""
        real, calls = experiment.fit_hyperparameters, []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "fit_hyperparameters", counting)
        cfg = _small_config(
            n_buildings=30, strategies=("random", "grouped"), modes=("gp-enabled",),
            gp_cold_max_iter=4, gp_warm_max_iter=2,
        )
        res = run_online_experiment(cfg)
        widths, strategies = len(cfg.prior_widths), len(cfg.strategies)
        assert len(calls) == widths * (1 + strategies * (cfg.n_batches + 1))
        alone = run_online_experiment(replace(cfg, strategies=("grouped",)))
        assert alone.trajectory == [t for t in res.trajectory if t.strategy == "grouped"]
        assert alone.metrics == [m for m in res.metrics if m.strategy == "grouped"]

    def test_modes_do_not_change_each_other(self, small_run):
        """Evidence is counted once: a mode's rows do not depend on the others."""
        cfg, res = small_run
        for mode in cfg.modes:
            alone = run_online_experiment(replace(cfg, modes=(mode,)))
            assert alone.metrics == [m for m in res.metrics if m.mode == mode]
            assert alone.trajectory == [t for t in res.trajectory if t.mode == mode]

    def test_deterministic_rerun(self, small_run):
        cfg, res = small_run
        res2 = run_online_experiment(cfg)
        assert res.metrics == res2.metrics
        assert res.trajectory == res2.trajectory

    def test_metrics_nonnegative(self, small_run):
        _, res = small_run
        for m in res.metrics:
            assert m.log_loss_vs_observer >= 0
            assert m.log_loss_vs_truth >= 0
            assert m.var_p_median >= 0
