"""Online-learning experiment: synthetic scenario, observer, batched updates.

A synthetic building inventory is struck by a "true" tornado track; ground
truth damage comes from sampled lognormal capacities against the true wind.
A simulated observer emits soft categorical damage predictions of tunable
fidelity.  Priors are built for several assumed track widths (including a
no-information width of 0), the inventory is split 80/20, and the observed
portion is released in batches, either randomly or as spatial groups.

Each batch step performs local conjugate updates of the PN field; in
gp-enabled mode a heteroscedastic GP over all (building, state) cells is
fit at step 0 on the prior field, refit cold once real data arrives at
step 1, warm-started thereafter, and its posterior (not the local cells)
is what gets scored, so every step of a gp run is measured through the
same lens.  The conjugate state itself
never receives GP feedback, so evidence is counted exactly once.  A final
extra step assimilates the holdout.  Metrics are log-loss against the
observer's soft exceedances (primary) and against hard truth (diagnostic),
plus posterior-variance summaries per subset.

All randomness flows from named child streams of one seed, shared across
prior widths and modes so that runs differ only where they should.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .beta_bridge import WeightedObservation, local_update_cycle
from .cluster import balanced_kmeans
from .errors import InvalidInputError
from .evidence import (
    DEFAULT_W_MAX,
    EvaluationSample,
    exceedance_from_categorical,
    soft_confusion,
    soft_f1,
    weight_from_f1,
)
from .field_state import STATES, FieldState
from .gp_field import (
    CompositeKernelParams,
    FieldPoints,
    data_informed_init,
    exact_posterior,
    fit_hyperparameters,
    log_marginal_likelihood,
    ordinality_violation_count,
    posterior_to_probability,
)
from .hazard import Building, FragilityTable, TornadoTrack, build_prior_field, wind_speeds, distances_to_centerline
from .probit_normal import PnMarginal, pn_moments_vec

__all__ = [
    "ObserverModel",
    "ScenarioConfig",
    "MetricsRecord",
    "TrajectoryRecord",
    "ExperimentResult",
    "generate_inventory",
    "generate_truth",
    "simulate_observer",
    "make_batches",
    "log_loss",
    "run_online_experiment",
    "default_config",
]

_N_CLASSES = 4  # none, moderate, extensive, complete


@dataclass(frozen=True)
class ObserverModel:
    """Synthetic soft-prediction generator of tunable fidelity.

    ``class_error`` is the chance the reported class slips to an adjacent
    one; ``concentration`` sharpens the Dirichlet soft vector around the
    reported class (None = exact one-hot).  Defaults land the calibration
    F1 near 0.9 on the default scenario.
    """

    class_error: float = 0.1
    concentration: float | None = 40.0
    spread: float = 0.08
    calibration_size: int = 150
    w_max: float = DEFAULT_W_MAX

    def __post_init__(self):
        if not 0 <= self.class_error <= 1:
            raise InvalidInputError("class_error must be in [0, 1]")
        if self.concentration is not None and self.concentration <= 0:
            raise InvalidInputError("concentration must be positive or None")
        if not 0 <= self.spread < 1:
            raise InvalidInputError("spread must be in [0, 1)")
        if self.calibration_size < 1:
            raise InvalidInputError("calibration_size must be >= 1")


@dataclass(frozen=True)
class ScenarioConfig:
    n_buildings: int = 500
    region: tuple = ((0.0, 10_000.0), (-2_500.0, 2_500.0))
    true_track: TornadoTrack = TornadoTrack(
        centerline=((-500.0, -200.0), (5_000.0, 0.0), (10_500.0, 200.0)),
        width_total=1_600.0,
    )
    prior_widths: tuple = (0.0, 800.0, 3_200.0)
    strategies: tuple = ("random", "grouped")
    modes: tuple = ("local-only", "gp-enabled")
    n_batches: int = 8
    holdout_fraction: float = 0.2
    observer: ObserverModel = ObserverModel()
    seed: int = 20260823
    # GP fit budgets: a fuller cold fit at the first step, cheap warm refits
    gp_cold_restarts: int = 1
    gp_cold_max_iter: int = 100
    gp_warm_max_iter: int = 30
    gp_warm_xatol: float = 1e-3
    gp_warm_tol: float = 1e-4

    def __post_init__(self):
        for name, kind in (
            ("n_buildings", numbers.Integral),
            ("n_batches", numbers.Integral),
            ("seed", numbers.Integral),
            ("holdout_fraction", numbers.Real),
            ("gp_cold_restarts", numbers.Integral),
            ("gp_cold_max_iter", numbers.Integral),
            ("gp_warm_max_iter", numbers.Integral),
            ("gp_warm_xatol", numbers.Real),
            ("gp_warm_tol", numbers.Real),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is numbers.Integral else "a number"
                raise InvalidInputError(f"{name} must be {noun}, got {value!r}")
        if not 0 < self.holdout_fraction < 1:
            raise InvalidInputError("holdout_fraction must be in (0, 1)")
        if self.n_batches < 1:
            raise InvalidInputError("n_batches must be >= 1")
        if self.n_buildings < 2:
            raise InvalidInputError("n_buildings must be >= 2")
        bad = set(self.strategies) - {"random", "grouped"}
        if bad:
            raise InvalidInputError(f"unknown strategies {sorted(bad)}")
        bad = set(self.modes) - {"local-only", "gp-enabled"}
        if bad:
            raise InvalidInputError(f"unknown modes {sorted(bad)}")
        if self.n_batches > self.n_buildings - self.n_holdout:
            raise InvalidInputError("more batches than observed buildings")
        for width in self.prior_widths:
            # the runner builds one prior track per width exactly like this
            replace(self.true_track, width_total=float(width))

    @property
    def n_holdout(self) -> int:
        """Buildings held out of the batches and assimilated last (at least 1)."""
        return max(1, int(round(self.holdout_fraction * self.n_buildings)))


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    mode: str
    strategy: str
    prior_width_m: float
    subset: str  # observed | unobserved
    state: str
    log_loss_vs_observer: float
    log_loss_vs_truth: float
    var_p_median: float


@dataclass(frozen=True)
class TrajectoryRecord:
    mode: str
    strategy: str
    prior_width_m: float
    step: int
    sigma2_global: float
    ell1: float
    ell2: float
    rho_a: float
    alpha_local: float
    tau: float
    log_marginal_likelihood: float


@dataclass
class ExperimentResult:
    config: ScenarioConfig
    metrics: list
    trajectory: list
    final_fields: dict = field(default_factory=dict)
    ordinality_violations: list = field(default_factory=list)
    calibration_weights: np.ndarray | None = None
    calibration_f1: np.ndarray | None = None


def _streams(seed: int) -> dict:
    names = (
        "inventory",
        "truth",
        "observer",
        "calibration",
        "split",
        "batch",
        "gp",
    )
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


def generate_inventory(config: ScenarioConfig, rng) -> list:
    (x0, x1), (y0, y1) = config.region
    n = config.n_buildings
    xs = rng.uniform(x0, x1, n)
    ys = rng.uniform(y0, y1, n)
    archs = rng.integers(1, 20, n)
    return [
        Building(id=f"b{k:04d}", x=float(xs[k]), y=float(ys[k]), archetype=int(archs[k]))
        for k in range(n)
    ]


def generate_truth(inventory, track: TornadoTrack, rng, table=None) -> np.ndarray:
    """True damage class per building: 0 none .. 3 complete.

    Capacities are drawn per state from lognormal(median, beta); the
    assigned class is the highest state whose sampled capacity the true
    wind meets or exceeds.
    """
    table = table or FragilityTable.default()
    x = np.array([b.x for b in inventory])
    y = np.array([b.y for b in inventory])
    if track.width_total == 0.0:
        v = np.zeros(len(inventory))
    else:
        r = distances_to_centerline(x, y, track)
        v = wind_speeds(r, track)
    classes = np.zeros(len(inventory), dtype=int)
    for k, b in enumerate(inventory):
        med = table.medians[b.archetype]
        disp = table.dispersions[b.archetype]
        cls = 0
        for j in range(len(med)):
            cap = math.exp(math.log(med[j]) + disp[j] * rng.standard_normal())
            if v[k] >= cap:
                cls = j + 1
        classes[k] = cls
    return classes


def simulate_observer(true_classes: np.ndarray, observer: ObserverModel, rng) -> np.ndarray:
    """Soft predictions for every building (row-stochastic (n, 4) matrix)."""
    n = len(true_classes)
    reported = true_classes.copy()
    if observer.class_error > 0:
        slip = rng.random(n) < observer.class_error
        direction = np.where(rng.random(n) < 0.5, -1, 1)
        reported = np.clip(reported + slip * direction, 0, _N_CLASSES - 1)
    soft = np.zeros((n, _N_CLASSES))
    if observer.concentration is None:
        soft[np.arange(n), reported] = 1.0
        return soft
    base = np.full(_N_CLASSES, observer.spread / _N_CLASSES)
    for k in range(n):
        target = base.copy()
        target[reported[k]] += 1.0 - observer.spread
        soft[k] = rng.dirichlet(observer.concentration * target)
    return soft


def soft_exceedance(soft: np.ndarray) -> np.ndarray:
    """(n, 3) soft exceedance per damage state from (n, 4) class probs.

    The "none" column is dropped; exceedance of state j is the upper-tail
    mass over classes >= j.
    """
    return np.stack(
        [exceedance_from_categorical(row[1:]) for row in soft], axis=0
    )


def hard_exceedance(true_classes: np.ndarray) -> np.ndarray:
    """(n, 3) binary exceedance indicators from true classes."""
    states = np.arange(1, _N_CLASSES)
    return (true_classes[:, None] >= states[None, :]).astype(float)


def calibrate_observer(inventory, true_classes, observer: ObserverModel, rng):
    """Per-state (w, F1) from fresh observer redraws on a sampled subset.

    The calibration draws are independent of the update-stream predictions,
    mimicking a held-out labelling exercise used only to rate the source.
    """
    n = len(inventory)
    size = min(observer.calibration_size, n)
    idx = rng.choice(n, size=size, replace=False)
    soft_cal = simulate_observer(true_classes[idx], observer, rng)
    hard = hard_exceedance(true_classes[idx])
    samples = [
        EvaluationSample(
            o=tuple(hard[k]), g=tuple(exceedance_from_categorical(soft_cal[k, 1:]))
        )
        for k in range(size)
    ]
    f1 = np.array([soft_f1(*soft_confusion(samples, j)) for j in range(len(STATES))])
    weights = np.array([weight_from_f1(f, w_max=observer.w_max) for f in f1])
    return weights, f1


def make_batches(observed_ids, strategy: str, n_batches: int, seed, coords=None):
    """Partition observed ids into n_batches sets with sizes within 1.

    random: seeded shuffle, round-robin slicing.  grouped: balanced k-means
    on coordinates (coords required, aligned with observed_ids).
    """
    observed_ids = list(observed_ids)
    if not observed_ids:
        raise InvalidInputError("empty observed set")
    if n_batches > len(observed_ids):
        raise InvalidInputError("more batches than observed buildings")
    rng = np.random.default_rng(seed)
    if strategy == "random":
        order = rng.permutation(len(observed_ids))
        sizes = np.full(n_batches, len(observed_ids) // n_batches)
        sizes[: len(observed_ids) % n_batches] += 1
        batches, pos = [], 0
        for s in sizes:
            batches.append([observed_ids[k] for k in order[pos : pos + s]])
            pos += s
        return batches
    if strategy == "grouped":
        if coords is None:
            raise InvalidInputError("grouped strategy needs coordinates")
        coords = np.asarray(coords, dtype=float)
        labels, _ = balanced_kmeans(coords, n_batches, rng=rng)
        return [
            [observed_ids[k] for k in np.flatnonzero(labels == c)]
            for c in range(n_batches)
        ]
    raise InvalidInputError(f"unknown strategy {strategy!r}")


def log_loss(m, y) -> float:
    """Mean binary cross-entropy of predictions m against soft targets y."""
    m = np.clip(np.asarray(m, dtype=float), 1e-12, 1.0 - 1e-12)
    y = np.asarray(y, dtype=float)
    return float(np.mean(-(y * np.log(m) + (1.0 - y) * np.log(1.0 - m))))


def default_config(**overrides) -> ScenarioConfig:
    return replace(ScenarioConfig(), **overrides) if overrides else ScenarioConfig()


def _metrics_for(
    step, mode, strategy, width, m, var_p, y_obs, y_true, observed_mask
):
    """MetricsRecords for one (step, mode) over subsets and states."""
    out = []
    for subset, mask in (("observed", observed_mask), ("unobserved", ~observed_mask)):
        for j, state in enumerate(STATES):
            out.append(
                MetricsRecord(
                    step=step,
                    mode=mode,
                    strategy=strategy,
                    prior_width_m=width,
                    subset=subset,
                    state=state,
                    log_loss_vs_observer=log_loss(m[mask, j], y_obs[mask, j]),
                    log_loss_vs_truth=log_loss(m[mask, j], y_true[mask, j]),
                    var_p_median=float(np.median(var_p[mask, j])),
                )
            )
    return out


def _apply_batch(fs: FieldState, rows, y_obs, weights) -> FieldState:
    """Conjugate-update the PN cells of the given building rows in place."""
    for r in rows:
        for j in range(fs.n_states):
            prior = PnMarginal(mu=fs.mu[r, j], sigma2=fs.sigma2[r, j])
            obs = [WeightedObservation(y=float(y_obs[r, j]), weight=float(weights[j]))]
            post = local_update_cycle(prior, obs)
            fs.mu[r, j] = post.mu
            fs.sigma2[r, j] = post.sigma2
    return fs


def run_online_experiment(config: ScenarioConfig) -> ExperimentResult:
    """Full sweep over prior widths x strategies x modes; see module docstring."""
    streams = _streams(config.seed)
    inventory = generate_inventory(config, streams["inventory"])
    truth = generate_truth(inventory, config.true_track, streams["truth"])
    soft = simulate_observer(truth, config.observer, streams["observer"])
    y_obs = soft_exceedance(soft)
    y_true = hard_exceedance(truth)
    weights, cal_f1 = calibrate_observer(
        inventory, truth, config.observer, streams["calibration"]
    )

    n = len(inventory)
    n_holdout = config.n_holdout
    order = streams["split"].permutation(n)
    holdout_rows = np.sort(order[:n_holdout])
    observed_rows = np.sort(order[n_holdout:])
    observed_mask = np.zeros(n, dtype=bool)
    observed_mask[observed_rows] = True

    coords = np.array([[b.x, b.y] for b in inventory])
    batch_seed = streams["batch"].integers(2**63)
    batches_by_strategy = {
        strat: make_batches(
            list(observed_rows),
            strat,
            config.n_batches,
            batch_seed,
            coords=coords[observed_rows],
        )
        for strat in config.strategies
    }
    gp_seed = int(streams["gp"].integers(2**31))

    priors = {}
    for width in config.prior_widths:
        track = replace(config.true_track, width_total=float(width))
        priors[width] = build_prior_field(inventory, track)

    metrics, trajectory, violations, finals = [], [], [], {}
    for strategy in config.strategies:
        batches = batches_by_strategy[strategy]
        for width in config.prior_widths:
            for mode in config.modes:
                run_m, run_t, run_v, fs = _run_single(
                    config,
                    priors[width].copy(),
                    batches,
                    y_obs,
                    y_true,
                    weights,
                    observed_mask,
                    holdout_rows,
                    mode,
                    strategy,
                    float(width),
                    gp_seed,
                )
                metrics.extend(run_m)
                trajectory.extend(run_t)
                violations.extend(run_v)
                finals[(float(width), strategy, mode)] = fs
    return ExperimentResult(
        config=config,
        metrics=metrics,
        trajectory=trajectory,
        final_fields=finals,
        ordinality_violations=violations,
        calibration_weights=weights,
        calibration_f1=cal_f1,
    )


def _run_single(
    config,
    fs: FieldState,
    batches,
    y_obs,
    y_true,
    weights,
    observed_mask,
    holdout_rows,
    mode: str,
    strategy: str,
    width: float,
    gp_seed: int,
):
    """One (width, strategy, mode) trajectory; returns (metrics, traj, viol, fs)."""
    metrics, trajectory, violations = [], [], []
    gp_params = CompositeKernelParams()
    use_gp = mode == "gp-enabled"

    def evaluate(step):
        # gp mode keeps one evaluation layer for the whole trajectory: the GP
        # is fit on the prior field at step 0 and refit (warm) after every
        # batch, so successive metric rows are comparable like for like
        if use_gp:
            pts = FieldPoints.from_field_state(fs)
            nonlocal gp_params
            if step <= 1:
                # cold fits for the prior field and the first real batch: the
                # all-prior fit at step 0 lands in a degenerate basin (weak
                # pseudo-observations aggregate into one global latent) that a
                # warm start would never escape once data arrives
                gp_params = fit_hyperparameters(
                    pts,
                    data_informed_init(pts),
                    restarts=config.gp_cold_restarts,
                    max_iter=config.gp_cold_max_iter,
                    seed=gp_seed,
                )
            else:
                gp_params = fit_hyperparameters(
                    pts,
                    gp_params,
                    restarts=1,
                    max_iter=config.gp_warm_max_iter,
                    tol=config.gp_warm_tol,
                    xatol=config.gp_warm_xatol,
                    seed=gp_seed,
                )
            post = exact_posterior(pts, gp_params)
            m_flat, var_flat = posterior_to_probability(post)
            m = m_flat.reshape(fs.mu.shape)
            var_p = var_flat.reshape(fs.mu.shape)
            fs.gp_mean_p = m
            fs.gp_var_p = var_p
            lml = log_marginal_likelihood(pts, gp_params)
            trajectory.append(
                TrajectoryRecord(
                    mode=mode,
                    strategy=strategy,
                    prior_width_m=width,
                    step=step,
                    sigma2_global=gp_params.sigma2_global,
                    ell1=gp_params.ell1,
                    ell2=gp_params.ell2,
                    rho_a=gp_params.rho_a,
                    alpha_local=gp_params.alpha_local,
                    tau=gp_params.tau,
                    log_marginal_likelihood=lml,
                )
            )
            violations.append(
                {
                    "mode": mode,
                    "strategy": strategy,
                    "prior_width_m": width,
                    "step": step,
                    "count": ordinality_violation_count(pts, m_flat),
                }
            )
        else:
            m, var_p = pn_moments_vec(fs.mu, fs.sigma2)
        metrics.extend(
            _metrics_for(
                step, mode, strategy, width, m, var_p, y_obs, y_true, observed_mask
            )
        )

    evaluate(0)
    for step, batch in enumerate(batches, start=1):
        _apply_batch(fs, batch, y_obs, weights)
        evaluate(step)
    _apply_batch(fs, holdout_rows, y_obs, weights)
    evaluate(len(batches) + 1)
    return metrics, trajectory, violations, fs
