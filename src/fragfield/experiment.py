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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .beta_bridge import WeightedObservation, update_cells
from .cluster import balanced_kmeans
from .errors import InvalidInputError, check_number
from .evidence import (
    DEFAULT_W_MAX,
    EvaluationSample,
    calibrate_weights,
    exceedance_from_categorical,
)
from .field_state import STATES, FieldState
from .gp_field import (
    CompositeKernelParams,
    FieldPoints,
    data_informed_init,
    exact_posterior,
    fit_hyperparameters,
    ordinality_violation_count,
)
from .hazard import Building, FragilityTable, TornadoTrack, build_prior_field, wind_speeds, distances_to_centerline
from .probit_normal import pn_moments_vec

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
        check_number("class_error", self.class_error, "a number in [0, 1]", lambda v: 0 <= v <= 1)
        if self.concentration is not None:
            check_number(
                "concentration", self.concentration, "a finite number > 0 or None", lambda v: v > 0
            )
        check_number("spread", self.spread, "a number in [0, 1)", lambda v: 0 <= v < 1)
        check_number("w_max", self.w_max, "a finite number > 0", lambda v: v > 0)
        size = self.calibration_size
        check_number("calibration_size", size, "an integer >= 1", lambda v: v >= 1, integer=True)


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
        for name, lo in (
            ("n_buildings", 2),
            ("n_batches", 1),
            ("seed", 0),
            ("gp_cold_restarts", 1),
            ("gp_cold_max_iter", 1),
            ("gp_warm_max_iter", 1),
        ):
            what = f"an integer >= {lo}"
            check_number(name, getattr(self, name), what, lambda v: v >= lo, integer=True)
        check_number(
            "holdout_fraction", self.holdout_fraction, "a number in (0, 1)", lambda v: 0 < v < 1
        )
        for name in ("gp_warm_xatol", "gp_warm_tol"):
            check_number(name, getattr(self, name), "a finite number >= 0", lambda v: v >= 0)
        try:
            region = tuple(tuple(pair) for pair in self.region)
        except TypeError:
            region = ()
        if len(region) != 2 or any(len(pair) != 2 for pair in region):
            raise InvalidInputError(f"region must be [[x0, x1], [y0, y1]], got {self.region!r}")
        for axis, pair in zip("xy", region):
            for bound in pair:
                check_number(f"region {axis} bound", bound)
        object.__setattr__(self, "region", region)
        for name in ("prior_widths", "strategies", "modes"):
            axis = getattr(self, name)
            if not isinstance(axis, (list, tuple)):
                raise InvalidInputError(f"{name} must be a list, got {axis!r}")
            object.__setattr__(self, name, tuple(axis))
        # the runner builds one prior track per width with this width_total
        for k, width in enumerate(self.prior_widths):
            check_number(f"prior_widths[{k}]", width, "a finite number >= 0", lambda v: v >= 0)
        # known values first: an entry that is a list or an object cannot be hashed
        for name, known in (
            ("strategies", ("random", "grouped")),
            ("modes", ("local-only", "gp-enabled")),
        ):
            bad = [value for value in getattr(self, name) if value not in known]
            if bad:
                raise InvalidInputError(f"unknown {name} {bad}")
        for name in ("prior_widths", "strategies", "modes"):
            axis = getattr(self, name)
            if not axis or len(set(axis)) != len(axis):
                raise InvalidInputError(
                    f"{name} must be a non-empty list with no repeats, got {list(axis)!r}"
                )
        if self.n_batches > self.n_buildings - self.n_holdout:
            raise InvalidInputError("more batches than observed buildings")

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


def generate_truth(inventory, track: TornadoTrack, rng) -> np.ndarray:
    """True damage class per building: 0 none .. 3 complete.

    Capacities are drawn per state from the default fragility table's
    lognormal(median, beta); the assigned class is the highest state whose
    sampled capacity the true wind meets or exceeds.
    """
    table = FragilityTable.default()
    x = np.array([b.x for b in inventory])
    y = np.array([b.y for b in inventory])
    v = wind_speeds(distances_to_centerline(x, y, track), track)
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
    return exceedance_from_categorical(soft[:, 1:])


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
    g = exceedance_from_categorical(soft_cal[:, 1:])
    samples = [EvaluationSample(o=tuple(hard[k]), g=tuple(g[k])) for k in range(size)]
    return calibrate_weights(samples, observer.w_max)


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
        track = replace(config.true_track, width_total=width)
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
            m_flat, var_flat = pn_moments_vec(post.mean, post.var)
            m = m_flat.reshape(fs.mu.shape)
            var_p = var_flat.reshape(fs.mu.shape)
            trajectory.append(
                TrajectoryRecord(
                    mode=mode,
                    strategy=strategy,
                    prior_width_m=width,
                    step=step,
                    **asdict(gp_params),
                    log_marginal_likelihood=post.log_evidence,
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
    # each batch, then the holdout, gives every state of its rows one observation
    for step, rows in enumerate([*batches, holdout_rows], start=1):
        update_cells(
            fs.mu,
            fs.sigma2,
            (
                ((r, j), [WeightedObservation(y=float(y_obs[r, j]), weight=float(w))])
                for r in rows
                for j, w in enumerate(weights)
            ),
        )
        evaluate(step)
    return metrics, trajectory, violations, fs
