"""Online-learning experiment: synthetic scenario, observer, batched updates.

A run has two parts.  First ``prepare`` draws the scenario into one frozen
``Scenario`` record.  A synthetic building inventory is struck by a "true"
tornado track; ground truth damage comes from sampled lognormal capacities
against the true wind.  A simulated observer emits soft categorical damage
predictions of tunable fidelity, rated on fresh calibration draws.  Priors
are built for several assumed track widths (including a no-information
width of 0), the inventory is split 80/20, and the observed portion is cut
into batches, either randomly or as spatial groups.

Then the trajectory loop runs over that record.  For each (strategy, prior
width) one copy of the prior steps through the batches, and each batch step
performs local conjugate updates of that PN field.  Every mode scores the
one field at every step: local-only through the cells' own moments;
gp-enabled through a heteroscedastic GP over all (building, state) cells,
fit at step 0 on the prior field, refit cold once real data arrives at step
1 and warm-started thereafter, whose posterior (not the local cells) is
what gets scored, so every step of a gp run is measured through the same
lens.  The conjugate state never receives GP feedback, so evidence is
counted exactly once and the modes differ only in how they read it.  A
final extra step assimilates the holdout.  Metrics are log-loss against the
observer's soft exceedances (primary) and against hard truth (diagnostic),
plus posterior-variance summaries per subset.

All randomness flows from named child streams of one seed, shared across
prior widths and modes so that runs differ only where they should.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .beta_bridge import update_cells
from .cluster import balanced_kmeans
from .errors import InvalidInputError, UndefinedScoreError, check_number
from .evidence import (
    DEFAULT_W_MAX,
    calibrate_weights,
    exceedance_from_categorical,
)
from .field_state import STATES, Inventory
from .gp_field import (
    FieldPoints,
    check_exact_size,
    data_informed_init,
    exact_posterior,
    fit_hyperparameters,
    ordinality_violation_count,
)
from .hazard import (
    FragilityTable, TornadoTrack, build_prior_field, distances_to_centerline, wind_speeds
)
from .probit_normal import pn_moments_vec

__all__ = [
    "ObserverModel",
    "ScenarioConfig",
    "MetricsRecord",
    "TrajectoryRecord",
    "Scenario",
    "ExperimentResult",
    "generate_inventory",
    "generate_truth",
    "simulate_observer",
    "make_batches",
    "log_loss",
    "prepare",
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
        if "gp-enabled" in self.modes:
            check_exact_size(self.n_buildings, len(STATES))


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


@dataclass(frozen=True)
class Scenario:
    """Everything ``prepare`` draws or derives before step 1."""

    y_obs: np.ndarray  # (n, 3) observer exceedances
    y_true: np.ndarray  # (n, 3) hard-truth exceedances
    weights: np.ndarray  # the observer's calibration, per state
    f1: np.ndarray
    observed_mask: np.ndarray
    holdout_rows: np.ndarray  # assimilated last (at least 1)
    batches: dict  # strategy -> batches of observed rows
    gp_seed: int
    priors: dict  # prior width -> field, which the loop copies


@dataclass
class ExperimentResult:
    config: ScenarioConfig
    scenario: Scenario
    metrics: list
    trajectory: list
    # (prior width, strategy) -> the last field of that trajectory, which
    # every mode scores
    final_fields: dict = field(default_factory=dict)
    ordinality_violations: list = field(default_factory=list)


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


def generate_inventory(config: ScenarioConfig, rng) -> Inventory:
    (x0, x1), (y0, y1) = config.region
    n = config.n_buildings
    x, y = rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)
    return Inventory([f"b{k:04d}" for k in range(n)], x, y, rng.integers(1, 20, n))


def generate_truth(inventory: Inventory, track: TornadoTrack, rng) -> np.ndarray:
    """True damage class per building: 0 none .. 3 complete.

    Capacities are drawn per state from the default fragility table's
    lognormal(median, beta); the assigned class is the highest state whose
    sampled capacity the true wind meets or exceeds.
    """
    table = FragilityTable.default()
    v = wind_speeds(distances_to_centerline(inventory.x, inventory.y, track), track)
    arch = inventory.archetype.tolist()
    n, d = len(arch), len(STATES)
    # one draw in building-major order is the stream of one draw per cell;
    # math.log and math.exp, because numpy's SIMD ones can differ in the last bit
    z = rng.standard_normal((n, d)).ravel().tolist()
    med = [m for a in arch for m in table.medians[a]]
    disp = [s for a in arch for s in table.dispersions[a]]
    cap = [math.exp(math.log(m) + s * e) for m, s, e in zip(med, disp, z)]
    met = v[:, None] >= np.reshape(cap, (n, d))
    return (met * np.arange(1, d + 1)).max(axis=1)  # the highest state met, or 0


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


def calibrate_observer(true_classes, observer: ObserverModel, rng):
    """Per-state (w, F1) from fresh observer redraws on a sampled subset.

    The calibration draws are independent of the update-stream predictions,
    mimicking a held-out labelling exercise used only to rate the source.
    """
    n = len(true_classes)
    size = min(observer.calibration_size, n)
    idx = rng.choice(n, size=size, replace=False)
    soft_cal = simulate_observer(true_classes[idx], observer, rng)
    hard = hard_exceedance(true_classes[idx])
    g = exceedance_from_categorical(soft_cal[:, 1:])
    try:
        return calibrate_weights(hard, g, observer.w_max)
    except UndefinedScoreError as exc:
        raise UndefinedScoreError(f"observer calibration: {exc}") from None


def make_batches(observed_ids, strategy: str, n_batches: int, seed, coords=None):
    """Partition observed ids into n_batches sets with sizes within 1.

    random: a seeded shuffle cut into consecutive slices, the larger ones
    first (``np.array_split``).  grouped: balanced k-means on coordinates
    (coords required, aligned with observed_ids).
    """
    observed_ids = list(observed_ids)
    if not observed_ids:
        raise InvalidInputError("empty observed set")
    if n_batches > len(observed_ids):
        raise InvalidInputError("more batches than observed buildings")
    rng = np.random.default_rng(seed)
    if strategy == "random":
        order = rng.permutation(len(observed_ids))
        return [
            [observed_ids[k] for k in part] for part in np.array_split(order, n_batches)
        ]
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


def _metrics_for(step, mode, strategy, width, m, var_p, scenario: Scenario):
    """MetricsRecords for one (step, mode) over subsets and states."""
    out = []
    y_obs, y_true, observed = scenario.y_obs, scenario.y_true, scenario.observed_mask
    for subset, mask in (("observed", observed), ("unobserved", ~observed)):
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


def prepare(config: ScenarioConfig) -> Scenario:
    """A run's scenario, drawn from the seed's named child streams.

    ``experiment --dry-run`` runs this and stops, so it rejects what the
    run's set-up rejects.
    """
    streams = _streams(config.seed)
    inventory = generate_inventory(config, streams["inventory"])
    truth = generate_truth(inventory, config.true_track, streams["truth"])
    soft = simulate_observer(truth, config.observer, streams["observer"])
    weights, f1 = calibrate_observer(truth, config.observer, streams["calibration"])

    n = len(inventory.ids)
    n_holdout = max(1, int(round(config.holdout_fraction * n)))
    order = streams["split"].permutation(n)
    observed_rows = np.sort(order[n_holdout:])
    observed_mask = np.zeros(n, dtype=bool)
    observed_mask[observed_rows] = True
    coords = np.column_stack((inventory.x, inventory.y))[observed_rows]
    batch_seed = streams["batch"].integers(2**63)
    return Scenario(
        y_obs=soft_exceedance(soft),
        y_true=hard_exceedance(truth),
        weights=weights,
        f1=f1,
        observed_mask=observed_mask,
        holdout_rows=np.sort(order[:n_holdout]),
        batches={
            strat: make_batches(observed_rows, strat, config.n_batches, batch_seed, coords=coords)
            for strat in config.strategies
        },
        gp_seed=int(streams["gp"].integers(2**31)),
        priors={
            width: build_prior_field(inventory, replace(config.true_track, width_total=width))
            for width in config.prior_widths
        },
    )


def run_online_experiment(config: ScenarioConfig) -> ExperimentResult:
    """Full sweep over prior widths x strategies x modes; see module docstring."""
    scenario = prepare(config)
    y_obs, weights, gp_seed = scenario.y_obs, scenario.weights, scenario.gp_seed
    # gp fit budgets: cold fits for the prior field and the first real batch,
    # because the all-prior fit at step 0 lands in a degenerate basin (weak
    # pseudo-observations aggregate into one global latent) that a warm start
    # would never escape once data arrives; warm refits after that
    cold = dict(restarts=config.gp_cold_restarts, max_iter=config.gp_cold_max_iter)
    warm = dict(
        restarts=1,
        max_iter=config.gp_warm_max_iter,
        tol=config.gp_warm_tol,
        xatol=config.gp_warm_xatol,
    )

    # step 0 of every strategy at one width fits the same prior field from
    # the same init and seed, so its fit and posterior are made once per width
    step0_fits = {}
    metrics, trajectory, violations, finals = [], [], [], {}
    for strategy in config.strategies:
        for width in config.prior_widths:
            # one conjugate trajectory per (strategy, width), which every mode
            # scores, so the modes see the same evidence, counted once
            fs = scenario.priors[width].copy()
            width = float(width)
            rows = {mode: [] for mode in config.modes}
            for step, batch in enumerate([(), *scenario.batches[strategy], scenario.holdout_rows]):
                if step:  # each batch, then the holdout: one observation per state
                    i = np.repeat(batch, len(weights))
                    j = np.tile(np.arange(len(weights)), len(batch))
                    update_cells(fs.mu, fs.sigma2, i, j, y_obs[i, j], weights[j])
                if "local-only" in config.modes:
                    # a cell's moments depend on that cell alone, so after
                    # step 0 only the rows this step updated are recomputed
                    if step:
                        local_m[batch], local_var[batch] = pn_moments_vec(
                            fs.mu[batch], fs.sigma2[batch]
                        )
                    else:
                        local_m, local_var = pn_moments_vec(fs.mu, fs.sigma2)
                for mode in config.modes:
                    if mode == "local-only":
                        m, var_p = local_m, local_var
                    else:
                        # the GP is fit at every step, the prior field included,
                        # so every gp row is scored through the same lens
                        pts = FieldPoints.from_field_state(fs)
                        if step == 0 and width in step0_fits:
                            gp_params, post = step0_fits[width]
                        else:
                            init = data_informed_init(pts) if step <= 1 else gp_params
                            budget = cold if step <= 1 else warm
                            gp_params = fit_hyperparameters(pts, init, seed=gp_seed, **budget)
                            post = exact_posterior(pts, gp_params)
                            if step == 0:
                                step0_fits[width] = gp_params, post
                        m, var_p = (
                            a.reshape(fs.mu.shape) for a in pn_moments_vec(post.mean, post.var)
                        )
                        key = dict(mode=mode, strategy=strategy, prior_width_m=width, step=step)
                        trajectory.append(
                            TrajectoryRecord(
                                **key,
                                **asdict(gp_params),
                                log_marginal_likelihood=post.log_evidence,
                            )
                        )
                        count = ordinality_violation_count(m)
                        violations.append({**key, "count": count})
                    rows[mode] += _metrics_for(step, mode, strategy, width, m, var_p, scenario)
            for mode in config.modes:
                metrics += rows[mode]
            finals[(width, strategy)] = fs
    return ExperimentResult(
        config=config,
        scenario=scenario,
        metrics=metrics,
        trajectory=trajectory,
        final_fields=finals,
        ordinality_violations=violations,
    )

