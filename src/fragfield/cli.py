"""Command-line interface: build priors, apply updates, run experiments.

Each subcommand takes a JSON config (``--config``), an output directory
(``--out``), an optional seed override (``--seed``), and ``--dry-run`` to
validate inputs without writing anything.  Relative paths inside a config
resolve against the config file's directory.  Exit codes: 0 success, 2
input/config error, 3 numerical failure.

Randomness uses NumPy's seeded PCG64 generator throughout, so identical
configs and seeds reproduce bit-identical outputs across platforms.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .beta_bridge import WeightedObservation, local_update_cycle
from .errors import ConfigError, InvalidInputError, NumericalFailureError
from .experiment import ObserverModel, ScenarioConfig, run_online_experiment
from .field_state import STATES
from .gp_field import (
    FieldPoints,
    data_informed_init,
    exact_posterior,
    fit_hyperparameters,
    log_marginal_likelihood,
    posterior_to_probability,
)
from .hazard import FragilityTable, TornadoTrack, build_prior_field
from .io import (
    RunManifest,
    check_keys,
    load_config,
    read_field_csv,
    read_inventory_csv,
    read_observations_csv,
    read_weights_csv,
    sha256_file,
    write_field_csv,
    write_field_geojson,
    write_gp_field_csv,
    write_manifest,
    write_metrics_csv,
    write_trajectory_csv,
    write_update_trajectory_csv,
)
from .probit_normal import PnMarginal

_TRACK_KEYS = {
    "centerline",
    "width_total",
    "v_core",
    "v_edge",
    "core_fraction",
    "edge_fraction",
}


def _resolve(path, config_path):
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), path)


def _track_from_dict(doc, *, path="track") -> TornadoTrack:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    check_keys(doc, _TRACK_KEYS, path=path)
    if "centerline" not in doc or "width_total" not in doc:
        raise ConfigError(f"{path} needs centerline and width_total")
    kwargs = {k: doc[k] for k in doc if k not in ("centerline",)}
    try:
        return TornadoTrack(centerline=tuple(tuple(p) for p in doc["centerline"]), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- prior

_PRIOR_KEYS = {
    "schema_version",
    "inventory",
    "track",
    "table",
    "eps_hazard",
    "eps_capacity",
    "clip_bound",
    "separation",
    "wind_floor",
}


def cmd_prior(config_path, out_dir, seed, dry_run) -> int:
    doc = load_config(config_path)
    check_keys(doc, _PRIOR_KEYS)
    for key in ("inventory", "track"):
        if key not in doc:
            raise ConfigError(f"missing required config key: {key}")
    inventory = read_inventory_csv(_resolve(doc["inventory"], config_path))
    track = _track_from_dict(doc["track"])
    table = (
        FragilityTable.from_csv(_resolve(doc["table"], config_path))
        if "table" in doc
        else FragilityTable.default()
    )
    kwargs = {
        k: doc[k]
        for k in ("eps_hazard", "eps_capacity", "clip_bound", "separation", "wind_floor")
        if k in doc
    }
    fs = build_prior_field(inventory, track, table, **kwargs)
    if dry_run:
        return 0
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(
        config_sha256=sha256_file(config_path), seed=seed, artifact_version=__version__
    )
    field_csv = os.path.join(out_dir, "field.csv")
    field_geojson = os.path.join(out_dir, "field.geojson")
    write_field_csv(field_csv, fs)
    write_field_geojson(field_geojson, fs)
    manifest.add_file(field_csv, out_dir)
    manifest.add_file(field_geojson, out_dir)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return 0


# ---------------------------------------------------------------- update

_UPDATE_KEYS = {
    "schema_version",
    "field",
    "observations",
    "weights",
    "mode",
    "gp_restarts",
    "gp_max_iter",
}


def _group_observations(fs, observations, weights):
    """Map (building row, state index) -> list of WeightedObservation.

    Unknown building ids or missing (source, state) weights abort with the
    first ten offenders listed.
    """
    row_of = {bid: i for i, bid in enumerate(fs.ids)}
    state_index = {s: j for j, s in enumerate(STATES)}
    unknown = []
    missing_w = []
    grouped: dict = {}
    for obs in observations:
        bid = obs["building_id"]
        if bid not in row_of:
            unknown.append(bid)
            continue
        key = (obs["source"], obs["state"])
        if key not in weights:
            missing_w.append(f"{key[0]}/{key[1]}")
            continue
        cell = (row_of[bid], state_index[obs["state"]])
        grouped.setdefault(cell, []).append(
            WeightedObservation(y=obs["y"], weight=weights[key])
        )
    if unknown:
        first = list(dict.fromkeys(unknown))[:10]
        raise InvalidInputError(
            f"{len(set(unknown))} observation id(s) not in field; first "
            f"{len(first)}: {', '.join(first)}"
        )
    if missing_w:
        first = list(dict.fromkeys(missing_w))[:10]
        raise InvalidInputError(
            f"no weight for source/state pair(s): {', '.join(first)}"
        )
    return grouped


def cmd_update(config_path, out_dir, seed, dry_run) -> int:
    doc = load_config(config_path)
    check_keys(doc, _UPDATE_KEYS)
    for key in ("field", "observations", "weights", "mode"):
        if key not in doc:
            raise ConfigError(f"missing required config key: {key}")
    mode = doc["mode"]
    if mode not in ("local", "gp"):
        raise ConfigError(f"mode must be 'local' or 'gp', got {mode!r}")
    fs = read_field_csv(_resolve(doc["field"], config_path))
    observations = read_observations_csv(_resolve(doc["observations"], config_path))
    weights = read_weights_csv(_resolve(doc["weights"], config_path))
    grouped = _group_observations(fs, observations, weights)
    if dry_run:
        return 0

    for (i, j), batch in sorted(grouped.items()):
        post = local_update_cycle(PnMarginal(mu=fs.mu[i, j], sigma2=fs.sigma2[i, j]), batch)
        fs.mu[i, j] = post.mu
        fs.sigma2[i, j] = post.sigma2

    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(
        config_sha256=sha256_file(config_path), seed=seed, artifact_version=__version__
    )
    outputs = []
    if mode == "gp":
        pts = FieldPoints.from_field_state(fs)
        params = fit_hyperparameters(
            pts,
            data_informed_init(pts),
            restarts=int(doc.get("gp_restarts", 1)),
            max_iter=int(doc.get("gp_max_iter", 100)),
            seed=0 if seed is None else seed,
        )
        post = exact_posterior(pts, params)
        mean_p, var_p = posterior_to_probability(post)
        fs.gp_mean_p = mean_p.reshape(fs.mu.shape)
        fs.gp_var_p = var_p.reshape(fs.mu.shape)
        gp_csv = os.path.join(out_dir, "gp_field.csv")
        write_gp_field_csv(gp_csv, fs)
        outputs.append(gp_csv)
        traj_csv = os.path.join(out_dir, "trajectory.csv")
        lml = log_marginal_likelihood(pts, params)
        write_update_trajectory_csv(traj_csv, params, lml)
        outputs.append(traj_csv)

    field_csv = os.path.join(out_dir, "field.csv")
    field_geojson = os.path.join(out_dir, "field.geojson")
    write_field_csv(field_csv, fs)
    write_field_geojson(field_geojson, fs)
    outputs += [field_csv, field_geojson]
    for path in outputs:
        manifest.add_file(path, out_dir)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return 0


# ---------------------------------------------------------------- experiment

_EXPERIMENT_KEYS = {
    "schema_version",
    "n_buildings",
    "region",
    "true_track",
    "prior_widths",
    "strategies",
    "modes",
    "n_batches",
    "holdout_fraction",
    "observer",
    "seed",
    "gp_budgets",
}

_OBSERVER_KEYS = {"class_error", "concentration", "spread", "calibration_size", "w_max"}
_BUDGET_KEYS = {
    "cold_restarts",
    "cold_max_iter",
    "warm_max_iter",
    "warm_xatol",
    "warm_tol",
}


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed experiment config document."""
    check_keys(doc, _EXPERIMENT_KEYS)
    kwargs: dict = {}
    if "region" in doc:
        region = doc["region"]
        try:
            kwargs["region"] = tuple(
                (float(lo), float(hi)) for lo, hi in region
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"region: {exc}") from exc
        if len(kwargs["region"]) != 2:
            raise ConfigError("region must hold [x_range, y_range]")
    if "true_track" in doc:
        kwargs["true_track"] = _track_from_dict(doc["true_track"], path="true_track")
    if "observer" in doc:
        obs = doc["observer"]
        if not isinstance(obs, dict):
            raise ConfigError("observer must be an object")
        check_keys(obs, _OBSERVER_KEYS, path="observer")
        try:
            kwargs["observer"] = ObserverModel(**obs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"observer: {exc}") from exc
    if "gp_budgets" in doc:
        budgets = doc["gp_budgets"]
        if not isinstance(budgets, dict):
            raise ConfigError("gp_budgets must be an object")
        check_keys(budgets, _BUDGET_KEYS, path="gp_budgets")
        for key, value in budgets.items():
            kwargs[f"gp_{key}"] = value
    for key in ("prior_widths", "strategies", "modes"):
        if key in doc:
            try:
                kwargs[key] = tuple(doc[key])
            except TypeError as exc:
                raise ConfigError(f"{key} must be a list: {exc}") from exc
    for key in ("n_buildings", "n_batches", "holdout_fraction", "seed"):
        if key in doc:
            kwargs[key] = doc[key]
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"experiment config: {exc}") from exc


def cmd_experiment(config_path, out_dir, seed, dry_run) -> int:
    doc = load_config(config_path)
    config = scenario_from_dict(doc)
    if seed is not None:
        from dataclasses import replace

        config = replace(config, seed=seed)
    if dry_run:
        return 0
    result = run_online_experiment(config)
    os.makedirs(out_dir, exist_ok=True)
    fields_dir = os.path.join(out_dir, "fields")
    os.makedirs(fields_dir, exist_ok=True)
    manifest = RunManifest(
        config_sha256=sha256_file(config_path),
        seed=config.seed,
        artifact_version=__version__,
    )
    metrics_csv = os.path.join(out_dir, "metrics.csv")
    trajectory_csv = os.path.join(out_dir, "trajectory.csv")
    write_metrics_csv(metrics_csv, result.metrics)
    write_trajectory_csv(trajectory_csv, result.trajectory)
    manifest.add_file(metrics_csv, out_dir)
    manifest.add_file(trajectory_csv, out_dir)
    for (width, strategy, mode), fs in sorted(result.final_fields.items()):
        stem = f"w{width:g}_{strategy}_{mode}"
        csv_path = os.path.join(fields_dir, stem + ".csv")
        geo_path = os.path.join(fields_dir, stem + ".geojson")
        write_field_csv(csv_path, fs)
        write_field_geojson(geo_path, fs)
        manifest.add_file(csv_path, out_dir)
        manifest.add_file(geo_path, out_dir)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return 0


# ---------------------------------------------------------------- entry point

_COMMANDS = {
    "prior": cmd_prior,
    "update": cmd_update,
    "experiment": cmd_experiment,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragfield",
        description="Online Bayesian updating of spatial fragility fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("prior", "build a physics-based prior field from an inventory and track"),
        ("update", "apply weighted soft observations to a field (local or gp mode)"),
        ("experiment", "run the full batched online-learning experiment"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument(
            "--dry-run",
            action="store_true",
            help="validate config and inputs, write nothing",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args.config, args.out, args.seed, args.dry_run)
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
