"""Command-line interface: build priors, apply updates, run experiments.

Each subcommand takes a JSON config (``--config``), an output directory
(``--out``), an optional seed override (``--seed``), and ``--dry-run`` to
validate inputs without writing anything.  Relative paths inside a config
resolve against the config file's directory.  Exit codes: 0 success, 2
input/config error, 3 numerical failure.

Randomness uses NumPy's seeded PCG64 generator throughout, so identical
configs and seeds reproduce bit-identical outputs on the same BLAS build
with the same BLAS thread count.  The GP outputs depend on both: OpenBLAS's
threaded Cholesky (``dpotrf``) rounds differently from its single-threaded
one.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .beta_bridge import update_cells
from .errors import ConfigError, InvalidInputError, NumericalFailureError, check_number
from .experiment import ObserverModel, ScenarioConfig, run_online_experiment
from .field_state import STATES
from .gp_field import (
    FieldPoints,
    check_exact_size,
    data_informed_init,
    exact_posterior,
    fit_hyperparameters,
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
from .probit_normal import pn_moments_vec


def _resolve(doc, key, config_path):
    """The file named by config key ``key``, relative to the config's directory."""
    path = doc[key]
    if not isinstance(path, str):
        raise ConfigError(f"{key} must be a path string, got {path!r}")
    # an absolute ``path`` replaces the directory
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), path)


def _write_outputs(out_dir, config_path, seed, field_states, written=()) -> None:
    """Write each field's CSV + GeoJSON pair and the run's manifest.

    ``field_states`` maps a path stem under ``out_dir`` to a FieldState; the
    manifest lists those pairs and the files in ``written``, which the
    command has already put in ``out_dir``.
    """
    manifest = RunManifest(
        config_sha256=sha256_file(config_path), seed=seed, artifact_version=__version__
    )
    paths = list(written)
    for stem, fs in field_states.items():
        csv_path = os.path.join(out_dir, stem + ".csv")
        geo_path = os.path.join(out_dir, stem + ".geojson")
        moments = pn_moments_vec(fs.mu, fs.sigma2)
        write_field_csv(csv_path, fs, *moments)
        write_field_geojson(geo_path, fs, *moments)
        paths += [csv_path, geo_path]
    for path in paths:
        manifest.add_file(path, out_dir)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)


def _section(doc, path, cls, prefix="") -> dict:
    """The keyword arguments of ``cls`` that config object ``doc`` sets.

    Each key of ``doc`` must name a field of the dataclass ``cls`` once
    ``prefix`` is put before it; an unknown key is reported as ``path.key``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    names = [f.name[len(prefix) :] for f in fields(cls) if f.name.startswith(prefix)]
    check_keys(doc, names, path=path)
    return {prefix + key: value for key, value in doc.items()}


def _track_from_dict(doc, *, path="track") -> TornadoTrack:
    kwargs = _section(doc, path, TornadoTrack)
    if "centerline" not in doc or "width_total" not in doc:
        raise ConfigError(f"{path} needs centerline and width_total")
    try:
        return TornadoTrack(**kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- prior

_PRIOR_NUMBERS = ("eps_hazard", "eps_capacity", "clip_bound", "separation", "wind_floor")


def cmd_prior(config_path, out_dir, seed, dry_run) -> int:
    doc = load_config(config_path)
    check_keys(doc, ("schema_version", "inventory", "track", "table", *_PRIOR_NUMBERS))
    for key in ("inventory", "track"):
        if key not in doc:
            raise ConfigError(f"missing required config key: {key}")
    kwargs = {key: check_number(key, doc[key]) for key in _PRIOR_NUMBERS if key in doc}
    inventory = read_inventory_csv(_resolve(doc, "inventory", config_path))
    track = _track_from_dict(doc["track"])
    table = (
        FragilityTable.from_csv(_resolve(doc, "table", config_path))
        if "table" in doc
        else FragilityTable.default()
    )
    fs = build_prior_field(inventory, track, table, **kwargs)
    if dry_run:
        return 0
    os.makedirs(out_dir, exist_ok=True)
    _write_outputs(out_dir, config_path, seed, {"field": fs})
    return 0


# ---------------------------------------------------------------- update

# gp mode's fit budget: config key -> default
_GP_BUDGET = {"gp_restarts": 1, "gp_max_iter": 100}


def _group_observations(fs, observations, weights):
    """The (building row, state index, y, weight) columns of the observations.

    Unknown building ids or missing (source, state) weights abort with the
    first ten offenders listed.
    """
    row_of = {bid: i for i, bid in enumerate(fs.ids)}
    state_index = {s: j for j, s in enumerate(STATES)}
    unknown = []
    missing_w = []
    i, j, y, w = [], [], [], []
    for obs in observations:
        bid = obs["building_id"]
        if bid not in row_of:
            unknown.append(bid)
            continue
        key = (obs["source"], obs["state"])
        if key not in weights:
            missing_w.append(f"{key[0]}/{key[1]}")
            continue
        i.append(row_of[bid])
        j.append(state_index[obs["state"]])
        y.append(obs["y"])
        w.append(weights[key])
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
    return np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(y), np.array(w)


def cmd_update(config_path, out_dir, seed, dry_run) -> int:
    doc = load_config(config_path)
    check_keys(
        doc, ("schema_version", "field", "observations", "weights", "mode", *_GP_BUDGET)
    )
    for key in ("field", "observations", "weights", "mode"):
        if key not in doc:
            raise ConfigError(f"missing required config key: {key}")
    mode = doc["mode"]
    if mode not in ("local", "gp"):
        raise ConfigError(f"mode must be 'local' or 'gp', got {mode!r}")
    gp_budget = {
        key: check_number(
            key, doc.get(key, default), "an integer >= 1", lambda v: v >= 1, integer=True
        )
        for key, default in _GP_BUDGET.items()
    }
    field_path = _resolve(doc, "field", config_path)
    fs = read_field_csv(field_path)
    if mode == "gp":
        check_exact_size(fs.n_buildings, fs.n_states)
    observations = read_observations_csv(_resolve(doc, "observations", config_path))
    weights = read_weights_csv(_resolve(doc, "weights", config_path))
    columns = _group_observations(fs, observations, weights)
    # before the dry-run return, so a dry run rejects what the update rejects:
    # a cell the local cycle cannot take, or, in gp mode, one the GP cannot
    try:
        update_cells(fs.mu, fs.sigma2, *columns)
        pts = FieldPoints.from_field_state(fs) if mode == "gp" else None
    except InvalidInputError as exc:
        if not hasattr(exc, "cell"):
            raise
        i, j = exc.cell
        raise InvalidInputError(
            f"{field_path}: building {fs.ids[i]}, state {STATES[j]}: {exc}"
        ) from exc
    if dry_run:
        return 0

    os.makedirs(out_dir, exist_ok=True)
    written = []
    if mode == "gp":
        params = fit_hyperparameters(
            pts,
            data_informed_init(pts),
            restarts=gp_budget["gp_restarts"],
            max_iter=gp_budget["gp_max_iter"],
            seed=0 if seed is None else seed,
        )
        post = exact_posterior(pts, params)
        gp_csv = os.path.join(out_dir, "gp_field.csv")
        write_gp_field_csv(gp_csv, fs, *pn_moments_vec(post.mean, post.var))
        traj_csv = os.path.join(out_dir, "trajectory.csv")
        write_update_trajectory_csv(traj_csv, params, post.log_evidence)
        written += [gp_csv, traj_csv]
    _write_outputs(out_dir, config_path, seed, {"field": fs}, written)
    return 0


# ---------------------------------------------------------------- experiment

def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed experiment config document.

    Its keys are ScenarioConfig's fields, except that the ``gp_`` fields
    sit in a ``gp_budgets`` object without that prefix.
    """
    top = {f.name for f in fields(ScenarioConfig) if not f.name.startswith("gp_")}
    check_keys(doc, top | {"schema_version", "gp_budgets"})
    kwargs = {key: doc[key] for key in top & set(doc)}
    kwargs.update(_section(doc.get("gp_budgets", {}), "gp_budgets", ScenarioConfig, "gp_"))
    if "true_track" in doc:
        kwargs["true_track"] = _track_from_dict(doc["true_track"], path="true_track")
    if "observer" in doc:
        kwargs["observer"] = ObserverModel(**_section(doc["observer"], "observer", ObserverModel))
    return ScenarioConfig(**kwargs)


def cmd_experiment(config_path, out_dir, seed, dry_run) -> int:
    doc = load_config(config_path)
    config = scenario_from_dict(doc)
    if seed is not None:
        config = replace(config, seed=seed)
    if dry_run:
        return 0
    result = run_online_experiment(config)
    os.makedirs(os.path.join(out_dir, "fields"), exist_ok=True)
    metrics_csv = os.path.join(out_dir, "metrics.csv")
    trajectory_csv = os.path.join(out_dir, "trajectory.csv")
    write_metrics_csv(metrics_csv, result.metrics)
    write_trajectory_csv(trajectory_csv, result.trajectory)
    fields = {
        os.path.join("fields", f"w{width:g}_{strategy}"): fs
        for (width, strategy), fs in sorted(result.final_fields.items())
    }
    _write_outputs(out_dir, config_path, config.seed, fields, [metrics_csv, trajectory_csv])
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
        if args.seed is not None and args.seed < 0:
            raise InvalidInputError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args.config, args.out, args.seed, args.dry_run)
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
