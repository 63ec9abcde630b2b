"""File formats: round-trip-exact CSV, GeoJSON snapshots, configs, manifests.

All floating-point CSV fields are serialized with 17 significant digits so a
write/read cycle reproduces the exact double.  GeoJSON output follows RFC
7946 structure (Point features); since scenario coordinates are planar
meters rather than lon/lat, collections carry a ``planar_coordinates``
foreign member set to true.  Configs are single JSON documents with an
explicit ``schema_version``; unknown keys are rejected with their field
path.  Run manifests record a content digest for every emitted file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, InvalidInputError
from .field_state import STATES, FieldState
from .hazard import Building
from .probit_normal import pn_moments_vec

__all__ = [
    "SCHEMA_VERSION",
    "fmt17",
    "write_field_csv",
    "read_field_csv",
    "write_field_geojson",
    "write_metrics_csv",
    "write_trajectory_csv",
    "write_update_trajectory_csv",
    "write_gp_field_csv",
    "read_inventory_csv",
    "read_observations_csv",
    "read_weights_csv",
    "load_config",
    "check_keys",
    "sha256_file",
    "RunManifest",
    "write_manifest",
]

SCHEMA_VERSION = 1

_FIELD_COLUMNS = (
    "building_id",
    "x",
    "y",
    "archetype",
    "state",
    "mu",
    "sigma2",
    "m",
    "var_p",
)


def fmt17(x) -> str:
    """Serialize a float with 17 significant digits (round-trip exact)."""
    return "%.17g" % float(x)


def write_field_csv(path, fs: FieldState) -> None:
    """One row per (building, state): id, geometry, PN cell, probability moments."""
    m, var_p = pn_moments_vec(fs.mu, fs.sigma2)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIELD_COLUMNS)
        for i, bid in enumerate(fs.ids):
            for j, state in enumerate(fs.states):
                writer.writerow(
                    [
                        bid,
                        fmt17(fs.x[i]),
                        fmt17(fs.y[i]),
                        int(fs.archetype[i]),
                        state,
                        fmt17(fs.mu[i, j]),
                        fmt17(fs.sigma2[i, j]),
                        fmt17(m[i, j]),
                        fmt17(var_p[i, j]),
                    ]
                )


def read_field_csv(path) -> FieldState:
    """Parse a field CSV back into a FieldState (m/var_p columns are ignored)."""
    state_index = {s: j for j, s in enumerate(STATES)}
    rows: dict = {}
    order: list = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"building_id", "x", "y", "archetype", "state", "mu", "sigma2"}
        missing = required - set(reader.fieldnames or ())
        if missing:
            raise InvalidInputError(
                f"{path}: missing column(s): {', '.join(sorted(missing))}"
            )
        for lineno, rec in enumerate(reader, start=2):
            try:
                bid = rec["building_id"]
                j = state_index[rec["state"].strip().lower()]
                if bid not in rows:
                    order.append(bid)
                    rows[bid] = {
                        "x": float(rec["x"]),
                        "y": float(rec["y"]),
                        "archetype": int(rec["archetype"]),
                        "mu": [None] * len(STATES),
                        "sigma2": [None] * len(STATES),
                    }
                rows[bid]["mu"][j] = float(rec["mu"])
                rows[bid]["sigma2"][j] = float(rec["sigma2"])
            except KeyError as exc:
                raise InvalidInputError(f"{path}:{lineno}: unknown state {exc}") from exc
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise InvalidInputError(f"{path}: no field rows")
    for bid, r in rows.items():
        if None in r["mu"] or None in r["sigma2"]:
            raise InvalidInputError(f"{path}: building {bid} missing a state row")
    try:
        return FieldState(
            ids=order,
            x=np.array([rows[b]["x"] for b in order]),
            y=np.array([rows[b]["y"] for b in order]),
            archetype=np.array([rows[b]["archetype"] for b in order]),
            mu=np.array([rows[b]["mu"] for b in order]),
            sigma2=np.array([rows[b]["sigma2"] for b in order]),
        )
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def write_field_geojson(path, fs: FieldState) -> None:
    """RFC 7946 FeatureCollection of Points, one feature per building.

    Coordinates are planar meters, not lon/lat, which RFC 7946 reserves;
    the collection carries ``planar_coordinates: true`` as a foreign member
    to make that explicit.
    """
    m, var_p = pn_moments_vec(fs.mu, fs.sigma2)
    features = []
    for i, bid in enumerate(fs.ids):
        props = {"building_id": bid, "archetype": int(fs.archetype[i])}
        for j, state in enumerate(fs.states):
            props[f"m_{state}"] = float(m[i, j])
            props[f"var_p_{state}"] = float(var_p[i, j])
            props[f"mu_{state}"] = float(fs.mu[i, j])
            props[f"sigma2_{state}"] = float(fs.sigma2[i, j])
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [float(fs.x[i]), float(fs.y[i])],
                },
                "properties": props,
            }
        )
    doc = {
        "type": "FeatureCollection",
        "planar_coordinates": True,
        "features": features,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


_METRICS_COLUMNS = (
    "step",
    "mode",
    "strategy",
    "prior_width_m",
    "subset",
    "state",
    "log_loss_vs_observer",
    "log_loss_vs_truth",
    "var_p_median",
)

_KERNEL_COLUMNS = ("sigma2_global", "ell1", "ell2", "rho_a", "alpha_local", "tau")
_TRAJECTORY_COLUMNS = (
    ("mode", "strategy", "prior_width_m", "step")
    + _KERNEL_COLUMNS
    + ("log_marginal_likelihood",)
)


def write_metrics_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_METRICS_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.step,
                    r.mode,
                    r.strategy,
                    fmt17(r.prior_width_m),
                    r.subset,
                    r.state,
                    fmt17(r.log_loss_vs_observer),
                    fmt17(r.log_loss_vs_truth),
                    fmt17(r.var_p_median),
                ]
            )


def write_trajectory_csv(path, records) -> None:
    """GP hyperparameters and log marginal likelihood per experiment step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRAJECTORY_COLUMNS)
        for r in records:
            writer.writerow(
                [r.mode, r.strategy, fmt17(r.prior_width_m), r.step]
                + [fmt17(getattr(r, c)) for c in _KERNEL_COLUMNS]
                + [fmt17(r.log_marginal_likelihood)]
            )


def write_update_trajectory_csv(path, params, lml) -> None:
    """The one hyperparameter row of ``fragfield update --mode gp``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_KERNEL_COLUMNS + ("log_marginal_likelihood",))
        writer.writerow(
            [fmt17(getattr(params, c)) for c in _KERNEL_COLUMNS] + [fmt17(lml)]
        )


def write_gp_field_csv(path, fs: FieldState) -> None:
    """GP posterior probability summaries per cell (reporting layer)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["building_id", "state", "m", "var_p"])
        for i, bid in enumerate(fs.ids):
            for j, state in enumerate(fs.states):
                writer.writerow(
                    [bid, state, fmt17(fs.gp_mean_p[i, j]), fmt17(fs.gp_var_p[i, j])]
                )


def read_inventory_csv(path):
    """Buildings from CSV columns building_id, x, y, archetype."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"building_id", "x", "y", "archetype"}
        missing = required - set(reader.fieldnames or ())
        if missing:
            raise InvalidInputError(
                f"{path}: missing column(s): {', '.join(sorted(missing))}"
            )
        for lineno, rec in enumerate(reader, start=2):
            try:
                out.append(
                    Building(
                        id=rec["building_id"],
                        x=float(rec["x"]),
                        y=float(rec["y"]),
                        archetype=int(rec["archetype"]),
                    )
                )
            except (ValueError, InvalidInputError) as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise InvalidInputError(f"{path}: no inventory rows")
    return out


def read_observations_csv(path):
    """Soft exceedance observations: building_id, state, y[, source].

    Returns a list of dicts with keys building_id, state, y, source; the
    source column defaults to "src1" when absent.
    """
    out = []
    state_set = set(STATES)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = set(reader.fieldnames or ())
        required = {"building_id", "state", "y"}
        missing = required - fields
        if missing:
            raise InvalidInputError(
                f"{path}: missing column(s): {', '.join(sorted(missing))}"
            )
        has_source = "source" in fields
        for lineno, rec in enumerate(reader, start=2):
            try:
                state = rec["state"].strip().lower()
                if state not in state_set:
                    raise ValueError(f"unknown state {state!r}")
                y = float(rec["y"])
                if not 0.0 <= y <= 1.0:
                    raise ValueError(f"y={y} outside [0, 1]")
                out.append(
                    {
                        "building_id": rec["building_id"],
                        "state": state,
                        "y": y,
                        "source": rec["source"] if has_source else "src1",
                    }
                )
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    return out


def read_weights_csv(path):
    """Source reliability weights: state, weight[, source] -> {(source, state): w}."""
    out = {}
    state_set = set(STATES)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = set(reader.fieldnames or ())
        required = {"state", "weight"}
        missing = required - fields
        if missing:
            raise InvalidInputError(
                f"{path}: missing column(s): {', '.join(sorted(missing))}"
            )
        has_source = "source" in fields
        for lineno, rec in enumerate(reader, start=2):
            try:
                state = rec["state"].strip().lower()
                if state not in state_set:
                    raise ValueError(f"unknown state {state!r}")
                w = float(rec["weight"])
                if w < 0:
                    raise ValueError(f"weight={w} must be >= 0")
                source = rec["source"] if has_source else "src1"
                out[(source, state)] = w
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise InvalidInputError(f"{path}: no weight rows")
    return out


def load_config(path) -> dict:
    """Parse a JSON config document and check its schema version."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    return doc


def check_keys(doc: dict, allowed, *, path: str = "") -> None:
    """Reject unknown config keys, reporting the offending field path."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(f"unknown config key(s): {', '.join(where + k for k in unknown)}")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Inventory of one CLI run: config digest, seed, and emitted files."""

    config_sha256: str
    seed: int | None
    artifact_version: str
    created_utc: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )
    files: list = field(default_factory=list)

    def add_file(self, path, root) -> None:
        self.files.append(
            {
                "path": os.path.relpath(path, root),
                "sha256": sha256_file(path),
            }
        )


def write_manifest(path, manifest: RunManifest) -> None:
    doc = {
        "config_sha256": manifest.config_sha256,
        "seed": manifest.seed,
        "artifact_version": manifest.artifact_version,
        "created_utc": manifest.created_utc,
        "files": sorted(manifest.files, key=lambda f: f["path"]),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
