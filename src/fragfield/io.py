"""File formats: round-trip-exact CSV, GeoJSON snapshots, configs, manifests.

All floating-point CSV fields are serialized with 17 significant digits so a
write/read cycle reproduces the exact double.  GeoJSON output follows RFC
7946 structure (Point features); since scenario coordinates are planar
meters rather than lon/lat, collections carry a ``planar_coordinates``
foreign member set to true.  Configs are single JSON documents with an
explicit ``schema_version``; unknown keys are rejected with their field
path.  Run manifests record a content digest for every emitted file.

The field writers format and write one block of ``_WRITE_BLOCK`` buildings
at a time, so their transient memory is bounded whatever the field's size:
the CSV writers format a block's rows from one ``%`` template, and the
GeoJSON writer joins a block's features into one write.  They stay
byte-stable: the CSV writers quote an id by ``csv.writer``'s own rule and
spell each float as ``fmt17`` does, and the GeoJSON writer writes exactly
what ``json.dump(doc, indent=2, sort_keys=True)`` would.
The field CSV and GeoJSON writers take the cells' probability moments
from the caller, which computes them once for the pair.
Every CSV input is read through ``_csv_rows``, which checks the header,
the field count of each row and the text encoding, so a malformed file
raises InvalidInputError (CLI exit 2) naming the file and, where there is
one, the line, rather than a traceback.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, field, fields
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, InvalidInputError
from .experiment import MetricsRecord, TrajectoryRecord
from .field_state import STATES, FieldState, Inventory

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


# csv.writer's text for one row, returned instead of written
_csv_row_text = csv.writer(SimpleNamespace(write=str)).writerow


# buildings per block of the field writers
_WRITE_BLOCK = 256


def _blocks(n):
    """Consecutive slices of at most _WRITE_BLOCK rows that cover ``range(n)``."""
    return [slice(start, start + _WRITE_BLOCK) for start in range(0, n, _WRITE_BLOCK)]


def _write_cell_rows(path, header, ids, building, cells) -> None:
    """A CSV of ``header`` and one row per (building, state) cell.

    A row holds the building's id, its ``building`` columns, the state and
    the cell's value in each of ``cells``.  ``building`` pairs a ``%``
    format with a per-building array; ``cells`` are (n_buildings, n_states)
    float arrays, spelled ``%.17g`` as ``fmt17`` spells them.  The head of
    a building's rows (its id, quoted by ``csv.writer``'s own rule, and its
    building columns) is formatted once per building, and each block's rows
    from one ``%`` template.
    """
    head = ",".join(["%s", *(fmt for fmt, _ in building)])
    rows = "".join(f"%s,{state}" + ",%.17g" * len(cells) + "\r\n" for state in STATES)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_row_text(header))
        for b in _blocks(len(ids)):
            # a two-field row of the id and "" spells the id, then ",\r\n"
            spelled = [_csv_row_text((bid, ""))[:-3] for bid in ids[b]]
            columns = (col[b].tolist() for _, col in building)
            heads = [head % values for values in zip(spelled, *columns)]
            args = np.empty((len(heads), len(STATES), 1 + len(cells)), dtype=object)
            args[:, :, 0] = np.array(heads, dtype=object)[:, None]
            for k, values in enumerate(cells, start=1):
                args[:, :, k] = values[b]
            fh.write((rows * len(heads)) % tuple(args.ravel().tolist()))


def write_field_csv(path, fs: FieldState, m, var_p) -> None:
    """One row per (building, state): id, geometry, PN cell, probability moments.

    ``m, var_p`` are the cells' probability moments, ``pn_moments_vec(fs.mu,
    fs.sigma2)``, computed once by the caller for both field writers.
    """
    _write_cell_rows(
        path,
        _FIELD_COLUMNS,
        fs.ids,
        [("%.17g", fs.x), ("%.17g", fs.y), ("%d", fs.archetype)],
        [fs.mu, fs.sigma2, m, var_p],
    )


def _csv_rows(path, required, optional=()):
    """Yield ``(line, values)`` for each data row of a CSV file with a header.

    ``values`` holds the row's fields in the order of ``required`` then
    ``optional``; an optional column the header lacks reads None.  Blank
    lines are skipped, as ``csv.DictReader`` skips them.  A header that
    names a column twice (blank names aside), a missing required column, a
    row whose field count differs from the header's, a byte the text codec
    cannot decode and a ``csv.Error`` all raise InvalidInputError naming the
    file (and the line where there is one).
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            column = {name: k for k, name in enumerate(header)}
            # the dict kept each name's last position, so a name found at
            # another one is repeated; blank names (trailing empty columns of a
            # spreadsheet export) name nothing a reader takes
            repeated = [name for k, name in enumerate(header) if name and column[name] != k]
            if repeated:
                raise InvalidInputError(
                    f"{path}: column {repeated[0]!r} appears more than once"
                )
            missing = set(required) - set(column)
            if missing:
                raise InvalidInputError(
                    f"{path}: missing column(s): {', '.join(sorted(missing))}"
                )
            width = len(header)
            # an absent optional column reads the None appended to each row
            take = itemgetter(*(column.get(name, width) for name in (*required, *optional)))
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise InvalidInputError(
                        f"{path}:{reader.line_num}: {len(row)} field(s), "
                        f"the header has {width}"
                    )
                row.append(None)
                yield reader.line_num, take(row)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    except csv.Error as exc:
        raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from exc


def _parse_state(state) -> str:
    state = state.strip().lower()
    if state not in STATES:
        raise ValueError(f"unknown state {state!r}")
    return state


def read_field_csv(path) -> FieldState:
    """Parse a field CSV back into a FieldState (m/var_p columns are ignored).

    Every building needs exactly one row per state, and all its rows must
    agree on x, y and archetype.
    """
    state_index = {s: j for j, s in enumerate(STATES)}
    d = len(STATES)
    cells: dict = {}  # building id -> (geometry fields, geometry, mu, sigma2)
    for line, (bid, x, y, archetype, state, mu, sigma2) in _csv_rows(
        path, _FIELD_COLUMNS[:7]
    ):
        try:
            j = state_index.get(state)
            if j is None:
                j = state_index[_parse_state(state)]
            raw = (x, y, archetype)
            rec = cells.get(bid)
            if rec is None:
                geometry = (float(x), float(y), int(archetype))
                rec = cells[bid] = (raw, geometry, [None] * d, [None] * d)
            elif raw != rec[0] and (float(x), float(y), int(archetype)) != rec[1]:
                raise ValueError(
                    f"building {bid!r}: x, y, archetype {', '.join(raw)} differ "
                    f"from its first row's {', '.join(rec[0])}"
                )
            if rec[2][j] is not None:
                raise ValueError(f"second row for building {bid!r}, state {STATES[j]}")
            rec[2][j] = float(mu)
            rec[3][j] = float(sigma2)
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{line}: {exc}") from exc
    if not cells:
        raise InvalidInputError(f"{path}: no field rows")
    for bid, (_, _, mu, sigma2) in cells.items():
        if None in mu or None in sigma2:
            raise InvalidInputError(f"{path}: building {bid} missing a state row")
    geometry = [rec[1] for rec in cells.values()]
    try:
        return FieldState(
            ids=list(cells),
            x=np.array([g[0] for g in geometry]),
            y=np.array([g[1] for g in geometry]),
            archetype=np.array([g[2] for g in geometry]),
            mu=np.array([rec[2] for rec in cells.values()]),
            sigma2=np.array([rec[3] for rec in cells.values()]),
        )
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


# GeoJSON properties per state, besides building_id and archetype
_GEO_QUANTITIES = ("m", "var_p", "mu", "sigma2")
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(a) -> list:
    """json's spelling of every float of an array, in C order."""
    out = list(map(float.__repr__, np.ravel(a).tolist()))
    if not np.all(np.isfinite(a)):
        out = [_JSON_NONFINITE.get(v, v) for v in out]
    return out


def write_field_geojson(path, fs: FieldState, m, var_p) -> None:
    """RFC 7946 FeatureCollection of Points, one feature per building.

    Coordinates are planar meters, not lon/lat, which RFC 7946 reserves;
    the collection carries ``planar_coordinates: true`` as a foreign member
    to make that explicit.  The bytes are those of ``json.dump(doc, fh,
    indent=2, sort_keys=True)`` plus a newline; each feature is written
    from one template, so no document is built in memory.  ``m, var_p``
    are the probability moments, as for ``write_field_csv``.
    """
    keys = sorted(
        ["building_id", "archetype", *(f"{q}_{s}" for q in _GEO_QUANTITIES for s in STATES)]
    )
    feature = "\n".join(
        [
            "    {",
            '      "geometry": {',
            '        "coordinates": [',
            "          %s,",
            "          %s",
            "        ],",
            '        "type": "Point"',
            "      },",
            '      "properties": {',
            ",\n".join(f"        {encode_basestring_ascii(k)}: %s" for k in keys),
            "      },",
            '      "type": "Feature"',
            "    }",
        ]
    )
    with open(path, "w") as fh:
        fh.write('{\n  "features": [')
        sep = "\n"
        for b in _blocks(fs.n_buildings):
            props = {
                "building_id": list(map(encode_basestring_ascii, fs.ids[b])),
                "archetype": list(map(int.__repr__, fs.archetype[b].tolist())),
            }
            for q, values in zip(_GEO_QUANTITIES, (m, var_p, fs.mu, fs.sigma2)):
                for j, state in enumerate(STATES):
                    props[f"{q}_{state}"] = _json_floats(values[b, j])
            xs, ys = _json_floats(fs.x[b]), _json_floats(fs.y[b])
            rows = zip(xs, ys, *(props[k] for k in keys))
            fh.write(sep + ",\n".join([feature % row for row in rows]))
            sep = ",\n"
        if fs.n_buildings:
            fh.write("\n  ")
        fh.write('],\n  "planar_coordinates": true,\n  "type": "FeatureCollection"\n}\n')


def _write_csv(path, header, rows) -> None:
    """A CSV of ``header`` and ``rows``, each float spelled by ``fmt17``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt17(v) if isinstance(v, float) else v for v in row] for row in rows)


def _write_records(path, cls, records) -> None:
    """One column per field of the dataclass ``cls``, one row per record."""
    names = [f.name for f in fields(cls)]
    _write_csv(path, names, map(attrgetter(*names), records))


def write_metrics_csv(path, records) -> None:
    """Log-loss and variance summaries per experiment step: MetricsRecords."""
    _write_records(path, MetricsRecord, records)


def write_trajectory_csv(path, records) -> None:
    """GP hyperparameters and log marginal likelihood per experiment step."""
    _write_records(path, TrajectoryRecord, records)


def write_update_trajectory_csv(path, params, lml) -> None:
    """The one hyperparameter row of ``fragfield update --mode gp``."""
    header = [f.name for f in fields(params)] + ["log_marginal_likelihood"]
    _write_csv(path, header, [[*astuple(params), lml]])


def write_gp_field_csv(path, fs: FieldState, mean_p, var_p) -> None:
    """GP posterior probability summaries per cell (reporting layer).

    ``mean_p, var_p`` hold one value per cell of ``fs``, in its C order.
    """
    shape = (fs.n_buildings, fs.n_states)
    _write_cell_rows(
        path,
        ["building_id", "state", "m", "var_p"],
        fs.ids,
        [],
        [np.reshape(mean_p, shape), np.reshape(var_p, shape)],
    )


def read_inventory_csv(path) -> Inventory:
    """The inventory in CSV columns building_id, x, y, archetype; ids are unique."""
    first_line = {}  # building id -> line, in file order
    x, y, arch = [], [], []
    for line, (bid, xi, yi, ai) in _csv_rows(path, ("building_id", "x", "y", "archetype")):
        try:
            if bid in first_line:
                raise ValueError(
                    f"second row for building {bid!r} (first at line {first_line[bid]})"
                )
            xi, yi, ai = float(xi), float(yi), int(ai)
            if not (math.isfinite(xi) and math.isfinite(yi)):
                raise ValueError(f"building {bid}: coordinates must be finite")
            if not 1 <= ai <= 19:
                raise ValueError(f"building {bid}: archetype {ai} outside 1..19")
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{line}: {exc}") from exc
        first_line[bid] = line
        x.append(xi)
        y.append(yi)
        arch.append(ai)
    if not first_line:
        raise InvalidInputError(f"{path}: no inventory rows")
    return Inventory(list(first_line), np.array(x), np.array(y), np.array(arch))


def read_observations_csv(path):
    """Soft exceedance observations: building_id, state, y[, source].

    Returns a list of dicts with keys building_id, state, y, source; the
    source column defaults to "src1" when absent.
    """
    out = []
    for line, (bid, state, y, source) in _csv_rows(
        path, ("building_id", "state", "y"), ("source",)
    ):
        try:
            state = _parse_state(state)
            y = float(y)
            if not 0.0 <= y <= 1.0:
                raise ValueError(f"y={y} outside [0, 1]")
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{line}: {exc}") from exc
        out.append(
            {
                "building_id": bid,
                "state": state,
                "y": y,
                "source": "src1" if source is None else source,
            }
        )
    return out


def read_weights_csv(path):
    """Source reliability weights: state, weight[, source] -> {(source, state): w}."""
    out = {}
    for line, (state, weight, source) in _csv_rows(path, ("state", "weight"), ("source",)):
        try:
            key = ("src1" if source is None else source, _parse_state(state))
            w = float(weight)
            if w < 0 or not math.isfinite(w):
                raise ValueError(f"weight={w} must be finite and >= 0")
            if key in out:
                raise ValueError(f"second weight for source {key[0]!r}, state {key[1]}")
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{line}: {exc}") from exc
        out[key] = w
    if not out:
        raise InvalidInputError(f"{path}: no weight rows")
    return out


def load_config(path) -> dict:
    """Parse a JSON config document and check its schema version."""
    def parse_int(text):
        # a config integer must fit a float, like every other config number;
        # the length test comes first because int() refuses very long text
        if len(text.lstrip("-")) > 309 or abs(int(text)) > sys.float_info.max:
            raise ConfigError(f"{path}: integer {text[:12]}... is beyond float range")
        return int(text)

    try:
        with open(path) as fh:
            doc = json.load(fh, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1 in Python
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
