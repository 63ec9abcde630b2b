"""Tests for file formats and the command-line interface."""

import contextlib
import csv
import io
import json
import math
import os
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fragfield.cli import main, scenario_from_dict
from fragfield.errors import ConfigError, InvalidInputError
from fragfield.experiment import ObserverModel, ScenarioConfig, default_config
from fragfield.field_state import STATES, FieldState
from fragfield.gp_field import (
    EXACT_SOLVE_CAP,
    CompositeKernelParams,
    FieldPoints,
    log_marginal_likelihood,
)
from fragfield.hazard import TornadoTrack
from fragfield.io import (
    RunManifest,
    check_keys,
    fmt17,
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
)
from fragfield.probit_normal import pn_moments_vec


def _toy_field(n=3):
    rng = np.random.default_rng(5)
    return FieldState(
        ids=[f"b{k}" for k in range(n)],
        x=rng.uniform(0, 1000, n),
        y=rng.uniform(-500, 500, n),
        archetype=rng.integers(1, 20, n),
        mu=np.sort(rng.normal(-1, 1, (n, 3)), axis=1)[:, ::-1],
        sigma2=rng.uniform(0.1, 2.0, (n, 3)),
    )


class TestFmt17:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_round_trip_exact(self, x):
        assert float(fmt17(x)) == x

    def test_known(self):
        assert fmt17(0.1) == "0.10000000000000001"
        assert fmt17(1.0) == "1"


class TestFieldCsv:
    def test_write_read_round_trip(self, tmp_path):
        fs = _toy_field()
        path = tmp_path / "f.csv"
        write_field_csv(path, fs, *pn_moments_vec(fs.mu, fs.sigma2))
        back = read_field_csv(path)
        assert back.ids == fs.ids
        np.testing.assert_array_equal(back.mu, fs.mu)
        np.testing.assert_array_equal(back.sigma2, fs.sigma2)
        np.testing.assert_array_equal(back.x, fs.x)
        np.testing.assert_array_equal(back.archetype, fs.archetype)

    def test_rewrite_byte_identical(self, tmp_path):
        fs = _toy_field()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_field_csv(a, fs, *pn_moments_vec(fs.mu, fs.sigma2))
        back = read_field_csv(a)
        write_field_csv(b, back, *pn_moments_vec(back.mu, back.sigma2))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("building_id,x,y,state,mu\nb0,0,0,moderate,0\n")
        with pytest.raises(InvalidInputError, match="archetype"):
            read_field_csv(path)

    def test_missing_state_row(self, tmp_path):
        fs = _toy_field()
        path = tmp_path / "f.csv"
        write_field_csv(path, fs, *pn_moments_vec(fs.mu, fs.sigma2))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one state row
        with pytest.raises(InvalidInputError, match="missing a state"):
            read_field_csv(path)

    def test_bad_value_line_numbered(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "building_id,x,y,archetype,state,mu,sigma2\n"
            "b0,0,0,1,moderate,0,1\n"
            "b0,0,0,1,extensive,zzz,1\n"
        )
        with pytest.raises(InvalidInputError, match=r":3:"):
            read_field_csv(path)


class TestGeoJson:
    def test_structure(self, tmp_path):
        fs = _toy_field()
        path = tmp_path / "f.geojson"
        write_field_geojson(path, fs, *pn_moments_vec(fs.mu, fs.sigma2))
        doc = json.loads(path.read_text())
        assert doc["type"] == "FeatureCollection"
        assert doc["planar_coordinates"] is True
        assert len(doc["features"]) == 3
        for k, feat in enumerate(doc["features"]):
            assert feat["type"] == "Feature"
            assert feat["geometry"]["type"] == "Point"
            assert feat["geometry"]["coordinates"] == [fs.x[k], fs.y[k]]
            props = feat["properties"]
            assert props["building_id"] == fs.ids[k]
            for state in STATES:
                assert 0.0 <= props[f"m_{state}"] <= 1.0
                assert props[f"var_p_{state}"] >= 0.0


class TestReaders:
    def test_inventory(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text(
            "building_id,x,y,archetype\nb0,0,0,1\nb1,100,50,7\nb2,200,-50,19\n"
        )
        inv = read_inventory_csv(path)
        assert [b.id for b in inv] == ["b0", "b1", "b2"]
        assert inv[2].archetype == 19

    def test_inventory_missing_column(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("building_id,x,y\nb0,0,0\n")
        with pytest.raises(InvalidInputError, match="archetype"):
            read_inventory_csv(path)

    def test_inventory_bad_archetype_line(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("building_id,x,y,archetype\nb0,0,0,1\nb1,0,0,77\n")
        with pytest.raises(InvalidInputError, match=r":3:"):
            read_inventory_csv(path)

    def test_observations(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "building_id,state,y,source\nb0,moderate,0.9,cnn\nb0,complete,0.2,cnn\n"
        )
        obs = read_observations_csv(path)
        assert len(obs) == 2
        assert obs[0] == {
            "building_id": "b0",
            "state": "moderate",
            "y": 0.9,
            "source": "cnn",
        }

    def test_observations_default_source(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("building_id,state,y\nb0,moderate,1\n")
        assert read_observations_csv(path)[0]["source"] == "src1"

    def test_observations_bad_y(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("building_id,state,y\nb0,moderate,1.2\n")
        with pytest.raises(InvalidInputError, match=r":2:"):
            read_observations_csv(path)

    def test_weights(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("source,state,weight\ncnn,moderate,6.68\ncnn,complete,4.43\n")
        w = read_weights_csv(path)
        assert w[("cnn", "moderate")] == 6.68

    def test_weights_negative_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("state,weight\nmoderate,-1\n")
        with pytest.raises(InvalidInputError, match=r":2:"):
            read_weights_csv(path)

    def test_weights_second_row_for_pair_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("state,weight\nmoderate,2\ncomplete,1\nModerate,9\n")
        with pytest.raises(InvalidInputError, match=r"w\.csv:4: second weight"):
            read_weights_csv(path)
        # the same state from another source is a different pair
        path.write_text("source,state,weight\na,moderate,2\nb,moderate,9\n")
        assert read_weights_csv(path) == {("a", "moderate"): 2.0, ("b", "moderate"): 9.0}


class TestConfigLoading:
    def test_version_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_version_true_is_not_1(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": True}))
        with pytest.raises(ConfigError, match="schema_version must be 1, got True"):
            load_config(path)

    def test_integer_longer_than_int_parses_is_config_error(self, tmp_path):
        # int() refuses more than 4,300 digits with a ValueError
        path = tmp_path / "c.json"
        path.write_text('{"schema_version": 1, "seed": -1' + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match="beyond float range"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_unknown_key_path(self):
        with pytest.raises(ConfigError, match=r"observer\.typo"):
            check_keys({"typo": 1}, {"class_error"}, path="observer")

    def test_scenario_from_dict_defaults(self):
        doc = {"schema_version": 1}
        assert scenario_from_dict(doc) == default_config()

    def test_scenario_rejects_unknown(self):
        with pytest.raises(ConfigError, match="n_bildings"):
            scenario_from_dict({"schema_version": 1, "n_bildings": 3})

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"observer": {"typo": 1}}, "observer.typo"),
            ({"gp_budgets": {"gp_cold_restarts": 1}}, "gp_budgets.gp_cold_restarts"),
            ({"true_track": {"v_cor": 1}}, "true_track.v_cor"),
        ],
    )
    def test_unknown_key_named_by_its_path(self, doc, where):
        with pytest.raises(ConfigError, match=rf"unknown config key\(s\): {where}$"):
            scenario_from_dict({"schema_version": 1, **doc})

    def test_shipped_default_config_in_sync(self):
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.path.join(here, "..", "configs", "default_experiment.json")
        with open(path) as fh:
            doc = json.load(fh)
        assert scenario_from_dict(doc) == default_config()
        # the file shows every key the parser accepts, with its default
        scenario = [f.name for f in fields(ScenarioConfig)]
        top = {name for name in scenario if not name.startswith("gp_")}
        assert set(doc) == top | {"schema_version", "gp_budgets"}
        assert set(doc["observer"]) == {f.name for f in fields(ObserverModel)}
        budgets = {name[3:] for name in scenario if name.startswith("gp_")}
        assert set(doc["gp_budgets"]) == budgets
        assert set(doc["true_track"]) == {f.name for f in fields(TornadoTrack)}


class TestManifest:
    def test_digests_recorded(self, tmp_path):
        payload = tmp_path / "x.bin"
        payload.write_bytes(b"abc123")
        manifest = RunManifest(config_sha256="00", seed=1, artifact_version="0.1.0")
        manifest.add_file(payload, tmp_path)
        out = tmp_path / "manifest.json"
        write_manifest(out, manifest)
        doc = json.loads(out.read_text())
        assert doc["files"] == [
            {"path": "x.bin", "sha256": sha256_file(payload)}
        ]
        assert doc["seed"] == 1


# ---------------------------------------------------------------- byte-stable writers
#
# The field writers format whole columns at once and stream a GeoJSON
# template; the per-row writers below are the straightforward versions they
# replaced, kept as the reference their bytes must match.


def _ref_write_field_csv(path, fs):
    m, var_p = pn_moments_vec(fs.mu, fs.sigma2)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["building_id", "x", "y", "archetype", "state", "mu", "sigma2", "m", "var_p"]
        )
        for i, bid in enumerate(fs.ids):
            for j, state in enumerate(STATES):
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


def _ref_write_field_geojson(path, fs):
    m, var_p = pn_moments_vec(fs.mu, fs.sigma2)
    features = []
    for i, bid in enumerate(fs.ids):
        props = {"building_id": bid, "archetype": int(fs.archetype[i])}
        for j, state in enumerate(STATES):
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
    doc = {"type": "FeatureCollection", "planar_coordinates": True, "features": features}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ref_write_gp_field_csv(path, fs, gp):
    mean_p, var_p = gp
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["building_id", "state", "m", "var_p"])
        for i, bid in enumerate(fs.ids):
            for j, state in enumerate(STATES):
                writer.writerow([bid, state, fmt17(mean_p[i, j]), fmt17(var_p[i, j])])


# ids a CSV writer must quote (a comma, a quote), a backslash that JSON
# escapes, non-ASCII text, and padding that a reader must keep
_AWKWARD_IDS = ["a,b", 'say "hi"', "back\\slash", "Zürich-7 ☂", "  padded  "]


# each byte case is a field and the GP summaries (mean_p, var_p) of its cells


def _with_gp(fs):
    rng = np.random.default_rng(9)
    return fs, (rng.uniform(0, 1, fs.mu.shape), rng.uniform(0, 0.25, fs.mu.shape))


def _awkward_field():
    fs, (mean_p, var_p) = _with_gp(_toy_field(len(_AWKWARD_IDS)))
    fs.ids = list(_AWKWARD_IDS)
    fs.x[:3] = [-0.0, 1e308, 5e-324]
    fs.y[:3] = [0.1, -0.0, -1e308]
    fs.mu[0] = [0.1, 0.0, -0.1]
    fs.mu[1] = [-0.0, -0.0, -0.0]
    fs.sigma2[2] = [5e-324, 0.0, 1e308]
    mean_p[0] = [0.1, 5e-324, -0.0]
    var_p[0] = [1e308, 0.0, 0.1]
    return fs, (mean_p, var_p)


def _one_building_field():
    return _with_gp(_toy_field(1))


def _empty_field():
    empty = np.zeros((0, len(STATES)))
    fs = FieldState(ids=[], x=[], y=[], archetype=[], mu=empty, sigma2=empty)
    return fs, (empty, empty)


def _non_finite_geometry_field():
    # FieldState checks finiteness when it is built, not when a caller
    # assigns to its arrays later; json spells these NaN and Infinity
    fs, gp = _one_building_field()
    fs.x[0] = math.nan
    fs.y[0] = -math.inf
    return fs, gp


_BYTE_CASES = {
    "awkward": _awkward_field,
    "one_building": _one_building_field,
    "toy": lambda: _with_gp(_toy_field(40)),
    "empty": _empty_field,
    "non_finite_xy": _non_finite_geometry_field,
}


class TestWritersByteIdentical:
    @pytest.mark.parametrize("case", sorted(_BYTE_CASES))
    @pytest.mark.parametrize(
        "write, reference",
        [
            (
                lambda path, fs, gp: write_field_csv(
                    path, fs, *pn_moments_vec(fs.mu, fs.sigma2)
                ),
                lambda path, fs, gp: _ref_write_field_csv(path, fs),
            ),
            (
                lambda path, fs, gp: write_field_geojson(
                    path, fs, *pn_moments_vec(fs.mu, fs.sigma2)
                ),
                lambda path, fs, gp: _ref_write_field_geojson(path, fs),
            ),
            (
                lambda path, fs, gp: write_gp_field_csv(path, fs, *gp),
                _ref_write_gp_field_csv,
            ),
        ],
        ids=["field_csv", "field_geojson", "gp_field_csv"],
    )
    def test_same_bytes_as_reference(self, tmp_path, case, write, reference):
        fs, gp = _BYTE_CASES[case]()
        write(tmp_path / "new", fs, gp)
        reference(tmp_path / "ref", fs, gp)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()

    def test_geojson_parses_back(self, tmp_path):
        fs, _ = _awkward_field()
        write_field_geojson(tmp_path / "f.geojson", fs, *pn_moments_vec(fs.mu, fs.sigma2))
        doc = json.loads((tmp_path / "f.geojson").read_text())
        assert [f["properties"]["building_id"] for f in doc["features"]] == _AWKWARD_IDS
        assert doc["features"][1]["geometry"]["coordinates"] == [1e308, -0.0]

    @pytest.mark.parametrize("case", ["awkward", "one_building"])
    def test_field_csv_round_trip_exact(self, tmp_path, case):
        fs, _ = _BYTE_CASES[case]()
        path = tmp_path / "f.csv"
        write_field_csv(path, fs, *pn_moments_vec(fs.mu, fs.sigma2))
        back = read_field_csv(path)
        assert back.ids == fs.ids
        for name in ("x", "y", "archetype", "mu", "sigma2"):
            # tobytes also tells -0.0 from 0.0
            assert getattr(back, name).tobytes() == getattr(fs, name).tobytes(), name


# ---------------------------------------------------------------- CLI fixtures


def _write_inventory(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["building_id", "x", "y", "archetype"])
        writer.writerows(rows)


def _prior_config(tmp_path, *, width=1600.0, extra=None, inventory_rows=None):
    inv = tmp_path / "inventory.csv"
    rows = inventory_rows or [
        ["b0", 5000.0, 100.0, 1],
        ["b1", 5000.0, 1200.0, 7],
        ["b2", 9000.0, -2000.0, 12],
    ]
    _write_inventory(inv, rows)
    doc = {
        "schema_version": 1,
        "inventory": "inventory.csv",
        "track": {
            "centerline": [[0.0, 0.0], [10000.0, 0.0]],
            "width_total": width,
        },
    }
    if extra:
        doc.update(extra)
    cfg = tmp_path / "prior.json"
    cfg.write_text(json.dumps(doc))
    return cfg


class TestCmdPrior:
    def test_three_building_fixture(self, tmp_path):
        cfg = _prior_config(tmp_path)
        out = tmp_path / "out"
        assert main(["prior", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "field.csv")))
        assert len(rows) == 9  # 3 buildings x 3 states
        assert (out / "field.geojson").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert {f["path"] for f in manifest["files"]} == {"field.csv", "field.geojson"}

    def test_zero_width_all_m_small(self, tmp_path):
        cfg = _prior_config(
            tmp_path, width=0.0, extra={"eps_hazard": 0.0, "eps_capacity": 0.0}
        )
        out = tmp_path / "out"
        assert main(["prior", "--config", str(cfg), "--out", str(out)]) == 0
        for row in csv.DictReader(open(out / "field.csv")):
            assert float(row["m"]) < 0.01

    def test_missing_archetype_column_exit_2(self, tmp_path, capsys):
        inv = tmp_path / "inventory.csv"
        inv.write_text("building_id,x,y\nb0,0,0\n")
        doc = {
            "schema_version": 1,
            "inventory": "inventory.csv",
            "track": {"centerline": [[0, 0], [1, 0]], "width_total": 100.0},
        }
        cfg = tmp_path / "prior.json"
        cfg.write_text(json.dumps(doc))
        code = main(["prior", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "archetype" in capsys.readouterr().err

    def test_dry_run_writes_nothing(self, tmp_path):
        cfg = _prior_config(tmp_path)
        out = tmp_path / "out"
        assert main(["prior", "--config", str(cfg), "--out", str(out), "--dry-run"]) == 0
        assert not out.exists()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = _prior_config(tmp_path, extra={"wat": 1})
        code = main(["prior", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "wat" in capsys.readouterr().err

    def test_duplicate_building_id_exit_2(self, tmp_path, capsys):
        rows = [["b0", 5000.0, 100.0, 1], ["b1", 5000.0, 1200.0, 7], ["b1", 10.0, 0.0, 2]]
        cfg = _prior_config(tmp_path, inventory_rows=rows)
        out = tmp_path / "out"
        for dry in (["--dry-run"], []):
            assert main(["prior", "--config", str(cfg), "--out", str(out)] + dry) == 2
            err = capsys.readouterr().err
            assert "inventory.csv:4: second row for building 'b1'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("eps_hazard", "abc"),
            ("eps_capacity", [1]),
            ("clip_bound", "x"),
            ("wind_floor", "a"),
            ("separation", None),
            ("eps_hazard", True),
            ("clip_bound", float("nan")),
            ("wind_floor", float("inf")),
        ],
    )
    def test_config_type_error_exit_2(self, tmp_path, capsys, key, value):
        cfg = _prior_config(tmp_path, extra={key: value})
        out = tmp_path / "out"
        for dry in (["--dry-run"], []):
            assert main(["prior", "--config", str(cfg), "--out", str(out)] + dry) == 2
            assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"width_total": True}, "width_total must be a finite number >= 0, got True"),
            ({"width_total": "800"}, "width_total must be a finite number >= 0, got '800'"),
            ({"centerline": [[True, 0], [200, False]]}, "centerline[0] coordinate must be"),
            ({"centerline": [[1, 2, 3], [4, 5, 6]]}, "centerline must be at least two [x, y]"),
        ],
        ids=["width_bool", "width_str", "centerline_bool", "centerline_3d"],
    )
    def test_bad_track_exit_2(self, tmp_path, capsys, change, message):
        cfg = _prior_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["track"].update(change)
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for dry in (["--dry-run"], []):
            assert main(["prior", "--config", str(cfg), "--out", str(out)] + dry) == 2
            assert f"track: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("eps_capacity", 1e308), ("eps_hazard", 1e200)])
    def test_spread_overflow_exit_2(self, tmp_path, capsys, key, value):
        rows = [["b0", 5000.0, 100.0, 1], ["b1", 5000.0, 1200.0, 7]]
        cfg = _prior_config(tmp_path, extra={key: value}, inventory_rows=rows)
        out = tmp_path / "out"
        for dry in (["--dry-run"], []):
            assert main(["prior", "--config", str(cfg), "--out", str(out)] + dry) == 2
            assert "latent variance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("eps_hazard", -0.1), ("eps_capacity", -1)])
    def test_negative_spread_exit_2_names_key(self, tmp_path, capsys, key, value):
        cfg = _prior_config(tmp_path, extra={key: value})
        out = tmp_path / "out"
        for dry in (["--dry-run"], []):
            assert main(["prior", "--config", str(cfg), "--out", str(out)] + dry) == 2
            assert f"{key} must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("median", ["0", "-5", "inf", "nan"])
    def test_bad_table_median_exit_2(self, tmp_path, capsys, median):
        table = tmp_path / "table.csv"
        table.write_text(
            "archetype,state,median_mps,dispersion\n"
            + "".join(f"{a},{s},{40 + 10 * j},0.2\n" for a in (1, 12)
                      for j, s in enumerate(STATES))
            + f"7,moderate,{median},0.2\n7,extensive,50,0.2\n7,complete,60,0.2\n"
        )
        cfg = _prior_config(tmp_path, extra={"table": "table.csv"})
        out = tmp_path / "out"
        for dry in (["--dry-run"], []):
            assert main(["prior", "--config", str(cfg), "--out", str(out)] + dry) == 2
            assert "archetype 7: medians must be finite numbers > 0" in (
                capsys.readouterr().err
            )
        assert not out.exists()

    def test_missing_inventory_file_exit_2(self, tmp_path):
        doc = {
            "schema_version": 1,
            "inventory": "nope.csv",
            "track": {"centerline": [[0, 0], [1, 0]], "width_total": 100.0},
        }
        cfg = tmp_path / "prior.json"
        cfg.write_text(json.dumps(doc))
        assert main(["prior", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("value", [5, ["a"], None], ids=["number", "list", "null"])
@pytest.mark.parametrize(
    "command, key",
    [
        ("prior", "inventory"),
        ("prior", "table"),
        ("update", "field"),
        ("update", "observations"),
        ("update", "weights"),
    ],
)
def test_path_key_not_a_string_exit_2(tmp_path, capsys, command, key, value):
    """A file key that is not a string exits 2 naming the key, in --dry-run too."""
    if command == "prior":
        cfg = _prior_config(tmp_path, extra={key: value})
    else:
        cfg, _ = _update_fixture(tmp_path, obs_rows=[], extra={key: value})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--dry-run"]) == 2
    assert f"error: {key} must be a path string, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def _update_fixture(
    tmp_path, *, obs_rows, weight_rows=None, mode="local", field=None, extra=None
):
    field_csv = tmp_path / "field_in.csv"
    field = field if field is not None else _toy_field()
    write_field_csv(field_csv, field, *pn_moments_vec(field.mu, field.sigma2))
    obs = tmp_path / "obs.csv"
    with open(obs, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["building_id", "state", "y"])
        writer.writerows(obs_rows)
    weights = tmp_path / "weights.csv"
    with open(weights, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "weight"])
        writer.writerows(weight_rows or [[s, 1.0] for s in STATES])
    doc = {
        "schema_version": 1,
        "field": "field_in.csv",
        "observations": "obs.csv",
        "weights": "weights.csv",
        "mode": mode,
        **(extra or {}),
    }
    cfg = tmp_path / "update.json"
    cfg.write_text(json.dumps(doc))
    return cfg, field_csv


class TestCmdUpdate:
    def test_empty_observations_identity(self, tmp_path):
        cfg, field_in = _update_fixture(tmp_path, obs_rows=[])
        out = tmp_path / "out"
        assert main(["update", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "field.csv").read_bytes() == field_in.read_bytes()

    def test_single_unit_observation_two_thirds(self, tmp_path):
        fs = _toy_field()
        fs.mu[0, 0] = 0.0
        fs.sigma2[0, 0] = 1.0
        cfg, _ = _update_fixture(
            tmp_path, obs_rows=[["b0", "moderate", 1.0]], field=fs
        )
        out = tmp_path / "out"
        assert main(["update", "--config", str(cfg), "--out", str(out)]) == 0
        rows = {
            (r["building_id"], r["state"]): r
            for r in csv.DictReader(open(out / "field.csv"))
        }
        m = float(rows[("b0", "moderate")]["m"])
        assert m == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_id_mismatch_lists_first_ten(self, tmp_path, capsys):
        obs_rows = [[f"ghost{k}", "moderate", 0.5] for k in range(12)]
        cfg, _ = _update_fixture(tmp_path, obs_rows=obs_rows)
        code = main(["update", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        for k in range(10):
            assert f"ghost{k}" in err
        assert "ghost10" not in err
        assert "12" in err

    def test_gp_mode_outputs(self, tmp_path):
        cfg, _ = _update_fixture(
            tmp_path, obs_rows=[["b0", "moderate", 1.0]], mode="gp"
        )
        out = tmp_path / "out"
        assert main(["update", "--config", str(cfg), "--out", str(out)]) == 0
        gp_rows = list(csv.DictReader(open(out / "gp_field.csv")))
        assert len(gp_rows) == 9
        assert all(float(r["var_p"]) > 0 for r in gp_rows)
        traj = list(csv.DictReader(open(out / "trajectory.csv")))
        assert len(traj) == 1
        lml = float(traj[0].pop("log_marginal_likelihood"))
        assert math.isfinite(lml)
        # the reported LML is the one of the written hyperparameters on the
        # written field
        params = CompositeKernelParams(**{k: float(v) for k, v in traj[0].items()})
        pts = FieldPoints.from_field_state(read_field_csv(out / "field.csv"))
        assert lml == pytest.approx(log_marginal_likelihood(pts, params), abs=1e-9)

    @pytest.mark.parametrize(
        "extra, n_buildings, message",
        [
            ({"gp_restarts": "abc"}, 3, "gp_restarts"),
            ({"gp_restarts": 0}, 3, "gp_restarts"),
            ({"gp_restarts": True}, 3, "gp_restarts"),
            ({"gp_max_iter": 2.5}, 3, "gp_max_iter"),
            ({"gp_max_iter": "100"}, 3, "gp_max_iter"),
            ({}, EXACT_SOLVE_CAP // 3 + 1, f"at most {EXACT_SOLVE_CAP // 3} buildings"),
        ],
        ids=["restarts_str", "restarts_0", "restarts_bool", "iter_float", "iter_str",
             "above_exact_cap"],
    )
    def test_gp_contract_exit_2_before_writing(
        self, tmp_path, capsys, extra, n_buildings, message
    ):
        cfg, _ = _update_fixture(
            tmp_path,
            obs_rows=[["b0", "moderate", 1.0]],
            mode="gp",
            field=_toy_field(n_buildings),
            extra=extra,
        )
        out = tmp_path / "out"
        for dry in (["--dry-run"], []):
            assert main(["update", "--config", str(cfg), "--out", str(out)] + dry) == 2
            err = capsys.readouterr().err
            assert message in err
            assert "sparse_variational_posterior" not in err
        assert not out.exists()

    @pytest.mark.parametrize("column, value", [("mu", "nan"), ("sigma2", "inf")])
    def test_nonfinite_field_cell_exit_2(self, tmp_path, capsys, column, value):
        cfg, field_in = _update_fixture(tmp_path, obs_rows=[["b0", "moderate", 1.0]])
        with open(field_in, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # a cell that no observation touches
        rows[-1][column] = value
        with open(field_in, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "out"
        assert main(["update", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{column} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_weight_pair_exit_2(self, tmp_path, capsys):
        cfg, _ = _update_fixture(
            tmp_path,
            obs_rows=[["b0", "complete", 1.0]],
            weight_rows=[["moderate", 1.0]],
        )
        assert main(["update", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "complete" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weight_rows, line",
        [
            ([["moderate", 2.0], ["extensive", 1.0], ["moderate", 9.0]], 4),
            ([["moderate", "nan"], ["extensive", 1.0]], 2),
            ([["extensive", 1.0], ["complete", "inf"]], 3),
        ],
        ids=["second_row", "nan_unused", "inf_unused"],
    )
    def test_bad_weights_row_exit_2(self, tmp_path, capsys, weight_rows, line):
        cfg, _ = _update_fixture(
            tmp_path, obs_rows=[["b0", "extensive", 1.0]], weight_rows=weight_rows
        )
        out = tmp_path / "out"
        for dry in (["--dry-run"], []):
            assert main(["update", "--config", str(cfg), "--out", str(out)] + dry) == 2
            assert f"weights.csv:{line}: " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_mode_exit_2(self, tmp_path):
        cfg, _ = _update_fixture(tmp_path, obs_rows=[], mode="telepathy")
        assert main(["update", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_dry_run_writes_nothing(self, tmp_path):
        cfg, _ = _update_fixture(tmp_path, obs_rows=[["b0", "moderate", 1.0]])
        out = tmp_path / "out"
        code = main(["update", "--config", str(cfg), "--out", str(out), "--dry-run"])
        assert code == 0
        assert not out.exists()


# ---------------------------------------------------------------- malformed input
#
# Every bad input file exits 2 with "error: <file>..." on stderr, in a
# dry run and in a real one, and leaves no output directory behind.


def _cut_to_first_field(path):
    """Cut the first data row down to its first field."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].split(b",")[0] + b"\n"
    path.write_bytes(b"".join(lines))


def _insert_non_utf8(path):
    """Put a byte that is not UTF-8 into the first data row (or the JSON)."""
    data = path.read_bytes()
    at = data.index(b"\n") + 2 if path.suffix == ".csv" else 1
    path.write_bytes(data[:at] + b"\xff" + data[at:])


def _oversized_field(path):
    """A row whose first field is longer than the csv module's field limit."""
    with open(path, "a") as fh:
        fh.write("x" * (csv.field_size_limit() + 1) + "\n")


_FAULTS = {
    "short_row": (_cut_to_first_field, ":2: 1 field(s)"),
    "non_utf8": (_insert_non_utf8, "not utf-8 text"),
    "oversized_field": (_oversized_field, "field larger than field limit"),
}


def _prior_fixture_with_table(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(
        "archetype,state,median_mps,dispersion\n"
        + "".join(f"{a},{s},{40 + 10 * j},0.2\n" for a in (1, 7, 12)
                  for j, s in enumerate(STATES))
    )
    return _prior_config(tmp_path, extra={"table": "table.csv"})


def _update_with_one_observation(tmp_path):
    return _update_fixture(tmp_path, obs_rows=[["b0", "moderate", 1.0]])[0]


_TARGETS = {
    # name: (command, fixture -> config path, file to corrupt)
    "field": ("update", _update_with_one_observation, "field_in.csv"),
    "observations": ("update", _update_with_one_observation, "obs.csv"),
    "weights": ("update", _update_with_one_observation, "weights.csv"),
    "update_config": ("update", _update_with_one_observation, "update.json"),
    "inventory": ("prior", _prior_config, "inventory.csv"),
    "table": ("prior", _prior_fixture_with_table, "table.csv"),
    "prior_config": ("prior", _prior_config, "prior.json"),
}

_FAULT_CASES = [
    (target, fault)
    for target in _TARGETS
    for fault in _FAULTS
    if not (target.endswith("config") and fault != "non_utf8")
]


class TestMalformedInputExit2:
    @pytest.mark.parametrize(
        "target, fault", _FAULT_CASES, ids=[f"{t}-{f}" for t, f in _FAULT_CASES]
    )
    def test_exit_2_without_output(self, tmp_path, capsys, target, fault):
        command, fixture, name = _TARGETS[target]
        cfg = fixture(tmp_path)
        corrupt, message = _FAULTS[fault]
        corrupt(tmp_path / name)
        out = tmp_path / "out"
        for dry in (["--dry-run"], []):
            assert main([command, "--config", str(cfg), "--out", str(out)] + dry) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {tmp_path / name}"), err
            assert message in err
        assert not out.exists()

    def test_load_config_non_utf8_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"schema_version": 1, "mode": "loc\xffal"}')
        with pytest.raises(ConfigError, match="not utf-8 text"):
            load_config(path)


def _edit_field_row(path, line, **changes):
    """Rewrite one data row of a field CSV (``line`` counts the header as 1)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[line - 2].update(changes)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


class TestFieldRowsAgree:
    def _run_both(self, cfg, out, capsys):
        errs = []
        for dry in (["--dry-run"], []):
            assert main(["update", "--config", str(cfg), "--out", str(out)] + dry) == 2
            errs.append(capsys.readouterr().err)
        assert not out.exists()
        return errs

    def test_duplicate_state_row_exit_2(self, tmp_path, capsys):
        cfg, field_in = _update_fixture(tmp_path, obs_rows=[["b1", "moderate", 1.0]])
        with open(field_in, newline="") as fh:
            rows = list(csv.reader(fh))
        dup = list(rows[1])  # b0, moderate
        dup[5] = "9.5"
        with open(field_in, "a", newline="") as fh:
            csv.writer(fh).writerow(dup)
        for err in self._run_both(cfg, tmp_path / "out", capsys):
            assert f"field_in.csv:{len(rows) + 1}: second row for building 'b0'" in err

    @pytest.mark.parametrize(
        "column, value", [("x", "1.5"), ("y", "-2"), ("archetype", "3")]
    )
    def test_geometry_differs_between_rows_exit_2(
        self, tmp_path, capsys, column, value
    ):
        cfg, field_in = _update_fixture(tmp_path, obs_rows=[["b0", "moderate", 1.0]])
        _edit_field_row(field_in, 6, **{column: value})  # b1, extensive
        for err in self._run_both(cfg, tmp_path / "out", capsys):
            assert "field_in.csv:6: building 'b1'" in err
            assert "differ from its first row" in err

    def test_geometry_spelled_differently_same_value_accepted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "building_id,x,y,archetype,state,mu,sigma2\n"
            "b0,5,-0.5,3,moderate,0,1\n"
            "b0,5.0,-5e-1,03,extensive,-1,1\n"
            "b0,5e0,-0.50,3,complete,-2,1\n"
        )
        fs = read_field_csv(path)
        assert (fs.x[0], fs.y[0], fs.archetype[0]) == (5.0, -0.5, 3)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(["field_in.csv", "obs.csv"]),
    insert=st.booleans(),
    byte=st.integers(0, 255),
    data=st.data(),
)
def test_update_dry_run_contract_fuzz(tmp_path, name, insert, byte, data):
    """A cut or one stray byte in an input: exit 0 or 2, never a traceback."""
    cfg, _ = _update_fixture(
        tmp_path, obs_rows=[["b0", "moderate", 0.9], ["b2", "complete", 0.1]]
    )
    path = tmp_path / name
    raw = path.read_bytes()
    at = data.draw(st.integers(0, len(raw)), label="at")
    path.write_bytes(raw[:at] + bytes([byte]) + raw[at:] if insert else raw[:at])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["update", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--dry-run"])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")
    assert not (tmp_path / "o").exists()


def _experiment_config(tmp_path, seed=7):
    doc = {
        "schema_version": 1,
        "n_buildings": 40,
        "n_batches": 2,
        "prior_widths": [0.0],
        "strategies": ["random"],
        "modes": ["local-only"],
        "seed": seed,
        "observer": {"calibration_size": 30},
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    return cfg


class TestCmdExperiment:
    def test_metrics_row_count_and_manifest(self, tmp_path):
        cfg = _experiment_config(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        # (n_batches + 2) steps x 1 width x 1 strategy x 1 mode x 2 subsets x 3 states
        assert len(rows) == 4 * 2 * 3
        manifest = json.loads((out / "manifest.json").read_text())
        paths = {f["path"] for f in manifest["files"]}
        assert "metrics.csv" in paths
        assert os.path.join("fields", "w0_random_local-only.csv") in paths
        for f in manifest["files"]:
            assert sha256_file(out / f["path"]) == f["sha256"]

    def test_same_seed_byte_identical_metrics(self, tmp_path):
        cfg = _experiment_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_seed_change_changes_metrics(self, tmp_path):
        cfg = _experiment_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
        assert (
            main(
                ["experiment", "--config", str(cfg), "--out", str(out2), "--seed", "8"]
            )
            == 0
        )
        assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()

    def test_dry_run(self, tmp_path):
        cfg = _experiment_config(tmp_path)
        out = tmp_path / "out"
        code = main(["experiment", "--config", str(cfg), "--out", str(out), "--dry-run"])
        assert code == 0
        assert not out.exists()

    def test_schema_violation_names_field(self, tmp_path, capsys):
        doc = {"schema_version": 1, "observer": {"class_mistake": 0.5}}
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "observer.class_mistake" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [
            {"observer": {"class_error": "x"}},
            {"n_buildings": "500"},
            {"n_buildings": 2.5},
            {"prior_widths": 5},
            {"prior_widths": ["wide"]},
            {"prior_widths": [float("nan")]},
            {"gp_budgets": {"warm_xatol": "x"}},
            {"gp_budgets": {"cold_max_iter": 2.5}},
            {"observer": {"w_max": "x"}},
            {"observer": {"w_max": -1}},
            {"observer": {"w_max": 0}},
            {"observer": {"w_max": True}},
            {"observer": {"w_max": float("inf")}},
            {"observer": {"calibration_size": 2.5}},
            {"observer": {"calibration_size": True}},
            {"observer": {"class_error": True}},
            {"observer": {"concentration": True}},
            {"observer": {"spread": True}},
            {"observer": {"concentration": float("nan")}},
            {"observer": {"concentration": float("inf")}},
            {"observer": {"class_error": float("nan")}},
            {"observer": {"spread": float("nan")}},
            {"seed": -1},
            {"gp_budgets": {"cold_max_iter": 0}},
            {"gp_budgets": {"cold_max_iter": -5}},
            {"gp_budgets": {"cold_restarts": -3}},
            {"gp_budgets": {"warm_xatol": float("nan")}},
            {"gp_budgets": {"warm_xatol": float("inf")}},
            {"gp_budgets": {"warm_tol": -1}},
            {"region": [[float("nan"), 10000.0], [-2500.0, 2500.0]]},
            {"prior_widths": [True]},
            {"prior_widths": ["800"]},
            {"region": [[True, "10000"], [-2500, 2500]]},
            {"true_track": {"centerline": [[0, 0], [float("nan"), 0]], "width_total": 1600}},
            {"true_track": {"centerline": [[0, 0]], "width_total": 1600}},
            {"prior_widths": [800, 800]},
            {"modes": []},
            {"strategies": "random"},
        ],
        ids=[
            "class_error",
            "n_str",
            "n_float",
            "widths_scalar",
            "widths_str",
            "widths_nan",
            "xatol_str",
            "max_iter_float",
            "w_max_str",
            "w_max_negative",
            "w_max_zero",
            "w_max_bool",
            "w_max_inf",
            "calibration_size_float",
            "calibration_size_bool",
            "class_error_bool",
            "concentration_bool",
            "spread_bool",
            "concentration_nan",
            "concentration_inf",
            "class_error_nan",
            "spread_nan",
            "seed_negative",
            "cold_max_iter_zero",
            "cold_max_iter_negative",
            "cold_restarts_negative",
            "warm_xatol_nan",
            "warm_xatol_inf",
            "warm_tol_negative",
            "region_nan",
            "widths_bool",
            "widths_numeric_str",
            "region_bool_str",
            "true_track_nan",
            "true_track_one_point",
            "widths_repeated",
            "modes_empty",
            "strategies_str",
        ],
    )
    def test_config_type_error_exit_2(self, tmp_path, change):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"schema_version": 1, **change}))
        for extra in (["--dry-run"], []):
            argv = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]
            assert main(argv + extra) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("axis", ["strategies", "modes"])
    @pytest.mark.parametrize("entry", [["random"], {"a": 1}], ids=["list", "object"])
    def test_sweep_axis_entry_not_a_name_exit_2(self, tmp_path, capsys, axis, entry):
        """A list or object on a sweep axis is an unknown value of that axis."""
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"schema_version": 1, axis: [entry]}))
        argv = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv + ["--dry-run"]) == 2
        assert f"error: unknown {axis} [{entry!r}]" in capsys.readouterr().err

    def test_local_only_trajectory_is_its_header(self, tmp_path):
        """No GP fit, no trajectory rows: trajectory.csv still names its columns."""
        cfg = _experiment_config(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").read_bytes() == (
            b"mode,strategy,prior_width_m,step,sigma2_global,ell1,ell2,rho_a,"
            b"alpha_local,tau,log_marginal_likelihood\r\n"
        )

    def test_dry_run_rejects_more_batches_than_observed(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        doc = {"schema_version": 1, "n_buildings": 20, "n_batches": 50}
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        argv = ["experiment", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--dry-run"]) == 2
        assert "more batches than observed buildings" in capsys.readouterr().err
        assert main(argv) == 2
        assert not out.exists()


@pytest.mark.parametrize("command", ["prior", "update", "experiment"])
def test_negative_seed_exit_2(tmp_path, capsys, command):
    """A negative --seed exits 2 on every command, before anything is written."""
    if command == "prior":
        cfg = _prior_config(tmp_path)
    elif command == "update":
        obs_rows = [["b0", "moderate", 1.0]]
        cfg, _ = _update_fixture(tmp_path, obs_rows=obs_rows, mode="gp")
    else:
        cfg = _experiment_config(tmp_path)
    out = tmp_path / "out"
    for dry in (["--dry-run"], []):
        argv = [command, "--config", str(cfg), "--out", str(out), "--seed", "-1"]
        assert main(argv + dry) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, path",
    [
        ("prior", ["eps_hazard"]),
        ("prior", ["track", "width_total"]),
        ("update", ["gp_max_iter"]),
        ("experiment", ["observer", "spread"]),
        ("experiment", ["region", 0, 1]),
    ],
    ids=["prior_eps_hazard", "prior_width", "update_max_iter", "experiment_spread",
         "experiment_region"],
)
def test_integer_beyond_float_range_exit_2(tmp_path, capsys, command, path):
    """A JSON integer no float can hold exits 2 naming the config file."""
    if command == "prior":
        cfg = _prior_config(tmp_path)
    elif command == "update":
        cfg, _ = _update_fixture(tmp_path, obs_rows=[["b0", "moderate", 1.0]])
    else:
        cfg = _experiment_config(tmp_path)
    doc = json.loads(cfg.read_text())
    if path[0] == "region":
        doc["region"] = [[0, 10000], [-2500, 2500]]
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = 10**400
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for dry in (["--dry-run"], []):
        assert main([command, "--config", str(cfg), "--out", str(out)] + dry) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "beyond float range" in err
    assert not out.exists()
