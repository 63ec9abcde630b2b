"""Tests for file formats and the command-line interface."""

import csv
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragfield.cli import main, scenario_from_dict
from fragfield.errors import ConfigError, InvalidInputError
from fragfield.experiment import default_config
from fragfield.field_state import STATES, FieldState
from fragfield.gp_field import (
    EXACT_SOLVE_CAP,
    CompositeKernelParams,
    FieldPoints,
    log_marginal_likelihood,
)
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
    write_manifest,
)


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
        write_field_csv(path, fs)
        back = read_field_csv(path)
        assert back.ids == fs.ids
        np.testing.assert_array_equal(back.mu, fs.mu)
        np.testing.assert_array_equal(back.sigma2, fs.sigma2)
        np.testing.assert_array_equal(back.x, fs.x)
        np.testing.assert_array_equal(back.archetype, fs.archetype)

    def test_rewrite_byte_identical(self, tmp_path):
        fs = _toy_field()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_field_csv(a, fs)
        write_field_csv(b, read_field_csv(a))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("building_id,x,y,state,mu\nb0,0,0,moderate,0\n")
        with pytest.raises(InvalidInputError, match="archetype"):
            read_field_csv(path)

    def test_missing_state_row(self, tmp_path):
        fs = _toy_field()
        path = tmp_path / "f.csv"
        write_field_csv(path, fs)
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
        write_field_geojson(path, fs)
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


class TestConfigLoading:
    def test_version_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ConfigError, match="schema_version"):
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

    def test_shipped_default_config_in_sync(self):
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.path.join(here, "..", "configs", "default_experiment.json")
        with open(path) as fh:
            doc = json.load(fh)
        assert scenario_from_dict(doc) == default_config()


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

    def test_missing_inventory_file_exit_2(self, tmp_path):
        doc = {
            "schema_version": 1,
            "inventory": "nope.csv",
            "track": {"centerline": [[0, 0], [1, 0]], "width_total": 100.0},
        }
        cfg = tmp_path / "prior.json"
        cfg.write_text(json.dumps(doc))
        assert main(["prior", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def _update_fixture(
    tmp_path, *, obs_rows, weight_rows=None, mode="local", field=None, extra=None
):
    field_csv = tmp_path / "field_in.csv"
    write_field_csv(field_csv, field if field is not None else _toy_field())
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

    def test_bad_mode_exit_2(self, tmp_path):
        cfg, _ = _update_fixture(tmp_path, obs_rows=[], mode="telepathy")
        assert main(["update", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_dry_run_writes_nothing(self, tmp_path):
        cfg, _ = _update_fixture(tmp_path, obs_rows=[["b0", "moderate", 1.0]])
        out = tmp_path / "out"
        code = main(["update", "--config", str(cfg), "--out", str(out), "--dry-run"])
        assert code == 0
        assert not out.exists()


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
        ],
    )
    def test_config_type_error_exit_2(self, tmp_path, change):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"schema_version": 1, **change}))
        for extra in (["--dry-run"], []):
            argv = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]
            assert main(argv + extra) == 2

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
