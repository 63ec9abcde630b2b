"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks on its outputs.

Every workload drives fragfield through ``fragfield.cli.main`` in this
process, one call at a time (a closed loop: the next call starts when the
previous one has returned).  Operations are grouped in *rounds*; every round
repeats the same calls on the same inputs, so each call's outputs must be
byte-identical to the first round's.

- ``sweep-gp``: ``fragfield experiment`` in gp-enabled mode; the GP
  hyperparameter fit does nearly all the work.  One round = one sweep.
- ``sweep-local``: ``fragfield experiment`` in local-only mode over all
  prior widths and both strategies; the scalar conjugate cell updates do
  nearly all the work and the GP is never called.  One round = one sweep.
- ``cli-chain``: a chain of ``fragfield update --mode local`` calls, each
  reading the previous call's ``field.csv``.  One round = one chain that
  starts again from the ``prior`` field built in set-up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

STATES = ("moderate", "extensive", "complete")

# the default scenario's geometry (configs/default_experiment.json), written
# out in full so a change of the program's defaults cannot change a workload
REGION = [[0.0, 10000.0], [-2500.0, 2500.0]]
CENTERLINE = [[-500.0, -200.0], [5000.0, 0.0], [10500.0, 200.0]]
TRUE_WIDTH = 1600.0
OBSERVER = {
    "class_error": 0.1,
    "concentration": 40.0,
    "spread": 0.08,
    "calibration_size": 150,
    "w_max": 30.0,
}


@dataclass(frozen=True)
class Size:
    """Input size of one workload (full or smoke)."""

    n_buildings: int
    n_batches: int
    batch_buildings: int = 0  # cli-chain: buildings per update call


SIZES = {
    "sweep-gp": {"full": Size(150, 8), "smoke": Size(24, 2)},
    "sweep-local": {"full": Size(300, 8), "smoke": Size(40, 2)},
    "cli-chain": {"full": Size(2000, 10, 100), "smoke": Size(60, 3, 10)},
}

SWEEP_AXES = {
    "sweep-gp": {
        "modes": ["gp-enabled"],
        "strategies": ["grouped"],
        "prior_widths": [0.0, 800.0],
    },
    "sweep-local": {
        "modes": ["local-only"],
        "strategies": ["random", "grouped"],
        "prior_widths": [0.0, 800.0, 3200.0],
    },
}

# cli-chain observers: two sources of different fidelity, each with its own
# per-state reliability weight, so every observed cell gets two weighted
# observations per call
SOURCES = {
    "src1": {"slip": 0.1, "concentration": 40.0, "weights": (6.0, 5.0, 4.0)},
    "src2": {"slip": 0.2, "concentration": 15.0, "weights": (3.0, 2.5, 2.0)},
}
ASSUMED_WIDTH = 800.0  # cli-chain prior track width; the truth uses TRUE_WIDTH
CAPACITY_MEDIANS = (35.0, 50.0, 65.0)  # m/s, per damage state
CAPACITY_BETA = 0.25


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def binary_log_loss(m, y) -> float:
    m = np.clip(np.asarray(m, dtype=float), 1e-12, 1.0 - 1e-12)
    y = np.asarray(y, dtype=float)
    return float(np.mean(-(y * np.log(m) + (1.0 - y) * np.log(1.0 - m))))


# ---------------------------------------------------------------- checks


class CheckError(Exception):
    """An operation's outputs are wrong."""


def read_numeric_csv(path, numeric, *, expect_rows):
    """Rows of a CSV with the ``numeric`` columns parsed and checked finite."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expect_rows:
        raise CheckError(f"{path}: {len(rows)} rows, expected {expect_rows}")
    for lineno, row in enumerate(rows, start=2):
        for key in numeric:
            try:
                value = float(row[key])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckError(f"{path}:{lineno}: bad {key}: {exc}") from exc
            if not math.isfinite(value):
                raise CheckError(f"{path}:{lineno}: {key}={value} is not finite")
            row[key] = value
    return rows


def check_field_csv(path, n_buildings) -> list:
    rows = read_numeric_csv(
        path, ("x", "y", "mu", "sigma2", "m", "var_p"), expect_rows=3 * n_buildings
    )
    for row in rows:
        if row["sigma2"] < 0 or row["var_p"] < 0:
            raise CheckError(f"{path}: negative variance for {row['building_id']}")
        if not 0.0 <= row["m"] <= 1.0:
            raise CheckError(f"{path}: m={row['m']} outside [0, 1]")
    return rows


def check_manifest(out_dir, expected) -> None:
    """Every expected file is listed, exists and matches its digest."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        doc = json.load(fh)
    listed = {entry["path"]: entry["sha256"] for entry in doc["files"]}
    if set(listed) != set(expected):
        raise CheckError(
            f"{out_dir}: manifest lists {sorted(listed)}, expected {sorted(expected)}"
        )
    for rel, digest in listed.items():
        if sha256(os.path.join(out_dir, rel)) != digest:
            raise CheckError(f"{out_dir}: digest mismatch for {rel}")


# ---------------------------------------------------------------- workloads


@dataclass
class OpResult:
    seconds: float
    exit_code: int


class Workload:
    """One workload bound to a work directory and a seed.

    ``setup`` makes the inputs; ``run_op(k)`` times the k-th call of a round
    (``ops_per_round`` calls); ``check_op(k)`` returns the digests of the
    outputs that must repeat exactly, or raises CheckError;
    ``quality`` reads the accuracy figures from the outputs, and
    ``expected_counts`` gives per-layer counts per operation that the
    workload's shape fixes.
    """

    ops_per_round = 1
    command = ""  # the fragfield subcommand one operation runs
    op_noun = ""

    def __init__(self, name, size: Size, workdir, seed: int, main):
        self.name = name
        self.size = size
        self.workdir = workdir
        self.seed = seed
        self.main = main  # fragfield.cli.main

    def _call(self, argv, *, fresh_out=None) -> OpResult:
        """Time one CLI call; ``fresh_out`` is emptied first, outside the timing,
        so a check can never pass on files an earlier call left behind."""
        if fresh_out is not None:
            shutil.rmtree(fresh_out, ignore_errors=True)
        t0 = time.perf_counter()
        code = self.main(argv)
        return OpResult(time.perf_counter() - t0, code)


GP_CALLS = (
    "gp_field.fit.calls",
    "gp_field.lml.calls",
    "gp_field.kernel_matrix.calls",
    "gp_field.posterior.calls",
)


class Sweep(Workload):
    command = "experiment"
    op_noun = "sweep"

    def _doc(self, n_buildings, n_batches, seed):
        doc = {
            "schema_version": 1,
            "n_buildings": n_buildings,
            "region": REGION,
            "true_track": {"centerline": CENTERLINE, "width_total": TRUE_WIDTH},
            "n_batches": n_batches,
            "holdout_fraction": 0.2,
            "observer": OBSERVER,
            "seed": seed,
        }
        doc.update(SWEEP_AXES[self.name])
        return doc

    @property
    def trajectories(self) -> int:
        axes = SWEEP_AXES[self.name]
        return len(axes["modes"]) * len(axes["strategies"]) * len(axes["prior_widths"])

    @property
    def steps(self) -> int:
        return self.size.n_batches + 2  # prior, each batch, holdout

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.config = os.path.join(self.workdir, "experiment.json")
        write_json(self.config, self._doc(self.size.n_buildings, self.size.n_batches, self.seed))
        # warm-up on a tiny scenario through the same command and code paths
        warm = self._doc(12, 1, self.seed)
        warm["gp_budgets"] = {"cold_max_iter": 3, "warm_max_iter": 2}
        warm_config = os.path.join(self.workdir, "warmup.json")
        write_json(warm_config, warm)
        result = self._call(
            ["experiment", "--config", warm_config, "--out", os.path.join(self.workdir, "warmup")]
        )
        if result.exit_code != 0:
            raise CheckError(f"warm-up sweep exited {result.exit_code}")

    def out_dir(self, k) -> str:
        return os.path.join(self.workdir, "out")

    def run_op(self, k) -> OpResult:
        out = self.out_dir(k)
        return self._call(["experiment", "--config", self.config, "--out", out], fresh_out=out)

    def check_op(self, k) -> dict:
        out = self.out_dir(k)
        n_gp = self.trajectories if "gp-enabled" in SWEEP_AXES[self.name]["modes"] else 0
        read_numeric_csv(
            os.path.join(out, "metrics.csv"),
            ("log_loss_vs_observer", "log_loss_vs_truth", "var_p_median"),
            expect_rows=self.trajectories * self.steps * 2 * len(STATES),
        )
        read_numeric_csv(
            os.path.join(out, "trajectory.csv"),
            ("sigma2_global", "ell1", "ell2", "rho_a", "alpha_local", "tau",
             "log_marginal_likelihood"),
            expect_rows=n_gp * self.steps,
        )
        fields = sorted(os.listdir(os.path.join(out, "fields")))
        field_csvs = [f for f in fields if f.endswith(".csv")]
        if len(field_csvs) != self.trajectories or len(fields) != 2 * self.trajectories:
            raise CheckError(f"{out}/fields: {fields}")
        for name in field_csvs:
            check_field_csv(os.path.join(out, "fields", name), self.size.n_buildings)
        check_manifest(
            out, ["metrics.csv", "trajectory.csv"] + [f"fields/{f}" for f in fields]
        )
        repeat = ["metrics.csv", "trajectory.csv"] + [f"fields/{f}" for f in field_csvs]
        return {rel: sha256(os.path.join(out, rel)) for rel in repeat}

    def quality(self) -> dict:
        """Final-step log-loss vs the observer; final GP log marginal likelihood."""
        out = self.out_dir(0)
        with open(os.path.join(out, "metrics.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        last = max(int(r["step"]) for r in rows)
        losses = [float(r["log_loss_vs_observer"]) for r in rows if int(r["step"]) == last]
        result = {"logloss_final": sum(losses) / len(losses)}
        with open(os.path.join(out, "trajectory.csv"), newline="") as fh:
            traj = [r for r in csv.DictReader(fh) if int(r["step"]) == last]
        if traj:
            lml = [float(r["log_marginal_likelihood"]) for r in traj]
            result["gp_lml_final"] = sum(lml) / len(lml)
        return result

    def expected_counts(self) -> dict:
        # every trajectory assimilates every building once; gp mode fits and
        # evaluates the posterior once per step
        counts = {
            "beta_bridge.local_update.cells": self.size.n_buildings * len(STATES)
            * self.trajectories,
        }
        if "gp-enabled" in SWEEP_AXES[self.name]["modes"]:
            counts["gp_field.fit.calls"] = self.trajectories * self.steps
            counts["gp_field.posterior.calls"] = self.trajectories * self.steps
        else:
            counts.update(dict.fromkeys(GP_CALLS, 0))
        return counts


def _distance_to_polyline(x, y, polyline) -> np.ndarray:
    best = np.full(x.shape, np.inf)
    for (ax, ay), (bx, by) in zip(polyline[:-1], polyline[1:]):
        dx, dy = bx - ax, by - ay
        t = np.clip(((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        best = np.minimum(best, np.hypot(x - (ax + t * dx), y - (ay + t * dy)))
    return best


def chain_inputs(size: Size, seed: int):
    """Inventory, per-source soft exceedance evidence and call batches.

    Damage truth comes from a Rankine-like wind profile around the true
    track and lognormal capacities; each source reports an adjacent-class
    slip with its own rate and a Dirichlet-soft class vector.
    """
    rng = np.random.default_rng([seed, 0xC11])
    n = size.n_buildings
    x = rng.uniform(*REGION[0], n)
    y = rng.uniform(*REGION[1], n)
    arch = rng.integers(1, 20, n)
    r = _distance_to_polyline(x, y, CENTERLINE)
    r_core = TRUE_WIDTH / 8.0
    v = 90.0 * np.minimum(1.0, r_core / np.maximum(r, 1e-9)) ** 0.6
    caps = np.exp(np.log(CAPACITY_MEDIANS) + CAPACITY_BETA * rng.standard_normal((n, 3)))
    truth = np.sum(v[:, None] >= caps, axis=1)  # class 0..3
    evidence = {}
    for name, src in SOURCES.items():
        slip = rng.random(n) < src["slip"]
        step = np.where(rng.random(n) < 0.5, -1, 1)
        reported = np.clip(truth + slip * step, 0, 3)
        alpha = np.full((n, 4), 0.02)
        alpha[np.arange(n), reported] += 0.92
        soft = rng.gamma(src["concentration"] * alpha)
        soft /= soft.sum(axis=1, keepdims=True)
        # exceedance of state j is the mass on classes >= j
        exceed = np.cumsum(soft[:, ::-1], axis=1)[:, ::-1][:, 1:]
        evidence[name] = np.clip(exceed, 0.0, 1.0)
    order = rng.permutation(n)
    b = size.batch_buildings
    batches = [np.sort(order[k * b : (k + 1) * b]) for k in range(size.n_batches)]
    ids = [f"b{k:05d}" for k in range(n)]
    return ids, x, y, arch, evidence, batches


class Chain(Workload):
    command = "update"
    op_noun = "update call"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ops_per_round = self.size.n_batches

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        ids, x, y, arch, evidence, batches = chain_inputs(self.size, self.seed)
        self.ids = ids
        self.target = (evidence["src1"] + evidence["src2"]) / 2.0
        w = self.workdir
        with open(os.path.join(w, "buildings.csv"), "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["building_id", "x", "y", "archetype"])
            for k in range(len(ids)):
                out.writerow([ids[k], repr(float(x[k])), repr(float(y[k])), int(arch[k])])
        with open(os.path.join(w, "weights.csv"), "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["state", "weight", "source"])
            for name, src in SOURCES.items():
                for state, weight in zip(STATES, src["weights"]):
                    out.writerow([state, repr(weight), name])
        for k, rows in enumerate(batches):
            with open(os.path.join(w, f"obs_{k:03d}.csv"), "w", newline="") as fh:
                out = csv.writer(fh)
                out.writerow(["building_id", "state", "y", "source"])
                for i in rows:
                    for name in SOURCES:
                        for j, state in enumerate(STATES):
                            out.writerow([ids[i], state, repr(float(evidence[name][i, j])), name])
            field = "prior/field.csv" if k == 0 else f"calls/{k - 1:03d}/field.csv"
            write_json(
                os.path.join(w, f"update_{k:03d}.json"),
                {
                    "schema_version": 1,
                    "field": field,
                    "observations": f"obs_{k:03d}.csv",
                    "weights": "weights.csv",
                    "mode": "local",
                },
            )
        write_json(
            os.path.join(w, "prior.json"),
            {
                "schema_version": 1,
                "inventory": "buildings.csv",
                "track": {"centerline": CENTERLINE, "width_total": ASSUMED_WIDTH},
            },
        )
        result = self.run_prior()
        if result.exit_code != 0:
            raise CheckError(f"prior exited {result.exit_code}")
        check_field_csv(os.path.join(w, "prior", "field.csv"), len(ids))
        check_manifest(os.path.join(w, "prior"), ["field.csv", "field.geojson"])
        # warm-up: one update call into a directory the chain never reads
        warm = self._call(
            ["update", "--config", os.path.join(w, "update_000.json"),
             "--out", os.path.join(w, "warmup")]
        )
        if warm.exit_code != 0:
            raise CheckError(f"warm-up update exited {warm.exit_code}")

    def run_prior(self) -> OpResult:
        return self._call(
            ["prior", "--config", os.path.join(self.workdir, "prior.json"),
             "--out", os.path.join(self.workdir, "prior")]
        )

    def out_dir(self, k) -> str:
        return os.path.join(self.workdir, "calls", f"{k:03d}")

    def run_op(self, k) -> OpResult:
        out = self.out_dir(k)
        return self._call(
            ["update", "--config", os.path.join(self.workdir, f"update_{k:03d}.json"),
             "--out", out],
            fresh_out=out,
        )

    def check_op(self, k) -> dict:
        out = self.out_dir(k)
        check_field_csv(os.path.join(out, "field.csv"), len(self.ids))
        check_manifest(out, ["field.csv", "field.geojson"])
        return {"field.csv": sha256(os.path.join(out, "field.csv"))}

    def quality(self) -> dict:
        """Log-loss of the chain's final field against the sources' mean evidence."""
        rows = check_field_csv(
            os.path.join(self.out_dir(self.ops_per_round - 1), "field.csv"), len(self.ids)
        )
        row_of = {bid: i for i, bid in enumerate(self.ids)}
        state_of = {s: j for j, s in enumerate(STATES)}
        m = np.empty_like(self.target)
        for row in rows:
            m[row_of[row["building_id"]], state_of[row["state"]]] = row["m"]
        return {"logloss_final": binary_log_loss(m, self.target)}

    def expected_counts(self) -> dict:
        # every call carries batch_buildings x states x sources observations,
        # two per cell, and updates each of those cells once
        counts = dict.fromkeys(GP_CALLS, 0)
        counts["io.read_observations_csv.rows"] = (
            self.size.batch_buildings * len(STATES) * len(SOURCES)
        )
        counts["beta_bridge.local_update.cells"] = self.size.batch_buildings * len(STATES)
        return counts


WORKLOADS = {"sweep-gp": Sweep, "sweep-local": Sweep, "cli-chain": Chain}
