"""Every fragfield module imports, and every name its ``__all__`` lists exists.

The commands that never reach the GP load numpy and scipy.special only; the
GP paths add scipy.linalg, and none loads scipy.optimize.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import fragfield

MODULES = ["fragfield"] + sorted(
    f"fragfield.{info.name}" for info in pkgutil.iter_modules(fragfield.__path__)
)


def test_modules_found():
    assert "fragfield.cli" in MODULES and "fragfield.experiment" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)


# runs each command in one fresh interpreter, then reports the exit codes
# and which of the GP's scipy subpackages that interpreter loaded
_COLD_START = """
import json, sys
from fragfield.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
heavy = ("scipy.optimize", "scipy.integrate", "scipy.linalg")
print(json.dumps([codes, sorted(m for m in heavy if m in sys.modules)]))
"""


@pytest.fixture
def inputs(tmp_path):
    """A 3-building inventory, its observations and weights, and one config
    per command; ``run(command, config, *extra)`` builds a CLI argv."""
    (tmp_path / "inventory.csv").write_text(
        "building_id,x,y,archetype\nb0,5000,100,1\nb1,5000,1200,7\nb2,9000,-2000,12\n"
    )
    (tmp_path / "obs.csv").write_text(
        "building_id,state,y\nb0,moderate,0.8\nb1,extensive,0.3\n"
    )
    (tmp_path / "weights.csv").write_text(
        "state,weight\nmoderate,1\nextensive,1\ncomplete,1\n"
    )
    configs = {
        "prior": {
            "inventory": "inventory.csv",
            "track": {"centerline": [[0, 0], [10000, 0]], "width_total": 1600.0},
        },
        "update": {
            "field": "prior/field.csv",
            "observations": "obs.csv",
            "weights": "weights.csv",
            "mode": "local",
        },
        "gp_update": {
            "field": "prior/field.csv",
            "observations": "obs.csv",
            "weights": "weights.csv",
            "mode": "gp",
        },
        "experiment": {"n_buildings": 20},  # both modes by default
        "local_experiment": {"n_buildings": 20, "modes": ["local-only"]},
        "gp_experiment": {
            "n_buildings": 12,
            "modes": ["gp-enabled"],
            "n_batches": 2,
            "gp_budgets": {"cold_max_iter": 3, "warm_max_iter": 2},
        },
    }
    for name, doc in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"schema_version": 1, **doc}))

    def run(command, config, *extra):
        cfg, out = str(tmp_path / f"{config}.json"), str(tmp_path / config)
        return [command, "--config", cfg, "--out", out, *extra]

    return tmp_path, run


def cold_start(argvs):
    """(exit codes, heavy scipy subpackages loaded) of one fresh interpreter
    that runs ``argvs`` in turn."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fragfield.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs), proc.stderr
    return loaded


def test_commands_off_the_gp_load_no_heavy_scipy(inputs):
    tmp_path, run = inputs
    argvs = [
        run("prior", "prior", "--dry-run"),
        run("prior", "prior"),
        run("update", "update", "--dry-run"),
        run("update", "update"),
        run("update", "gp_update", "--dry-run"),
        run("experiment", "experiment", "--dry-run"),
        run("experiment", "local_experiment"),
    ]
    assert cold_start(argvs) == []
    assert (tmp_path / "update" / "field.csv").exists()
    assert (tmp_path / "local_experiment" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["update", "experiment"])
def test_gp_commands_load_linalg_but_not_optimize(inputs, command):
    tmp_path, run = inputs
    if command == "update":
        argvs = [run("prior", "prior"), run("update", "gp_update")]
        written = tmp_path / "gp_update" / "gp_field.csv"
    else:
        argvs = [run("experiment", "gp_experiment")]
        written = tmp_path / "gp_experiment" / "trajectory.csv"
    assert cold_start(argvs) == ["scipy.linalg"]
    assert written.exists()
