"""Every fragfield module imports, and every name its ``__all__`` lists exists.

Importing the CLI loads no scipy module.  The commands that never reach the
GP load numpy and no scipy; the GP paths add scipy.linalg, and none loads
scipy.special or scipy.optimize.  ``prior`` and
``update --mode local`` on a 20,000-building inventory stay within a fixed
memory budget above the import's, and ``update --mode gp`` on 700 buildings
within three n x n kernel buffers.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
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
# and which of the scipy subpackages it watches that interpreter loaded
_COLD_START = """
import json, sys
from fragfield.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
heavy = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.special")
print(json.dumps([codes, sorted(m for m in heavy if m in sys.modules)]))
"""


def test_importing_the_cli_loads_no_scipy():
    loaded, stderr = fresh(
        "import json, sys\nimport fragfield.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
        [],
    )
    assert loaded == [], stderr


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


def fresh(script, argvs):
    """The JSON last line that ``script`` prints when a fresh interpreter runs
    it on ``argvs``, and that interpreter's stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fragfield.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def cold_start(argvs):
    """(exit codes, watched scipy subpackages loaded) of one fresh interpreter
    that runs ``argvs`` in turn."""
    (codes, loaded), stderr = fresh(_COLD_START, argvs)
    assert codes == [0] * len(argvs), stderr
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


# runs one command in a fresh interpreter, then reports its exit code and how
# far its peak resident set rose above the peak of importing the CLI, in MB
_PEAK_GROWTH = """
import json, resource, sys
from fragfield.cli import main
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = main(json.loads(sys.argv[1]))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([code, (peak - base) / 1024.0]))
"""

# the field-wide passes run in fixed-size blocks, so 20,000 buildings (60,000
# cells) add under 2 MB to `prior` and about 12 MB to `update`; whole-field
# quadrature temporaries and formatted columns made that 88 and 100 MB
_GROWTH_BUDGET_MB = 40.0


def write_inputs(tmp_path, n, n_observed, seed):
    """An n-building inventory with every state of ``n_observed`` buildings
    observed, a weights file and the prior track; returns the track."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10_000.0, n).tolist()
    y = rng.uniform(-2_500.0, 2_500.0, n).tolist()
    arch = rng.integers(1, 20, n).tolist()
    (tmp_path / "inventory.csv").write_text(
        "building_id,x,y,archetype\n"
        + "".join(f"b{k},{x[k]!r},{y[k]!r},{arch[k]}\n" for k in range(n))
    )
    observed = rng.choice(n, n_observed, replace=False)
    (tmp_path / "obs.csv").write_text(
        "building_id,state,y\n"
        + "".join(
            f"b{k},{state},{float(rng.uniform())!r}\n"
            for k in observed
            for state in ("moderate", "extensive", "complete")
        )
    )
    (tmp_path / "weights.csv").write_text(
        "state,weight\nmoderate,5\nextensive,5\ncomplete,5\n"
    )
    return {"centerline": [[-500, -200], [5000, 0], [10500, 200]], "width_total": 800.0}


def peak_growth(tmp_path, configs):
    """Run each (command, config) in a fresh interpreter; peak growth in MB."""
    growth = {}
    for command, doc in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"schema_version": 1, **doc}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
        (code, growth[command]), stderr = fresh(_PEAK_GROWTH, argv)
        assert code == 0, stderr
    return growth


def test_prior_and_update_at_20k_buildings_within_memory_budget(tmp_path):
    n = 20_000
    track = write_inputs(tmp_path, n, 1_000, 20)
    configs = {
        "prior": {"inventory": "inventory.csv", "track": track},
        "update": {
            "field": "prior/field.csv",
            "observations": "obs.csv",
            "weights": "weights.csv",
            "mode": "local",
        },
    }
    for command, growth_mb in peak_growth(tmp_path, configs).items():
        assert growth_mb < _GROWTH_BUDGET_MB, (command, growth_mb)
    assert len((tmp_path / "update" / "field.csv").read_text().splitlines()) == 3 * n + 1


# the exact GP holds at most two n x n buffers: the posterior's factor beside
# its second K, which it solves in place.  At 700 buildings (2,100 points) one
# buffer is 33.6 MB; the n x n gather index, its masks and the posterior's
# copies made the growth about 155 MB
_GP_BUFFER_MB = 8 * (3 * 700) ** 2 / 2**20


def test_gp_update_at_700_buildings_within_three_kernel_buffers(tmp_path):
    track = write_inputs(tmp_path, 700, 100, 7)
    configs = {
        "prior": {"inventory": "inventory.csv", "track": track},
        "update": {
            "field": "prior/field.csv",
            "observations": "obs.csv",
            "weights": "weights.csv",
            "mode": "gp",
            "gp_max_iter": 1,
        },
    }
    growth_mb = peak_growth(tmp_path, configs)["update"]
    assert growth_mb < 3 * _GP_BUFFER_MB, growth_mb
    assert (tmp_path / "update" / "gp_field.csv").exists()
