"""Tests of the benchmark itself, on the smoke size of each workload.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("sweep-gp", "sweep-local", "cli-chain")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, trace, seed=3):
    out = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1]), out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    result, _ = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_every_layer_metric(workload):
    result, out = smoke(workload, 1)
    assert result["correct"], out.stderr
    expected = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert metrics["trace.unfired"] == 0, out.stderr
    gp_calls = metrics["gp_field.fit.calls"] + metrics["gp_field.lml.calls"]
    if workload == "sweep-gp":
        assert metrics["gp_field.fit.calls"] == 2 * 4  # 2 trajectories x 4 steps
        assert metrics["gp_field.lml.calls"] > metrics["gp_field.fit.calls"]
    else:
        assert gp_calls == 0
    assert metrics["beta_bridge.local_update.cells"] > 0


def test_same_seed_gives_same_quality_and_other_seed_differs():
    a, _ = smoke("sweep-local", 0, seed=5)
    b, _ = smoke("sweep-local", 0, seed=5)
    c, _ = smoke("sweep-local", 0, seed=6)
    q = [r["metrics"]["logloss_final"]["value"] for r in (a, b, c)]
    assert q[0] == q[1] != q[2]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(str(tmp_path), "--workload", "sweep-gp", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tail_is_highest_percentile_with_ten_samples_above():
    values = [float(v) for v in range(1, 41)]
    pct, value = run.tail(values)
    assert pct == 75 and value == 30.0
    assert sum(v > value for v in values) >= 10
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


class _Flaky:
    """A workload whose second round gives different outputs."""

    ops_per_round = 2

    def __init__(self):
        self.round = 0

    def run_op(self, k):
        if k == 0:
            self.round += 1
        return types.SimpleNamespace(seconds=0.01, exit_code=0)

    def check_op(self, k):
        return {"out.csv": f"{k}-{self.round if k == 1 else 0}"}


def test_runner_counts_outputs_that_do_not_repeat_as_failures():
    runner = run.Runner(_Flaky(), Tracer())
    runner.round(traced=False)
    runner.round(traced=False)
    assert runner.attempted == 4 and runner.failed == 1
    assert "differ from round 1" in runner.errors[0]


def test_wrapper_patches_every_binding_and_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fragfield.cli as cli
    import fragfield.experiment as ex
    import fragfield.gp_field as gp

    original = gp.fit_hyperparameters
    tracer = Tracer()
    tracer.wrap(gp, "fit_hyperparameters", "gp_field.fit")
    tracer.wrap(cli, "cmd_update", "cli.cmd_update")
    tracer.wrap(gp, "no_such_function", "gp_field.none")
    try:
        assert gp.fit_hyperparameters is not original
        assert ex.fit_hyperparameters is gp.fit_hyperparameters
        assert cli.fit_hyperparameters is gp.fit_hyperparameters
        assert cli._COMMANDS["update"] is cli.cmd_update  # dict entries too
        assert tracer.missing == ["gp_field.none"]
    finally:
        tracer.restore()
    assert gp.fit_hyperparameters is original
    assert ex.fit_hyperparameters is original
    assert cli._COMMANDS["update"].__name__ == "cmd_update"
    assert not hasattr(cli._COMMANDS["update"], "__wrapped__")
