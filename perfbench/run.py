#!/usr/bin/env python3
"""fragfield benchmark: one workload, timed, checked, optionally traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-gp --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it are a human-readable report, the machine included.  The exit code is 0
when every output check passed and 1 when one failed or the run stopped
early; when the program under test cannot be loaded it is 2 and no result is
printed.  ``--smoke`` runs a seconds-long size of the workload on the same
code paths.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 0 < current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_seconds() -> float:
    """Time a fresh interpreter takes to load the CLI and every module it uses."""
    code = (
        "import time; t = time.perf_counter(); import fragfield.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout)


def blas_threads():
    """Threads the loaded OpenBLAS uses, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine(nproc) -> dict:
    """Cores, BLAS and versions, and the size of src/ (information only)."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def tail(values):
    """Highest whole percentile with at least ten samples above it.

    Returns (percentile, value) by nearest rank.  With fewer than eleven
    samples no such percentile exists, and the maximum is returned as
    percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100, ordered[-1]
    pct = 100 * (n - 10) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1]


class Runner:
    """Runs rounds of a workload's operations and checks every one."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.reference = {}  # op index in a round -> digests from round 1
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def round(self, traced: bool) -> list:
        """One round; returns the wall time of each operation."""
        wl = self.workload
        times = []
        self.tracer.recording = traced
        try:
            for k in range(wl.ops_per_round):
                self.attempted += 1
                try:
                    with self.tracer.span("op"):
                        result = wl.run_op(k)
                    times.append(result.seconds)
                    if result.exit_code != 0:
                        raise RuntimeError(f"op {k} exited {result.exit_code}")
                    digests = wl.check_op(k)
                    expected = self.reference.setdefault(k, digests)
                    if digests != expected:
                        changed = sorted(p for p in digests if digests[p] != expected.get(p))
                        raise RuntimeError(f"op {k} outputs differ from round 1: {changed}")
                except Exception:
                    # an exception, a non-zero exit or a failed check fails the
                    # operation; the run goes on so that fail_frac counts them all
                    self.failed += 1
                    self.errors.append(traceback.format_exc())
        finally:
            self.tracer.recording = False
        return times

    def window(self, seconds, *, traced, min_rounds):
        """Whole rounds for about ``seconds``, at least ``min_rounds``."""
        times, round_s = [], []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            times += self.round(traced)
            round_s.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - t0
            # stop where the window's end falls nearest, so a run measures
            # ``seconds`` on average whatever the length of a round
            if len(round_s) >= min_rounds and elapsed + statistics.median(round_s) / 2 > seconds:
                return times


# ---------------------------------------------------------------- tracing


def install_tracing(tracer, ff) -> None:
    """Wrap the public functions in README.md's layer table."""

    def gflop(args, kwargs, result):
        n = len(args[0] if args else kwargs["points"])
        return {"gflop": n**3 / 3.0 / 1e9}  # one Cholesky factorisation

    def cells(args, kwargs, result):
        return {"cells": float(getattr(args[0] if args else kwargs["mu"], "size", 1))}

    def rows(args, kwargs, result):
        return {"rows": float(len(result))}

    def bytes_written(args, kwargs, result):
        return {"bytes": float(os.path.getsize(args[0] if args else kwargs["path"]))}

    def non_finite(value):
        return not math.isfinite(value)

    wrap = tracer.wrap
    wrap(ff.gp_field, "fit_hyperparameters", "gp_field.fit")
    wrap(ff.gp_field, "log_marginal_likelihood", "gp_field.lml", work=gflop, failed=non_finite)
    wrap(ff.gp_field, "kernel_matrix", "gp_field.kernel_matrix")
    wrap(ff.gp_field, "exact_posterior", "gp_field.posterior")
    wrap(ff.beta_bridge, "local_update_cycle", "beta_bridge.local_update")
    wrap(ff.probit_normal, "pn_from_moments", "probit_normal.pn_from_moments")
    wrap(ff.probit_normal, "pn_moments_vec", "probit_normal.pn_moments_vec", work=cells)
    wrap(ff.io, "read_field_csv", "io.read_field_csv")
    wrap(ff.io, "read_observations_csv", "io.read_observations_csv", work=rows)
    for name in ("write_field_csv", "write_field_geojson", "write_manifest",
                 "write_metrics_csv", "write_trajectory_csv"):
        wrap(ff.io, name, f"io.{name}", work=bytes_written)
    wrap(ff.io, "sha256_file", "io.sha256_file")
    wrap(ff.cli, "_group_observations", "cli.group_observations")
    wrap(ff.hazard, "build_prior_field", "hazard.build_prior_field")
    wrap(ff.cluster, "balanced_kmeans", "cluster.balanced_kmeans")
    wrap(ff.experiment, "generate_truth", "experiment.generate_truth")
    wrap(ff.experiment, "soft_exceedance", "experiment.soft_exceedance")
    wrap(ff.experiment, "run_online_experiment", "experiment.run")


# spans each workload should record while traced.  One that never fires is
# reported on stderr and counted in trace.unfired, never a crash, so that a
# later change that stops calling a function still gets a result
EXPECTED_SPANS = {
    "sweep-gp": (
        "gp_field.fit", "gp_field.lml", "gp_field.kernel_matrix", "gp_field.posterior",
        "beta_bridge.local_update", "probit_normal.pn_from_moments",
        "probit_normal.pn_moments_vec", "io.write_field_csv", "hazard.build_prior_field",
        "cluster.balanced_kmeans", "experiment.generate_truth",
        "experiment.soft_exceedance", "experiment.run",
    ),
    "sweep-local": (
        "beta_bridge.local_update", "probit_normal.pn_from_moments",
        "probit_normal.pn_moments_vec", "io.write_field_csv", "hazard.build_prior_field",
        "cluster.balanced_kmeans", "experiment.generate_truth",
        "experiment.soft_exceedance", "experiment.run",
    ),
    "cli-chain": (
        "beta_bridge.local_update", "probit_normal.pn_from_moments",
        "probit_normal.pn_moments_vec", "io.read_field_csv", "io.write_field_csv",
        "io.write_field_geojson", "io.read_observations_csv", "io.write_manifest",
        "io.sha256_file", "cli.group_observations", "hazard.build_prior_field",
    ),
}


def layer_metrics(tracer, workload, n_ops) -> dict:
    """Per-layer metrics per operation, as name -> (unit, value).

    Only ``hazard.build_prior_field`` adds the traced set-up's spans: on
    cli-chain the prior is built there, by ``fragfield prior``.
    """
    tot = tracer.summary("op")
    setup = tracer.summary("setup")
    per = 1.0 / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    lml, fit = tot["gp_field.lml"], tot["gp_field.fit"]
    km, local = tot["gp_field.kernel_matrix"], tot["beta_bridge.local_update"]
    op_spans = [s for s in tracer.spans if s.root == "op"]
    lml_in_fit = sum(
        1 for s in op_spans if s.name == "gp_field.lml" and tracer.has_ancestor(s, "gp_field.fit")
    )
    kernel_in_lml_s = sum(
        s.duration for s in op_spans
        if s.name == "gp_field.kernel_matrix" and tracer.has_ancestor(s, "gp_field.lml")
    )
    prior = tot["hazard.build_prior_field"]
    m = {
        "gp_field.fit.calls": ("count", fit.calls * per),
        "gp_field.fit.s": ("s", fit.s * per),
        "gp_field.fit.lml_per_fit": ("count", ratio(lml_in_fit, fit.calls)),
        "gp_field.lml.calls": ("count", lml.calls * per),
        "gp_field.lml.ms_per_call": ("ms", 1e3 * ratio(lml.s, lml.calls)),
        "gp_field.lml.self_s": ("s", (lml.s - kernel_in_lml_s) * per),
        "gp_field.lml.failed": ("count", lml.failed * per),
        "gp_field.lml.gflop": ("GFLOP", lml.work["gflop"] * per),
        "gp_field.lml.gflop_per_s": ("GFLOP/s", ratio(lml.work["gflop"], lml.s)),
        "gp_field.kernel_matrix.calls": ("count", km.calls * per),
        "gp_field.kernel_matrix.ms_per_call": ("ms", 1e3 * ratio(km.s, km.calls)),
        "gp_field.posterior.calls": ("count", tot["gp_field.posterior"].calls * per),
        "gp_field.posterior.s": ("s", tot["gp_field.posterior"].s * per),
        "beta_bridge.local_update.cells": ("count", local.calls * per),
        "beta_bridge.local_update.s": ("s", local.s * per),
        "beta_bridge.local_update.s_per_1k_cells": ("s", 1e3 * ratio(local.s, local.calls)),
        "probit_normal.pn_from_moments.calls": (
            "count", tot["probit_normal.pn_from_moments"].calls * per),
        "probit_normal.pn_from_moments.s": ("s", tot["probit_normal.pn_from_moments"].s * per),
        "probit_normal.pn_moments_vec.cells": (
            "count", tot["probit_normal.pn_moments_vec"].work["cells"] * per),
        "probit_normal.pn_moments_vec.s": ("s", tot["probit_normal.pn_moments_vec"].s * per),
        "io.read_field_csv.s": ("s", tot["io.read_field_csv"].s * per),
        "io.write_field_csv.s": ("s", tot["io.write_field_csv"].s * per),
        "io.write_field_geojson.s": ("s", tot["io.write_field_geojson"].s * per),
        "io.read_observations_csv.s": ("s", tot["io.read_observations_csv"].s * per),
        "io.read_observations_csv.rows": (
            "count", tot["io.read_observations_csv"].work["rows"] * per),
        "io.write_manifest.s": ("s", tot["io.write_manifest"].s * per),
        "io.sha256_file.s": ("s", tot["io.sha256_file"].s * per),
        "io.bytes_written": (
            "byte", sum(t.work["bytes"] for n, t in tot.items() if n.startswith("io.")) * per),
        "cli.group_observations.s": ("s", tot["cli.group_observations"].s * per),
        # self time of the benchmark's own span around each `update` call
        "cli.update.self_s": ("s", tot["op"].self_s * per if workload.command == "update" else 0.0),
        "hazard.build_prior_field.calls": (
            "count", prior.calls * per + setup["hazard.build_prior_field"].calls),
        "hazard.build_prior_field.s": ("s", prior.s * per + setup["hazard.build_prior_field"].s),
        "cluster.balanced_kmeans.s": ("s", tot["cluster.balanced_kmeans"].s * per),
        "experiment.generate_truth.s": ("s", tot["experiment.generate_truth"].s * per),
        "experiment.soft_exceedance.s": ("s", tot["experiment.soft_exceedance"].s * per),
        "experiment.self_s": ("s", tot["experiment.run"].self_s * per),
    }
    return m


def traced_metrics(tracer, workload, untraced, traced, quality):
    """Per-layer metrics, tracing overhead, and count-consistency problems."""
    m = layer_metrics(tracer, workload, len(traced))
    untraced_p50 = statistics.median(untraced)
    traced_p50 = statistics.median(traced)
    m["trace.op_untraced_s"] = ("s", untraced_p50)
    m["trace.op_traced_s"] = ("s", traced_p50)
    m["trace.overhead_s"] = ("s", traced_p50 - untraced_p50)
    m["gp_field.lml_final"] = ("nat", quality.get("gp_lml_final", 0.0))
    fired = set(tracer.summary("op")) | set(tracer.summary("setup"))
    unfired = [n for n in EXPECTED_SPANS[workload.name] if n not in fired]
    for name in unfired + tracer.missing:
        print(f"WARNING: {name} never fired on {workload.name}", file=sys.stderr)
    m["trace.unfired"] = ("count", float(len(unfired)))
    # work that the workload's shape fixes must match what the spans saw; a
    # count of zero where work was expected is an unfired span, reported above
    problems = []
    for name, expected in workload.expected_counts().items():
        seen = m[name][1]
        if seen != expected and (seen != 0 or expected == 0):
            problems.append(f"traced {name} = {seen:g} per operation, expected {expected:g}")
    return m, problems


def end_to_end_metrics(times, setup_s, quality):
    pct, tail_s = tail(times)
    return {
        "setup_s": ("s", setup_s),
        "op_p50_s": ("s", statistics.median(times)),
        "op_tail_s": ("s", tail_s),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        "logloss_final": ("nat", quality["logloss_final"]),
    }, pct


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-gp", "sweep-local", "cli-chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long input size")
    args = parser.parse_args(argv)

    nproc = limit_blas_threads()
    sys.path.insert(0, SRC)
    try:
        import fragfield.cli  # noqa: F401  (loads every module the CLI uses)
    except ImportError as exc:
        print(f"error: cannot load fragfield from {SRC}: {exc}", file=sys.stderr)
        return 2
    import fragfield as ff
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    if args.trace:
        install_tracing(tracer, ff)
    size = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        # set-up = a fresh interpreter's import, then input generation and
        # warm-up; repeated, and the last set-up's inputs are the ones used
        import_s, setup_times = [], []
        for rep in range(SETUP_REPEATS):
            import_s.append(import_seconds())
            workload = workloads.WORKLOADS[args.workload](
                args.workload, size, os.path.join(run_dir, f"setup{rep}"), args.seed,
                ff.cli.main,
            )
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(import_s[-1] + time.perf_counter() - t0)
        if args.trace and isinstance(workload, workloads.Chain):
            tracer.recording = True
            with tracer.span("setup"):
                workload.run_prior()
            tracer.recording = False
        runner = Runner(workload, tracer)
        if args.trace:
            untraced = runner.window(args.seconds / 2, traced=False, min_rounds=1)
            times = runner.window(args.seconds / 2, traced=True, min_rounds=1)
        else:
            times = runner.window(args.seconds, traced=False, min_rounds=2)
        quality = workload.quality()
        if args.trace:
            metrics, problems = traced_metrics(tracer, workload, untraced, times, quality)
        else:
            metrics, tail_pct = end_to_end_metrics(
                times, statistics.median(setup_times), quality)
            problems = []
        runner.errors += problems
        runner.failed += len(problems)
    except Exception:
        traceback.print_exc()
        print("error: the benchmark stopped before its result", file=sys.stderr)
        return 1
    finally:
        tracer.restore()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    op = workload.op_noun
    print(f"# machine: {json.dumps(machine(nproc))}")
    print(f"# workload: {args.workload} seed={args.seed} size={json.dumps(vars(size))}")
    print(f"# expected work per {op}: {json.dumps(workload.expected_counts())}")
    print(f"# set-up s: {[round(t, 4) for t in setup_times]}"
          f" (fresh-interpreter import s: {[round(t, 4) for t in import_s]})")
    print(f"# {len(times)} {op}s{' traced' if args.trace else ''}, wall s:"
          f" {[round(t, 4) for t in times]}")
    print(f"# quality: {json.dumps(quality)}")
    notes = {}
    if not args.trace:
        notes = {
            "op_p50_s": f"median of {len(times)} {op}s",
            "op_tail_s": f"p{tail_pct} of {len(times)} {op}s"
            + (" (the maximum: no percentile has ten samples above it)" if tail_pct == 100 else ""),
        }
    for name, (unit, value) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"fail_frac = {runner.failed}/{runner.attempted}  [failed / attempted {op}s]")
    for err in runner.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
