#!/usr/bin/env python3
"""gussp benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a gussp checkout:

    python3 perfbench/run.py --workload exact --seed 0 --seconds 15 --trace 0

``--trace 0`` starts set-up probes and one measuring worker, each a fresh
single-threaded process, and reports the end-to-end metrics.  ``--trace 1``
runs one untraced and one traced pass in two fresh processes, checks that
both print identical cell outputs, and reports the per-layer metrics.  The
last line of standard output is the JSON result; README.md explains every
workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact", "search", "execute")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metric name -> unit, in the order of BENCHMARK.json; the
# traced worker measures all but the last two, which this process adds
PER_LAYER = {
    "domains.load_s": "s",
    "compiler.compile_s": "s",
    "compiler.enumerate_s": "s",
    "compiler.enumerate_calls": "count",
    "compiler.reachable_states": "count",
    "compiler.compiled_states": "count",
    "compiler.successor_calls": "count",
    "compiler.successor_hit_ratio": "ratio",
    "model.posterior_s": "s",
    "model.posterior_calls": "count",
    "heuristics.oracle_s": "s",
    "heuristics.eval_s": "s",
    "heuristics.evals": "count",
    "solvers.vi_assembly_s": "s",
    "solvers.vi_sweeps_s": "s",
    "solvers.vi_extract_s": "s",
    "solvers.vi_sweeps": "count",
    "solvers.lao_s": "s",
    "solvers.lao_expanded": "count",
    "solvers.flares_s": "s",
    "solvers.flares_trials": "count",
    "solvers.flares_replan_s": "s",
    "solvers.backups": "count",
    "determinize.plan_s": "s",
    "determinize.plan_calls": "count",
    "determinize.plans_built": "count",
    "determinize.plan_hit_ratio": "ratio",
    "harness.exec_s": "s",
    "harness.episodes": "count",
    "harness.steps": "count",
    "harness.episode_us_p50": "us",
    "harness.episode_us_p99": "us",
    "harness.episode_samples": "count",
    "harness.cell_overhead_s": "s",
    "failed_frac": "ratio",
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBES = 10       # extra set-up-only processes; setup_s is the median
BUDGET_S = 170.0        # a run must end within 180 s
CALIBRATION_LOOP = 2_000_000


class WorkerFailed(Exception):
    pass


def environment(root: str) -> dict:
    """Provenance and machine state, printed next to every result."""
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "gussp")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i
    calibration_s = time.perf_counter() - t0
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "loadavg": os.getloadavg(),
        "calibration_s": calibration_s,
    }


def worker(root, args, mode, deadline, extra=()):
    """Run worker.py in a fresh process; relay its cell lines, return its JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GUSSP_THREADS", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker did not finish in time") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    if mode != "setup":
        for line in lines[:-1]:
            print(f"[{mode}] {line}")
    return json.loads(lines[-1])


def end_to_end(root, args, deadline):
    setups = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = time.time()
        setups.append(worker(root, args, "setup", deadline)["setup_end"] - t0)
    extra = ["--seconds", str(args.seconds)] + (["--passes", "1"] if args.smoke else [])
    t0 = time.time()
    run = worker(root, args, "run", deadline, extra)
    setups.append(run["setup_end"] - t0)
    metrics = {
        "wall_s": statistics.median(run["passes"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    print(f"passes {len(run['passes'])}: " + " ".join(f"{p:.3f}" for p in run["passes"]))
    print(f"setups {len(setups)}: " + " ".join(f"{s:.3f}" for s in setups))
    return metrics, END_TO_END, [run]


def per_layer(root, args, deadline):
    plain = worker(root, args, "run", deadline, ["--passes", "1"])
    traced = worker(root, args, "trace", deadline)
    runs = [plain, traced]
    if [c["outputs"] for c in plain["cells"]] != [c["outputs"] for c in traced["cells"]]:
        traced["problems"].append("traced and untraced cell outputs differ")
    else:
        print("traced and untraced cell outputs are identical")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["passes"][0] / plain["passes"][0]
    for c in traced["cells"]:
        print(f"traced-cell {c['cell']} time_s={c['seconds']:.3f} "
              f"posterior_s={c['posterior_s']:.3f}")
    return metrics, PER_LAYER, runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (line4, ev8) on every workload's code path")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gussp", "__init__.py")) or \
            not os.path.isdir(os.path.join(root, "instances")):
        print("perfbench: run from the root of a gussp checkout "
              "(src/gussp and instances/ not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    print("env " + json.dumps(environment(root)))

    try:
        if args.trace:
            metrics, units, runs = per_layer(root, args, deadline)
        else:
            metrics, units, runs = end_to_end(root, args, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    for p in problems:
        print(f"problem: {p}")
    failed_frac = failed / attempted
    if args.trace:
        metrics["failed_frac"] = failed_frac
    print(f"failed_frac {failed_frac!r} ratio ({failed} of {attempted} trials)")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
