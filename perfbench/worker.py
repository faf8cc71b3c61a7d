#!/usr/bin/env python3
"""One workload in one fresh process; started by run.py, not by hand.

Modes:
  setup   import gussp, load or generate the instances, report when done
  run     set up, then repeat the workload's pass until --seconds elapsed
          (at most --passes passes), timing each run_cell call
  trace   like ``run --passes 1``, with spans.install() wrapping gussp first

Prints one line per cell of the first pass, then one JSON line with the
pass times, the per-cell records, failure counts and peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import gussp  # noqa: E402
import gussp.harness as harness  # noqa: E402
from gussp.errors import GusspError  # noqa: E402

import workloads  # noqa: E402


def run_pass(cells, inst, tracer):
    """Run every cell once; return (timed seconds, per-cell records)."""
    records = []
    lao_values = {}
    timed = 0.0
    last = {cell.instance: i for i, cell in enumerate(cells)}
    for i, cell in enumerate(cells):
        spec = cell.spec
        posterior_before = tracer.self_time("model.posterior") if tracer else 0.0
        t0 = time.perf_counter()
        try:
            result = harness.run_cell(inst.models[cell.instance], spec)
        except GusspError as exc:
            elapsed = time.perf_counter() - t0
            report, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - t0
            report = result.report
            problem = workloads.check(cell, report, lao_values)
        timed += elapsed
        rec = {
            "cell": f"{cell.instance}/{spec.algorithm}/{spec.heuristic or '-'}",
            "algorithm": spec.algorithm,
            "outputs": workloads.outputs(report) if report else None,
            "problem": problem,
            "attempted": spec.trials,
            "failed": spec.trials if problem else report.failures,
            "episodes": len(result.trials) if report else 0,
            "steps": sum(t.steps for t in result.trials) if report else 0,
            "seconds": elapsed,
        }
        if tracer:
            rec["posterior_s"] = tracer.self_time("model.posterior") - posterior_before
        records.append(rec)
        if last[cell.instance] == i:
            # like a batch runner, drop an instance (and the posteriors its
            # model memoised) once its cells are done
            del inst.models[cell.instance]
    return timed, records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=1_000_000)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    expected = os.path.join(ROOT, "src", "gussp")
    if os.path.dirname(os.path.abspath(gussp.__file__)) != expected:
        print(f"worker: imported gussp from {gussp.__file__}, not {expected}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        args.passes = 1

    cells, sources = workloads.plan(args.workload, args.seed, args.smoke)
    inst = workloads.load(ROOT, sources)
    setup_end = time.time()
    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0

    begin = time.perf_counter()
    passes = []
    first = None
    attempted = failed = 0
    problems = []
    while len(passes) < args.passes:
        if passes:
            inst.rebuild()
        timed, records = run_pass(cells, inst, tracer)
        passes.append(timed)
        attempted += sum(r["attempted"] for r in records)
        failed += sum(r["failed"] for r in records)
        problems += [f"{r['cell']}: {r['problem']}" for r in records if r["problem"]]
        if first is None:
            first = records
            for r in records:
                out = r["outputs"] or {}
                fields = " ".join(f"{k}={out.get(k)!r}" for k in
                                  ("value_start", "compiled_states", "solver_stat",
                                   "mean_cost", "failures"))
                print(f"cell {r['cell']} {fields} check={r['problem'] or 'ok'}"
                      f" time_s={r['seconds']:.3f}")
        elif [r["outputs"] for r in records] != [r["outputs"] for r in first]:
            problems.append(f"pass {len(passes)} outputs differ from pass 1")
        if time.perf_counter() - begin >= args.seconds:
            break

    result = {
        "setup_end": setup_end,
        "passes": passes,
        "cells": first,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer, first)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
