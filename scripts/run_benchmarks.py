#!/usr/bin/env python3
"""Run a benchmark matrix over instance files and write report CSVs.

Example:

    python3 scripts/run_benchmarks.py instances/*.txt \
        --algorithms vi lao det-mlg det-cg --trials 50 --out report.csv
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from gussp.cli import add_cell_options, exit_code
from gussp.domains import load_instance
from gussp.harness import (
    ALGORITHMS,
    CellSpec,
    format_pretty,
    run_cell,
    strip_timing,
    write_report_csv,
    write_trials_csv,
)
from pathlib import Path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("instances", nargs="+", help="instance files")
    parser.add_argument("--algorithms", nargs="+", default=["vi", "lao"],
                        choices=ALGORITHMS)
    add_cell_options(parser)
    parser.add_argument("--out", help="report CSV (default: stdout, pretty)")
    parser.add_argument("--per-trial", help="per-trial CSV path")
    parser.add_argument("--no-timing", action="store_true")
    args = parser.parse_args(argv)
    return exit_code(lambda: _run(args))


def _run(args) -> int:
    jobs = []
    for path in args.instances:
        _params, model = load_instance(path)
        for algorithm in args.algorithms:
            jobs.append((model, CellSpec(
                name=Path(path).stem,
                algorithm=algorithm,
                heuristic=args.heuristic,
                trials=args.trials,
                seed=args.seed,
                epsilon=args.epsilon,
                flares_horizon=args.flares_horizon,
            )))

    results = [run_cell(model, spec) for model, spec in jobs]
    reports = [r.report for r in results]
    if args.no_timing:
        reports = [strip_timing(r) for r in reports]

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_report_csv(fh, reports)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(format_pretty(reports))
    if args.per_trial:
        with open(args.per_trial, "w", encoding="utf-8") as fh:
            write_trials_csv(fh, [t for r in results for t in r.trials])
        print(f"wrote {args.per_trial}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
