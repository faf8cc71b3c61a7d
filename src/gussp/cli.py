"""Command-line benchmark runner.

``gussp plan`` solves one instance with one algorithm and executes a trial
batch; ``gussp arbor`` prints the goal-graph analysis for deterministic
instances.  Exit codes: 0 success, 2 bad arguments, instance or model,
3 solver failure (non-convergence, budget exhaustion, no eligible target).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, List, Optional, TextIO

from .arborescence import audit_goal_graph
from .compiler import DEFAULT_STATE_BUDGET, compile_gussp, dump_compiled
from .errors import GusspError, ModelError
from .harness import (
    ALGORITHMS,
    HEURISTICS,
    CellSpec,
    emit_trace,
    format_pretty,
    run_cell,
    strip_timing,
    write_report_csv,
    write_trials_csv,
)
from .domains import load_instance
from .solvers import value_iteration


def _horizon(text: str) -> Optional[float]:
    """A labeling depth: ``None`` for ``none``/``inf``, else a number >= 0."""
    if text.lower() in ("inf", "none"):
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, 'none' or 'inf': {text!r}")
    return value


def _checked(kind, ok: Callable, what: str):
    """An argparse type: ``kind(text)``, rejected unless ``ok`` holds, so a
    bad value fails before any work is done."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}: {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


_EPSILON = _checked(float, lambda x: x > 0, "positive")


def add_cell_options(parser: argparse.ArgumentParser) -> None:
    """The trial-batch options that ``gussp plan`` and
    ``scripts/run_benchmarks.py`` share, with their checks."""
    parser.add_argument("--heuristic", choices=HEURISTICS, default="hpg",
                        help="heuristic for lao and flares")
    parser.add_argument("--trials", type=_checked(int, lambda n: n >= 0, "nonnegative"),
                        default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=_EPSILON, default=1e-6)
    parser.add_argument("--flares-horizon", type=_horizon, default=1,
                        help="labeling depth; 'inf' checks the full envelope")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gussp",
        description="Plan and benchmark goal-uncertain shortest-path instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="solve an instance and run execution trials")
    plan.add_argument("instance", help="instance file path")
    plan.add_argument("--algorithm", choices=ALGORITHMS, default="vi")
    add_cell_options(plan)
    plan.add_argument("--state-budget", type=_checked(int, lambda n: n > 0, "positive"),
                      default=DEFAULT_STATE_BUDGET)
    plan.add_argument("--out", help="report CSV path (default: stdout)")
    plan.add_argument("--per-trial", help="write per-trial CSV here")
    plan.add_argument("--trace", help="write executed trajectories here")
    plan.add_argument("--pretty", action="store_true",
                      help="human-readable table instead of CSV")
    plan.add_argument("--no-timing", action="store_true",
                      help="zero wall-clock fields for reproducible output")
    plan.add_argument("--dump-compiled", metavar="PATH",
                      help="write the reachable compiled state space here")
    plan.add_argument("--convergence-log", metavar="PATH",
                      help="log per-sweep residuals (vi only)")

    arbor = sub.add_parser("arbor", help="goal-graph arborescence and visit order")
    arbor.add_argument("instance", help="instance file path")
    arbor.add_argument("--out", help="output CSV path (default: stdout)")
    arbor.add_argument("--with-value", action="store_true",
                       help="also solve the instance and report its value")
    arbor.add_argument("--epsilon", type=_EPSILON, default=1e-6)
    return parser


def _open_out(path: Optional[str]):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _cmd_plan(args) -> int:
    _params, model = load_instance(args.instance)
    name = Path(args.instance).stem
    spec = CellSpec(
        name=name,
        algorithm=args.algorithm,
        heuristic=args.heuristic,
        trials=args.trials,
        seed=args.seed,
        epsilon=args.epsilon,
        flares_horizon=args.flares_horizon,
        state_budget=args.state_budget,
    )

    ssp = reachable = None
    if args.dump_compiled:
        dumped = compile_gussp(model)
        with open(args.dump_compiled, "w", encoding="utf-8") as fh:
            dumped_reach = dump_compiled(dumped, fh, state_budget=args.state_budget)
        if args.algorithm == "vi":
            # lazy solvers compile their own: compiled_states counts what they touch
            ssp, reachable = dumped, dumped_reach

    sweep_log: Optional[TextIO] = None
    on_sweep = None
    if args.convergence_log:
        sweep_log = open(args.convergence_log, "w", encoding="utf-8")
        sweep_log.write("sweep,residual\n")

        def on_sweep(sweep: int, residual: float, _values) -> None:
            sweep_log.write(f"{sweep},{residual:.9e}\n")

    try:
        result = run_cell(
            model, spec,
            ssp=ssp,
            reachable=reachable,
            collect_traces=args.trace is not None,
            on_sweep=on_sweep,
        )
    finally:
        if sweep_log is not None:
            sweep_log.close()

    report = strip_timing(result.report) if args.no_timing else result.report
    out, close = _open_out(args.out)
    try:
        if args.pretty:
            out.write(format_pretty([report]))
        else:
            write_report_csv(out, [report])
    finally:
        if close:
            out.close()

    if args.per_trial:
        with open(args.per_trial, "w", encoding="utf-8") as fh:
            write_trials_csv(fh, result.trials)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            emit_trace(fh, result.traces)
    return 0


def _cmd_arbor(args) -> int:
    _params, model = load_instance(args.instance)
    optimal = None
    if args.with_value:
        ssp = compile_gussp(model)
        result = value_iteration(ssp, epsilon=args.epsilon)
        optimal = result.table.value(ssp.start_id)
    audit = audit_goal_graph(model, optimal_value=optimal)

    out, close = _open_out(args.out)
    try:
        out.write("u,v,distance,weight\n")
        for (u, v), w in sorted(audit.graph.weights.items()):
            d = audit.graph.distances[(u, v)]
            out.write(f"{u},{v},{d:.6f},{w:.6f}\n")
        out.write("\nmetric,value\n")
        for key, value in audit.rows():
            out.write(f"{key},{value}\n")
    finally:
        if close:
            out.close()
    return 0


def exit_code(run: Callable[[], int]) -> int:
    """``run()``, with a missing file or a bad instance or model mapped to
    exit code 2 and any other library failure to 3, each reported on
    stderr."""
    try:
        return run()
    except FileNotFoundError as e:
        print(f"gussp: {e}", file=sys.stderr)
        return 2
    except ModelError as e:
        print(f"gussp: bad instance or model: {e}", file=sys.stderr)
        return 2
    except GusspError as e:
        print(f"gussp: solver failure: {e}", file=sys.stderr)
        return 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "plan" and args.convergence_log and args.algorithm != "vi":
        parser.error("--convergence-log needs --algorithm vi")
    return exit_code(lambda: _cmd_plan(args) if args.command == "plan" else _cmd_arbor(args))


if __name__ == "__main__":
    sys.exit(main())
