"""Benchmark harness: solve, execute, aggregate, report.

A *cell* is one (instance, algorithm, heuristic) combination.  Running a
cell plans as required by the algorithm, executes a batch of trials with
per-trial true configurations sampled from the prior, and aggregates costs
into a report row.  Trial randomness is derived from (seed, trial index),
so batches are reproducible and the sampled configurations are paired
across algorithms run with the same seed.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, TextIO, Tuple

from .compiler import DEFAULT_STATE_BUDGET, CompiledSsp, Reachable, compile_gussp, enumerate_reachable
from .determinize import DetTrial, PlanCache, execute_determinized
from .harness_types import TraceRow
from .heuristics import DistanceOracle, build_distance_oracle, make_heuristic
from .model import Action, GusspModel, apply_observation, step_world
from .rng import derive_seed, make_rng
from .solvers import (
    Policy,
    ValueTable,
    bellman_backup,
    flares,
    greedy_action,
    lao_star,
    value_iteration,
)

ALGORITHMS = ("vi", "lao", "flares", "det-mlg", "det-cg")
HEURISTICS = ("zero", "hmin", "hpg")


@dataclass(frozen=True)
class CellSpec:
    """One benchmark cell.  ``heuristic`` only matters for lao and flares."""

    name: str
    algorithm: str
    heuristic: str = "hpg"
    trials: int = 30
    seed: int = 0
    epsilon: float = 1e-6
    flares_horizon: Optional[float] = 1
    flares_trials: int = 100_000
    state_budget: int = DEFAULT_STATE_BUDGET
    step_budget: int = 100_000


@dataclass
class TrialRecord:
    instance: str
    algorithm: str
    heuristic: str
    trial: int
    config: str       # true goal indices, e.g. "0+2"
    cost: float
    steps: int
    replans: int
    failed: bool


@dataclass
class BenchmarkReport:
    instance: str
    algorithm: str
    heuristic: str
    trials: int
    seed: int
    epsilon: float
    mean_cost: float
    stderr_cost: float
    mean_steps: float
    mean_replans: float
    failures: int
    value_start: Optional[float]
    compiled_states: Optional[int]
    solver_stat: Optional[int]   # sweeps / expansions / trials, by algorithm
    exhausted: bool
    plan_time_first: float
    plan_time_total: float
    exec_time_total: float


REPORT_FIELDS = [f for f in BenchmarkReport.__dataclass_fields__]
TRIAL_FIELDS = [f for f in TrialRecord.__dataclass_fields__]
_TIME_FIELDS = ("plan_time_first", "plan_time_total", "exec_time_total")


@dataclass
class CellResult:
    report: BenchmarkReport
    trials: List[TrialRecord]
    traces: List[List[TraceRow]] = field(default_factory=list)


@dataclass
class ExecTrial:
    cost: float
    steps: int
    failed: bool
    trace: Optional[List[TraceRow]]


def execute_policy(
    model: GusspModel,
    ssp: CompiledSsp,
    table: ValueTable,
    policy: Policy,
    g_mask: int,
    rng,
    *,
    step_budget: int = 100_000,
    collect_trace: bool = False,
    replan: Optional[Callable[[int], Optional[Action]]] = None,
) -> ExecTrial:
    """Walk one episode under a solved (possibly partial) policy.

    ``replan``, when given, picks the action at every visited state and may
    keep solving as a side effect; trial-based planners use it to extend
    their labeled region whenever execution leaves it.  Otherwise states
    the policy never covered fall back to a one-step greedy choice on the
    value table."""
    s = model.start_state
    k = model.knowledge_all_unknown()
    i = ssp.intern(s, k)
    cost = 0.0
    steps = 0
    trace: Optional[List[TraceRow]] = [] if collect_trace else None
    while not model.is_terminal(s, k):
        if steps >= step_budget:
            return ExecTrial(cost, steps, True, trace)
        a = replan(i) if replan is not None else policy.get(i)
        if a is None:
            a = greedy_action(ssp, table, i)
        s2, paid, obs = step_world(model, s, a, g_mask, rng)
        k2 = apply_observation(k, obs)
        if trace is not None:
            trace.append(TraceRow(steps, s, str(k), a, cost, str(obs)))
        cost += paid
        s, k = s2, k2
        i = ssp.intern(s, k)
        steps += 1
    cost += model.exit_cost(s)
    if trace is not None:
        trace.append(TraceRow(steps, s, str(k), None, cost, "-"))
    return ExecTrial(cost, steps, False, trace)


def _config_string(g_mask: int) -> str:
    return "+".join(str(i) for i in range(g_mask.bit_length()) if g_mask & (1 << i))


def _mean_stderr(xs: Sequence[float]) -> Tuple[float, float]:
    if not xs:
        return math.nan, math.nan
    mean = statistics.fmean(xs)
    if len(xs) < 2:
        return mean, 0.0
    return mean, statistics.stdev(xs) / math.sqrt(len(xs))


def _cell_result(
    spec: CellSpec, heuristic: str, records: List[TrialRecord],
    traces: List[List[TraceRow]], **solver_fields,
) -> CellResult:
    """One report over a cell's trial records plus its solver's fields."""
    mean, stderr = _mean_stderr([r.cost for r in records])
    report = BenchmarkReport(
        instance=spec.name, algorithm=spec.algorithm, heuristic=heuristic,
        trials=spec.trials, seed=spec.seed, epsilon=spec.epsilon,
        mean_cost=mean, stderr_cost=stderr,
        mean_steps=statistics.fmean(r.steps for r in records) if records else math.nan,
        mean_replans=statistics.fmean(r.replans for r in records) if records else 0.0,
        failures=sum(r.failed for r in records),
        **solver_fields,
    )
    return CellResult(report=report, trials=records, traces=traces)


def run_cell(
    model: GusspModel,
    spec: CellSpec,
    *,
    ssp: Optional[CompiledSsp] = None,
    reachable: Optional[Reachable] = None,
    oracle: Optional[DistanceOracle] = None,
    collect_traces: bool = False,
    on_sweep: Optional[Callable[[int, float, object], None]] = None,
) -> CellResult:
    if spec.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {spec.algorithm!r}")
    if spec.algorithm in ("lao", "flares") and spec.heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {spec.heuristic!r}")

    if spec.algorithm.startswith("det-"):
        return _run_det_cell(model, spec, oracle, collect_traces)

    if ssp is None:
        ssp = compile_gussp(model)
    table: ValueTable
    policy: Policy
    value_start: Optional[float]
    compiled_states: Optional[int] = None
    solver_stat: Optional[int] = None
    exhausted = False

    if spec.algorithm == "vi":
        # the array backend's one-time import is not planning
        import numpy, scipy.sparse  # noqa: F401

    t0 = time.perf_counter()
    if spec.algorithm == "vi":
        if reachable is None:
            reachable = enumerate_reachable(ssp, spec.state_budget)
        result = value_iteration(
            ssp, epsilon=spec.epsilon, reachable=reachable, on_sweep=on_sweep
        )
        table, policy = result.table, result.policy
        compiled_states = len(reachable)
        solver_stat = result.sweeps
    else:
        h = make_heuristic(spec.heuristic, ssp, oracle)
        if spec.algorithm == "lao":
            result = lao_star(ssp, h, epsilon=spec.epsilon)
            table, policy = result.table, result.policy
            solver_stat = result.expanded
        else:
            result = flares(
                ssp,
                h,
                horizon=spec.flares_horizon,
                epsilon=spec.epsilon,
                max_trials=spec.flares_trials,
                seed=spec.seed,
            )
            table, policy = result.table, result.policy
            solver_stat = result.trials
            exhausted = result.exhausted
        compiled_states = len(ssp)
    plan_time = time.perf_counter() - t0
    value_start = table.value(ssp.start_id)

    replan: Optional[Callable[[int], Optional[Action]]] = None
    replan_time = [0.0]
    if spec.algorithm == "flares":
        reseed = itertools.count(spec.seed + 1)

        def replan(i: int, _h=h) -> Optional[Action]:
            # execution left the labeled region: run more trials from here,
            # booking the effort as planning like the replanning baselines do
            if i not in table.depth_solved and not ssp.is_goal(i):
                t_r = time.perf_counter()
                flares(
                    ssp, _h, horizon=spec.flares_horizon, epsilon=spec.epsilon,
                    max_trials=spec.flares_trials, seed=next(reseed),
                    start=i, table=table,
                )
                replan_time[0] += time.perf_counter() - t_r
            v, a, _ = bellman_backup(ssp, table, i)
            table.values[i] = v
            return a

    records: List[TrialRecord] = []
    traces: List[List[TraceRow]] = []
    t1 = time.perf_counter()
    for trial in range(spec.trials):
        g_mask = model.sample_config(make_rng("config", spec.seed, trial))
        out = execute_policy(
            model, ssp, table, policy, g_mask,
            make_rng("exec", spec.seed, trial),
            step_budget=spec.step_budget,
            collect_trace=collect_traces,
            replan=replan,
        )
        records.append(TrialRecord(
            instance=spec.name, algorithm=spec.algorithm, heuristic=spec.heuristic,
            trial=trial, config=_config_string(g_mask), cost=out.cost,
            steps=out.steps, replans=0, failed=out.failed,
        ))
        if collect_traces and out.trace is not None:
            traces.append(out.trace)
    exec_time = time.perf_counter() - t1
    return _cell_result(
        spec, spec.heuristic, records, traces,
        value_start=value_start, compiled_states=compiled_states,
        solver_stat=solver_stat, exhausted=exhausted,
        plan_time_first=plan_time,
        plan_time_total=plan_time + replan_time[0],
        exec_time_total=exec_time - replan_time[0],
    )


def _run_det_cell(
    model: GusspModel,
    spec: CellSpec,
    oracle: Optional[DistanceOracle],
    collect_traces: bool,
) -> CellResult:
    selector = spec.algorithm.split("-", 1)[1]
    if selector == "cg" and oracle is None:
        oracle = build_distance_oracle(model)
    cache = PlanCache(model, epsilon=spec.epsilon, oracle=oracle)

    records: List[TrialRecord] = []
    traces: List[List[TraceRow]] = []
    plan_time_first = 0.0
    plan_time_total = 0.0
    t0 = time.perf_counter()
    for trial in range(spec.trials):
        g_mask = model.sample_config(make_rng("config", spec.seed, trial))
        out: DetTrial = execute_determinized(
            model, selector, g_mask,
            seed=derive_seed(spec.seed, trial),
            oracle=oracle,
            plan_cache=cache,
            step_budget=spec.step_budget,
            collect_trace=collect_traces,
        )
        if trial == 0:
            plan_time_first = out.plan_time
        plan_time_total += out.plan_time
        records.append(TrialRecord(
            instance=spec.name, algorithm=spec.algorithm, heuristic="",
            trial=trial, config=_config_string(g_mask), cost=out.cost,
            steps=out.steps, replans=out.replans, failed=out.failed,
        ))
        if collect_traces and out.trace is not None:
            traces.append(out.trace)
    total_time = time.perf_counter() - t0
    return _cell_result(
        spec, "", records, traces,
        value_start=None, compiled_states=None, solver_stat=len(cache._plans),
        exhausted=False,
        plan_time_first=plan_time_first, plan_time_total=plan_time_total,
        exec_time_total=total_time - plan_time_total,
    )


def run_matrix(
    jobs: Sequence[Tuple[GusspModel, CellSpec]],
    *,
    threads: Optional[int] = None,
) -> List[CellResult]:
    """Run many cells, optionally in parallel (GUSSP_THREADS or ``threads``)."""
    if threads is None:
        threads = int(os.environ.get("GUSSP_THREADS", "1"))
    if threads <= 1:
        return [run_cell(model, spec) for model, spec in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run_cell, model, spec) for model, spec in jobs]
        return [f.result() for f in futures]


# -- output formatting -------------------------------------------------------

def strip_timing(report: BenchmarkReport) -> BenchmarkReport:
    """Zero the wall-clock fields so output is byte-reproducible."""
    return replace(report, **{name: 0.0 for name in _TIME_FIELDS})


def _format_value(name: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if name in _TIME_FIELDS:
            return f"{value:.4f}"
        return f"{value:.6f}"
    return str(value)


def write_report_csv(stream: TextIO, reports: Sequence[BenchmarkReport]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for r in reports:
        writer.writerow([_format_value(f, getattr(r, f)) for f in REPORT_FIELDS])


def write_trials_csv(stream: TextIO, trials: Sequence[TrialRecord]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRIAL_FIELDS)
    for t in trials:
        writer.writerow([_format_value(f, getattr(t, f)) for f in TRIAL_FIELDS])


def format_pretty(reports: Sequence[BenchmarkReport]) -> str:
    cols = ["instance", "algorithm", "heuristic", "trials", "mean_cost",
            "stderr_cost", "mean_replans", "failures", "value_start",
            "plan_time_total"]
    rows = [cols] + [
        [_format_value(c, getattr(r, c)) for c in cols] for r in reports
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(cols))]
    lines = []
    for j, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def emit_trace(stream: TextIO, traces: Sequence[Sequence[TraceRow]]) -> None:
    stream.write("trial\tstep\tstate\tknowledge\taction\tcost_so_far\tobservation\n")
    for trial, rows in enumerate(traces):
        for row in rows:
            stream.write(f"{trial}\t" + row.format() + "\n")
