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
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from .compiler import DEFAULT_STATE_BUDGET, CompiledSsp, Reachable, compile_gussp, enumerate_reachable
from .determinize import PlanCache, execute_determinized
from .harness_types import Episode, TraceRow, run_episode
from .heuristics import DistanceOracle, build_distance_oracle, make_heuristic
from .model import Action, GusspModel, KnowledgeVector, State
from .rng import derive_seed, make_rng
from .solvers import ValueTable, bellman_backup, flares, lao_star, value_iteration

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
    state_budget: int = DEFAULT_STATE_BUDGET


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


def execute_policy(
    model: GusspModel,
    ssp: CompiledSsp,
    table: ValueTable,
    policy: Dict[int, Action],
    g_mask: int,
    rng,
    *,
    step_budget: int = 100_000,
    collect_trace: bool = False,
    replan: Optional[Callable[[int], Optional[Action]]] = None,
) -> Episode:
    """Walk one episode under a solved (possibly partial) policy.

    ``run_episode`` with an actor over the interned ``(s, k)``.  ``replan``,
    when given, picks the action at every visited state and may keep solving
    as a side effect; trial-based planners use it to extend their labeled
    region whenever execution leaves it.  Otherwise states the policy never
    covered fall back to a one-step greedy choice on the value table."""

    def act(s: State, k: KnowledgeVector) -> Action:
        i = ssp.intern(s, k)
        a = replan(i) if replan is not None else policy.get(i)
        return a if a is not None else bellman_backup(ssp, table, i)[1]

    return run_episode(
        model, g_mask, rng, act, step_budget=step_budget, collect_trace=collect_trace,
    )


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
    """Plan as ``spec.algorithm`` requires, then run one trial loop over its
    episodes.  vi, lao and flares solve up front; the det baselines plan
    inside each episode.  Planning booked on an episode counts as planning.
    ``reachable`` is numbered by the ``ssp`` it was enumerated from, so it
    needs that ``ssp`` too."""
    if reachable is not None and ssp is None:
        raise ValueError("reachable= needs the ssp= it was enumerated from")
    if spec.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {spec.algorithm!r}")
    if spec.algorithm in ("lao", "flares") and spec.heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {spec.heuristic!r}")

    det = spec.algorithm.startswith("det-")
    heuristic = "" if det else spec.heuristic
    episode: Callable[[int, int], Episode]
    value_start = compiled_states = solver_stat = None
    exhausted = False
    plan_time = 0.0

    if det:
        selector = spec.algorithm[len("det-"):]
        if selector == "cg" and oracle is None:
            oracle = build_distance_oracle(model)
        cache = PlanCache(model, epsilon=spec.epsilon)

        def episode(g_mask: int, trial: int) -> Episode:
            return execute_determinized(
                model, selector, g_mask,
                seed=derive_seed(spec.seed, trial),
                oracle=oracle,
                plan_cache=cache,
                collect_trace=collect_traces,
            )
    else:
        if ssp is None:
            ssp = compile_gussp(model)
        # the array backend's one-time import is not planning: vi's matrices
        # and the prior's posterior queries use numpy
        import numpy  # noqa: F401
        if spec.algorithm == "vi":
            import scipy.sparse  # noqa: F401

        t0 = time.perf_counter()
        if spec.algorithm == "vi":
            if reachable is None:
                reachable = enumerate_reachable(ssp, spec.state_budget)
            result = value_iteration(
                ssp, epsilon=spec.epsilon, reachable=reachable, on_sweep=on_sweep
            )
            compiled_states = len(reachable)
            solver_stat = result.sweeps
        else:
            h = make_heuristic(spec.heuristic, ssp, oracle)
            if spec.algorithm == "lao":
                result = lao_star(ssp, h, epsilon=spec.epsilon)
                solver_stat = result.expanded
            else:
                result = flares(
                    ssp, h, horizon=spec.flares_horizon, epsilon=spec.epsilon, seed=spec.seed,
                )
                solver_stat = result.trials
                exhausted = result.exhausted
            compiled_states = len(ssp)
        plan_time = time.perf_counter() - t0
        table, policy = result.table, result.policy
        value_start = table.value(ssp.start_id)

        replan: Optional[Callable[[int], Optional[Action]]] = None
        replanned = [0.0]  # re-solve time of the running episode
        if spec.algorithm == "flares":
            reseed = itertools.count(spec.seed + 1)

            def replan(i: int) -> Optional[Action]:
                # execution left the labeled region: run more trials from here,
                # booking the effort as planning like the replanning baselines do
                if i not in table.depth_solved and not ssp.is_goal(i):
                    t_r = time.perf_counter()
                    flares(
                        ssp, h, horizon=spec.flares_horizon, epsilon=spec.epsilon,
                        seed=next(reseed), start=i, table=table,
                    )
                    replanned[0] += time.perf_counter() - t_r
                v, a, _ = bellman_backup(ssp, table, i)
                table.values[i] = v
                return a

        def episode(g_mask: int, trial: int) -> Episode:
            out = execute_policy(
                model, ssp, table, policy, g_mask,
                make_rng("exec", spec.seed, trial),
                collect_trace=collect_traces,
                replan=replan,
            )
            out.plan_time, replanned[0] = replanned[0], 0.0
            return out

    records: List[TrialRecord] = []
    traces: List[List[TraceRow]] = []
    plan_time_first = plan_time
    booked = 0.0
    t1 = time.perf_counter()
    for trial in range(spec.trials):
        g_mask = model.sample_config(make_rng("config", spec.seed, trial))
        out = episode(g_mask, trial)
        if det and trial == 0:
            plan_time_first = out.plan_time
        booked += out.plan_time
        records.append(TrialRecord(
            instance=spec.name, algorithm=spec.algorithm, heuristic=heuristic,
            trial=trial, config=_config_string(g_mask), cost=out.cost,
            steps=out.steps, replans=out.replans, failed=out.failed,
        ))
        if out.trace is not None:
            traces.append(out.trace)
    exec_time = time.perf_counter() - t1
    if det:
        solver_stat = len(cache)
    return _cell_result(
        spec, heuristic, records, traces,
        value_start=value_start, compiled_states=compiled_states,
        solver_stat=solver_stat, exhausted=exhausted,
        plan_time_first=plan_time_first,
        plan_time_total=plan_time + booked,
        exec_time_total=exec_time - booked,
    )


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
