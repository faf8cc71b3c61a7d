"""In-memory span tracer that wraps gussp's layer entry points from outside.

``install`` replaces the module and class attributes that callers resolve at
call time (``gussp.harness.enumerate_reachable``,
``gussp.determinize.value_iteration``, ``CompiledSsp.successors`` and so
on), so nothing under ``src/`` is edited.  Spans nest on one stack, as the
program is single-threaded: a span's self time is its duration minus the
durations of the spans it directly encloses.  Per-call hot paths
(successor lookups, Bellman backups) are counted, not timed, so their cost
stays in the enclosing span's self time.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from collections import Counter
from typing import Callable, Dict, List

import gussp.compiler as compiler
import gussp.determinize as determinize
import gussp.domains.grid as grid
import gussp.domains.io as domains_io
import gussp.harness as harness
import gussp.heuristics as heuristics
import gussp.model as model
import gussp.solvers as solvers

# span name whose durations are kept one by one, for percentiles
EPISODE = "harness.episode"


class Tracer:
    """Span stack plus per-name (calls, total, self) sums and plain counters
    (integer counts, and the VI phase times in seconds)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[list] = []  # [name, start, time covered by children]
        self.stats: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        self.episodes: List[float] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += duration
        st[2] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if name == EPISODE:
            self.episodes.append(duration)
        return duration

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch gussp's layer entry points to report to ``tracer``.

    Returns a function that restores the original attributes."""
    saved = []
    counts = tracer.counts
    clock = tracer.clock

    def patch(owners, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owners[0], attr)
        replacement = make(original)
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def spanned(name, key: str = "", measure: Callable = len):
        """Wrap calls in a span ``name``: a string, or a function of the
        call's keyword arguments.  With ``key``, add ``measure(result)`` to
        that counter."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.enter(name(kwargs) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit()
                if key:
                    counts[key] += measure(result)
                return result
            return wrapper
        return make

    unique: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def successors(fn):
        @functools.wraps(fn)
        def wrapper(self, i, a):
            counts["compiler.successor_calls"] += 1
            seen = unique.get(self)
            if seen is None:
                seen = unique[self] = set()
            if (i, a) not in seen:
                seen.add((i, a))
                counts["compiler.successor_unique"] += 1
            return fn(self, i, a)
        return wrapper

    def counted(key: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def value_iteration(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            user = kwargs.get("on_sweep")
            marks: List[float] = []

            def on_sweep(sweep, residual, values):
                marks.append(clock())
                if user is not None:
                    user(sweep, residual, values)

            kwargs["on_sweep"] = on_sweep
            tracer.enter("solvers.vi")
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.exit()
                if marks:
                    counts["solvers.vi_sweeps"] += len(marks)
                    counts["solvers.vi_assembly_s"] += marks[0] - start
                    counts["solvers.vi_sweeps_s"] += marks[-1] - marks[0]
                    counts["solvers.vi_extract_s"] += end - marks[-1]
        return wrapper

    def flares_span(kwargs) -> str:
        # the harness re-enters flares from the episode loop with start=
        return "solvers.flares_replan" if kwargs.get("start") is not None else "solvers.flares"

    patch([domains_io], "load_instance", spanned("domains.load"))
    patch([domains_io], "build_model", spanned("domains.load"))
    patch([grid], "random_grid", spanned("domains.load"))
    patch([harness, compiler], "compile_gussp", spanned("compiler.compile"))
    patch([harness, determinize, solvers, compiler], "enumerate_reachable",
          spanned("compiler.enumerate", "compiler.reachable_states"))
    patch([compiler.CompiledSsp], "successors", successors)
    # the posterior layer: conditioning the prior on a knowledge vector, and
    # hpg's private per-knowledge-vector loop over that posterior.  A rewrite
    # may drop the helper; its work then stays in heuristics.eval.  The
    # compiler's _revelation_branches is not wrapped: nearly all of its calls
    # take a constant-time exit, so a span would time mostly itself.
    patch([model.GoalPrior], "posterior", spanned("model.posterior"))
    patch([model.GoalPrior], "marginal", spanned("model.posterior"))
    if hasattr(heuristics.HpgHeuristic, "_multipliers"):
        patch([heuristics.HpgHeuristic], "_multipliers", spanned("model.posterior"))
    patch([harness, heuristics, determinize], "build_distance_oracle", spanned("heuristics.oracle"))
    patch([heuristics.HpgHeuristic], "__call__", spanned("heuristics.eval"))
    patch([heuristics.HminHeuristic], "__call__", spanned("heuristics.eval"))
    patch([harness, determinize], "value_iteration", value_iteration)
    patch([harness, determinize], "lao_star",
          spanned("solvers.lao", "solvers.lao_expanded", lambda r: r.expanded))
    patch([harness], "flares",
          spanned(flares_span, "solvers.flares_trials", lambda r: r.trials))
    patch([solvers, harness], "bellman_backup", counted("solvers.backups"))
    patch([determinize.PlanCache], "plan_for", spanned("determinize.plan"))
    patch([harness], "execute_policy", spanned(EPISODE))
    patch([harness], "execute_determinized", spanned(EPISODE))
    patch([harness], "run_cell", spanned("harness.run_cell"))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def _percentile(sorted_xs: List[float], q: float) -> float:
    # nearest rank: the smallest sample with at least q of the samples at or below it
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def layer_metrics(tracer: Tracer, results: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``results`` are the pass's cell records (algorithm, outputs, steps and
    episode counts); timings come from the tracer.  Every ``_s`` metric is a
    self time, except the three VI phases, which split the VI span."""
    c = tracer.counts
    episodes = sorted(tracer.episodes)
    det = [r for r in results if r["algorithm"].startswith("det-") and r["outputs"]]
    plans_built = sum(r["outputs"]["solver_stat"] for r in det)
    plan_calls = tracer.calls("determinize.plan")
    calls = c["compiler.successor_calls"]
    return {
        "domains.load_s": tracer.self_time("domains.load"),
        "compiler.compile_s": tracer.self_time("compiler.compile"),
        "compiler.enumerate_s": tracer.self_time("compiler.enumerate"),
        "compiler.enumerate_calls": tracer.calls("compiler.enumerate"),
        "compiler.reachable_states": c["compiler.reachable_states"],
        "compiler.compiled_states": sum(
            r["outputs"]["compiled_states"] or 0 for r in results if r["outputs"]),
        "compiler.successor_calls": calls,
        "compiler.successor_hit_ratio":
            1.0 - c["compiler.successor_unique"] / calls if calls else 0.0,
        "model.posterior_s": tracer.self_time("model.posterior"),
        "model.posterior_calls": tracer.calls("model.posterior"),
        "heuristics.oracle_s": tracer.self_time("heuristics.oracle"),
        "heuristics.eval_s": tracer.self_time("heuristics.eval"),
        "heuristics.evals": tracer.calls("heuristics.eval"),
        "solvers.vi_assembly_s": c["solvers.vi_assembly_s"],
        "solvers.vi_sweeps_s": c["solvers.vi_sweeps_s"],
        "solvers.vi_extract_s": c["solvers.vi_extract_s"],
        "solvers.vi_sweeps": c["solvers.vi_sweeps"],
        "solvers.lao_s": tracer.self_time("solvers.lao"),
        "solvers.lao_expanded": c["solvers.lao_expanded"],
        "solvers.flares_s": tracer.self_time("solvers.flares"),
        "solvers.flares_trials": c["solvers.flares_trials"],
        "solvers.flares_replan_s": tracer.self_time("solvers.flares_replan"),
        "solvers.backups": c["solvers.backups"],
        "determinize.plan_s": tracer.self_time("determinize.plan"),
        "determinize.plan_calls": plan_calls,
        "determinize.plans_built": plans_built,
        "determinize.plan_hit_ratio": 1.0 - plans_built / plan_calls if plan_calls else 0.0,
        "harness.exec_s": tracer.self_time(EPISODE),
        "harness.episodes": sum(r["episodes"] for r in results),
        "harness.steps": sum(r["steps"] for r in results),
        "harness.episode_us_p50": _percentile(episodes, 0.5) * 1e6 if episodes else 0.0,
        "harness.episode_us_p99": _percentile(episodes, 0.99) * 1e6 if episodes else 0.0,
        "harness.episode_samples": len(episodes),
        "harness.cell_overhead_s": tracer.self_time("harness.run_cell"),
    }
