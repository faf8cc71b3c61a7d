"""Workload definitions, instance set-up and the per-cell correctness gate.

A workload is a fixed list of cells (instance x algorithm x heuristic) run
through ``gussp.harness.run_cell``.  Bundled instance files never change;
the workload seed picks the generated many-goal maps of ``search`` and the
trial seed of every cell.  See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from gussp.domains import PriorSpec, grid, io
from gussp.harness import BenchmarkReport, CellSpec
from gussp.rng import derive_seed, make_rng

WORKLOADS = ("exact", "search", "execute")

# vi start value and reachable compiled states per bundled instance, derived
# with perfbench/derive_refs.py; vi and LAO*+hpg agreed on every instance,
# and the raw-belief oracle of tests/oracles.py on those up to 2,000 states
REFERENCES: Dict[str, Tuple[float, int]] = {
    "line4": (2.333333333333333, 7),
    "ev8": (7.439556494192186, 47),
    "search4": (10.333333333333332, 450),
    "rover6": (6.464285714277219, 855),
    "grid8_landmark": (7.0588235288796035, 597),
    "grid12": (19.111111111110304, 1845),
    "rover20": (17.67460317459059, 262080),
}

VI_TOL = 1e-6      # the solvers' residual tolerance
LAO_TOL = 1e-4     # LAO* stops on a residual, so its start value may sit below vi's
MC_SIGMAS = 6.0    # Monte Carlo mean vs exact value, in standard errors
# below this, or with every trial costing the same, the standard error is
# no estimate of the mean's spread
MC_MIN_TRIALS = 30

# many-goal maps of the search workload: 12x12 random grids with 14 goals.
# Bernoulli marginals are drawn from [0.3, 0.7]; lower marginals or 16 goals
# make single maps take over a minute, which a fixed-length run cannot absorb.
MAP_SIZE = 12
MAP_GOALS = 14
MAPS_PER_PRIOR = 8


@dataclass
class Cell:
    instance: str
    spec: CellSpec
    # cells of one map share a key so flares can be checked against lao
    group: str = ""


@dataclass
class Instances:
    """Instance parameters (kept to rebuild cold models) and current models."""

    params: Dict[str, object] = field(default_factory=dict)
    models: Dict[str, object] = field(default_factory=dict)

    def rebuild(self) -> None:
        # a pass drops each model after its cells; every pass starts cold
        self.models = {name: io.build_model(p) for name, p in self.params.items()}


def _map_params(seed: int, prior: str, j: int):
    if prior == "uniform":
        spec = PriorSpec()
    else:
        rng = make_rng("perfbench-marginals", seed, j)
        spec = PriorSpec(
            "bernoulli",
            marginals=tuple(round(rng.uniform(0.3, 0.7), 3) for _ in range(MAP_GOALS)),
        )
    return grid.random_grid(
        derive_seed("perfbench-map", seed, prior, j),
        width=MAP_SIZE, height=MAP_SIZE, n_goals=MAP_GOALS, prior=spec,
    )


def _smoke_map_params(seed: int, prior: str):
    spec = PriorSpec() if prior == "uniform" else PriorSpec("bernoulli", marginals=(0.5, 0.4, 0.6))
    return grid.random_grid(derive_seed("perfbench-map", seed, prior, 0), width=5, height=5,
                            n_goals=3, prior=spec)


def plan(workload: str, seed: int, smoke: bool) -> Tuple[List[Cell], Dict[str, object]]:
    """Cells of one pass, and each instance's generated parameters (None for
    a bundled instance file)."""
    files: List[str] = []
    generated: Dict[str, object] = {}
    cells: List[Cell] = []

    def add(instance: str, algorithm: str, heuristic: str = "hpg", trials: int = 30,
            group: str = "") -> None:
        spec = CellSpec(name=instance, algorithm=algorithm, heuristic=heuristic,
                        trials=trials, seed=seed)
        cells.append(Cell(instance, spec, group))

    if workload == "exact":
        files = ["line4", "ev8"] if smoke else ["grid12", "search4", "rover6", "rover20"]
        for name in files:
            add(name, "vi", trials=5 if smoke else 30)
    elif workload == "search":
        fixed = "line4" if smoke else "rover20"
        files = [fixed]
        trials = 5 if smoke else 30
        for alg in ("lao", "flares"):
            for h in ("hpg", "hmin"):
                add(fixed, alg, h, trials)
        for prior in ("uniform", "bernoulli"):
            for j in range(1 if smoke else MAPS_PER_PRIOR):
                name = f"map-{prior}-{j}"
                generated[name] = (
                    _smoke_map_params(seed, prior) if smoke else _map_params(seed, prior, j)
                )
                add(name, "lao", "hpg", trials, group=name)
                add(name, "flares", "hpg", trials, group=name)
    elif workload == "execute":
        files = ["line4", "ev8"] if smoke else ["grid12", "search4", "rover6", "grid8_landmark", "ev8"]
        trials = 20 if smoke else 3000
        for name in files:
            add(name, "vi", trials=trials)
        det_on = files if smoke else files + ["rover20"]
        for name in det_on:
            add(name, "det-mlg", "", trials)
            add(name, "det-cg", "", trials)
        add(files[0], "flares", "hpg", trials)
        files = det_on
    else:
        raise ValueError(f"unknown workload {workload!r}")

    sources: Dict[str, object] = dict.fromkeys(files)
    sources.update(generated)
    return cells, sources


def load(root: str, sources: Dict[str, object]) -> Instances:
    """Parse the bundled files and build every model (timed as set-up)."""
    inst = Instances()
    for name, params in sources.items():
        if params is None:
            params, model = io.load_instance(os.path.join(root, "instances", f"{name}.txt"))
        else:
            model = io.build_model(params)
        inst.params[name] = params
        inst.models[name] = model
    return inst


def outputs(report: BenchmarkReport) -> Dict[str, object]:
    """The deterministic outputs of a cell: equal across passes and tracing."""
    return {
        "value_start": report.value_start,
        "compiled_states": report.compiled_states,
        "solver_stat": report.solver_stat,
        "mean_cost": report.mean_cost,
        "failures": report.failures,
    }


def check(cell: Cell, report: BenchmarkReport, lao_values: Dict[str, float]) -> Optional[str]:
    """Return why ``report`` is wrong, or None.  Records lao values by group."""
    alg = cell.spec.algorithm
    ref = REFERENCES.get(cell.instance)
    v_star = ref[0] if ref else None
    v = report.value_start
    if alg == "vi":
        if ref is None:
            return "no reference for vi cell"
        if abs(v - v_star) > VI_TOL * max(1.0, abs(v_star)):
            return f"value_start {v!r} != reference {v_star!r}"
        if report.compiled_states != ref[1]:
            return f"compiled_states {report.compiled_states} != reference {ref[1]}"
    elif alg == "lao":
        if v_star is not None and abs(v - v_star) > LAO_TOL * max(1.0, abs(v_star)):
            return f"lao value_start {v!r} != reference {v_star!r}"
        if cell.group:
            lao_values[cell.group] = v
    elif alg == "flares":
        bound = v_star if v_star is not None else lao_values.get(cell.group)
        # admissible values stay below the optimum under Bellman backups
        if bound is not None and v > bound + LAO_TOL * max(1.0, abs(bound)):
            return f"flares value_start {v!r} above optimum {bound!r}"
    if report.failures:
        return None  # failed trials are counted as failed, not as a wrong answer
    sampled = report.trials >= MC_MIN_TRIALS and report.stderr_cost > 0
    if alg in ("vi", "lao") and sampled:
        tol = MC_SIGMAS * report.stderr_cost + VI_TOL * max(1.0, abs(v))
        if abs(report.mean_cost - v) > tol:
            return f"mean_cost {report.mean_cost!r} not within {tol:.3g} of value {v!r}"
    if alg.startswith("det-") and v_star is not None and sampled:
        # a determinization never beats the optimal policy in expectation
        if report.mean_cost < v_star - MC_SIGMAS * report.stderr_cost - VI_TOL:
            return f"mean_cost {report.mean_cost!r} below optimum {v_star!r}"
    if math.isnan(report.mean_cost):
        return "mean_cost is nan"
    return None

