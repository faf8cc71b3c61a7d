"""Release gate: one test per release-blocking behavior.

Every test prints a single ``[PASS]``/``[FAIL]`` verdict line before
asserting, so ``pytest tests/test_acceptance.py -v -s`` reads as a checklist
even when something is red.  The checks here are end to end and deliberately
re-derive their expectations (brute-force references, hand-computed
constants, independent reruns) instead of trusting the library.
"""

import math
import random
import time
from pathlib import Path

import pytest

from gussp.arborescence import (
    audit_goal_graph,
    min_arborescence,
    visiting_order_oracle,
)
from gussp.cli import main
from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.determinize import PlanCache, execute_determinized
from gussp.domains import (
    EvParams,
    GridParams,
    PriorSpec,
    RoverParams,
    SearchRescueParams,
    build_ev,
    build_grid,
    build_rover,
    build_search_rescue,
    clustered_rover,
    line4,
    load_instance,
    random_grid,
    random_rover,
)
from gussp.harness import (
    CellSpec,
    build_distance_oracle,
    execute_policy,
    run_cell,
)
from gussp.heuristics import make_heuristic
from gussp.errors import UnreachableVertex
from gussp.model import KnowledgeVector, Status, apply_observation, step_world
from gussp.rng import make_rng
from gussp.solvers import lao_star, value_iteration
from oracles import belief_space_start_value, brute_force_arborescence

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
LINE4 = str(INSTANCE_DIR / "line4.txt")


def _gate(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{verdict}] criterion {number}: {label}{suffix}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def bundled():
    out = {}
    for path in sorted(INSTANCE_DIR.glob("*.txt")):
        _params, model = load_instance(path)
        out[path.stem] = model
    return out


@pytest.fixture(scope="module")
def bundled_solved(bundled):
    """Compiled space, reachable set, and exact values for each instance."""
    out = {}
    for name, model in bundled.items():
        ssp = compile_gussp(model)
        reach = enumerate_reachable(ssp)
        vi = value_iteration(ssp, reachable=reach, epsilon=1e-8)
        out[name] = (model, ssp, reach, vi)
    return out


@pytest.fixture(scope="module")
def trend_models():
    """Two map geometries per size: sites packed together and spread out."""
    specs = {
        "r20x6c": clustered_rover(1, width=20, n_goals=6),
        "r20x9": random_rover(102, n_goals=9),
        "r30x6": random_rover(103, width=30, height=30),
        "r30x9": random_rover(104, width=30, height=30, n_goals=9),
    }
    return {name: build_rover(p) for name, p in specs.items()}


# ---------------------------------------------------------------- criteria


def test_criterion_01_exact_planners_agree():
    shapes = [(5, 5, 2), (7, 6, 3), (8, 8, 3), (10, 10, 4)]
    worst = 0.0
    t0 = time.perf_counter()
    for seed in range(20):
        w, hgt, n = shapes[seed % len(shapes)]
        params = random_grid(
            seed + 40, width=w, height=hgt, n_goals=n,
            n_landmarks=seed % 2, obstacle_density=0.1,
            move_success=1.0 if seed % 3 else 0.85,
        )
        model = build_grid(params)
        ssp = compile_gussp(model)
        vi = value_iteration(ssp, reachable=enumerate_reachable(ssp), epsilon=1e-9)
        h = make_heuristic("hpg", ssp, build_distance_oracle(model))
        lao = lao_star(ssp, h, epsilon=1e-9)
        worst = max(
            worst,
            abs(vi.table.value(ssp.start_id) - lao.table.value(ssp.start_id)),
        )
    elapsed = time.perf_counter() - t0
    _gate(
        1,
        "optimal search matches full sweeps on 20 random grids",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_matches_raw_belief_process():
    models = {
        "line4": build_grid(line4()),
        "grid_landmark": build_grid(GridParams(
            width=3, height=3, start=(0, 0),
            potential_goals=((2, 0), (2, 2)),
            landmarks=(((0, 2), ((2, 0), (2, 2))),), move_success=0.9)),
        "grid_bernoulli": build_grid(GridParams(
            width=4, height=1, start=(0, 0),
            potential_goals=((2, 0), (3, 0)),
            prior=PriorSpec(kind="bernoulli", marginals=(0.7, 0.4)))),
        "rover": build_rover(RoverParams(
            width=3, height=2, start=(0, 0),
            potential_goals=((2, 0), (0, 1)), move_success=0.8)),
        "search": build_search_rescue(SearchRescueParams(
            width=3, height=2, start=(0, 0),
            candidate_cells=((2, 0), (2, 1)), n_victims=1,
            move_success=0.85)),
        "ev_small": build_ev(EvParams(
            times=(2, 3), time_weights=(1.0, 2.0), prices=(1.0, 0.5, 2.0),
            charge_max=2, charge_start=0, target_charge=2, penalty=6.0)),
    }
    worst = 0.0
    for model in models.values():
        assert len(model.base_states) <= 30
        ref = belief_space_start_value(model)
        ssp = compile_gussp(model)
        vi = value_iteration(ssp, reachable=enumerate_reachable(ssp), epsilon=1e-8)
        worst = max(worst, abs(ref - vi.table.value(ssp.start_id)))
    _gate(
        2,
        "compiled values equal the raw belief-process optimum",
        worst <= 1e-6,
        f"{len(models)} domains, worst gap {worst:.2e}",
    )


def test_criterion_03_heuristics_admissible(bundled_solved, small_grids_solved):
    cases = [
        (name, model, ssp, reach, vi)
        for name, (model, ssp, reach, vi) in bundled_solved.items()
        if len(reach) <= 100_000
    ]
    cases += [
        (f"grid5_{params.potential_goals[0]}", model, ssp, reach, vi)
        for params, model, ssp, reach, vi in small_grids_solved
    ]
    worst = -math.inf
    checked = 0
    for _name, model, ssp, reach, vi in cases:
        oracle = build_distance_oracle(model)
        hpg = make_heuristic("hpg", ssp, oracle)
        hmin = make_heuristic("hmin", ssp)
        for i in range(len(reach)):
            v = vi.table.value(i)
            worst = max(worst, hpg(i) - v, hmin(i) - v)
            checked += 1
    _gate(
        3,
        "both heuristics lower-bound the exact value everywhere reachable",
        worst <= 1e-9,
        f"{checked} states over {len(cases)} instances, worst excess {worst:.2e}",
    )


def test_criterion_04_enumeration_and_monotone_knowledge(bundled):
    sizes = {}
    for name, model in bundled.items():
        ssp = compile_gussp(model)
        sizes[name] = len(enumerate_reachable(ssp))
    regressions = 0
    for name, model in bundled.items():
        n = len(model.potential_goals)
        for trial in range(10_000):
            rng = make_rng("walk", 4, trial)
            g_mask = model.sample_config(rng)
            k_true = model.collapsed_knowledge(g_mask)
            s, k = model.start_state, KnowledgeVector(n)
            for _ in range(30):
                a = rng.choice(model.actions)
                s, _paid, obs = step_world(model, s, a, g_mask, k_true, rng)
                k2 = apply_observation(k, obs)
                for i in range(n):
                    st = k.status_of(i)
                    if st is not Status.UNKNOWN and k2.status_of(i) is not st:
                        regressions += 1
                k = k2
    _gate(
        4,
        "state enumeration halts and knowledge never un-confirms",
        all(s > 0 for s in sizes.values()) and regressions == 0,
        f"sizes {sizes}, {regressions} regressions over 10k walks each",
    )


def test_criterion_05_line4_anchor_values(line4_solved):
    ssp, _reach, vi = line4_solved
    v_start = vi.table.value(ssp.start_id)
    model = ssp.model
    oracle = build_distance_oracle(model)
    hpg = make_heuristic("hpg", ssp, oracle)
    cache = PlanCache(model)
    costs = []
    for trial in range(10_000):
        g_mask = model.sample_config(make_rng("config", 5, trial))
        out = execute_determinized(
            model, "cg", g_mask, seed=trial, oracle=oracle, plan_cache=cache,
        )
        costs.append(out.cost)
    mean = sum(costs) / len(costs)
    var = sum((c - mean) ** 2 for c in costs) / (len(costs) - 1)
    stderr = math.sqrt(var / len(costs))
    ok = (
        abs(v_start - 7 / 3) <= 1e-6
        and abs(hpg(ssp.start_id) - 4 / 3) <= 1e-9
        and set(costs) <= {2.0, 3.0}
        and abs(mean - 7 / 3) <= 3 * stderr
    )
    _gate(
        5,
        "four-cell line matches its hand-computed constants",
        ok,
        f"V*={v_start:.9f}, mean={mean:.4f}+-{stderr:.4f} over 10k runs",
    )


def test_criterion_06_determinizations_never_beat_optimal(bundled_solved):
    violations = []
    margins = []
    for name, (model, ssp, _reach, vi) in bundled_solved.items():
        v_star = vi.table.value(ssp.start_id)
        oracle = build_distance_oracle(model)
        for algo in ("det-mlg", "det-cg"):
            cell = run_cell(
                model, CellSpec(name, algo, trials=100, seed=5), oracle=oracle,
            )
            r = cell.report
            slack = r.mean_cost - (v_star - 3 * r.stderr_cost)
            margins.append(slack)
            if slack < 0 or r.failures:
                violations.append((name, algo, slack, r.failures))
    _gate(
        6,
        "relaxed baselines stay above the optimal value on every instance",
        not violations,
        f"16 cells, min slack {min(margins):.3f}" if not violations
        else f"violations {violations}",
    )


def test_criterion_07_scaling_trends(trend_models):
    t_suite = time.perf_counter()
    plan: dict = {}
    mean: dict = {}
    for name, model in trend_models.items():
        ssp = compile_gussp(model)
        oracle = build_distance_oracle(model)
        for heur in ("hpg", "hmin"):
            cell = run_cell(
                model,
                CellSpec(name, "flares", heuristic=heur, trials=50, seed=11),
                ssp=ssp, oracle=oracle,
            )
            plan[(name, heur)] = cell.report.plan_time_total
            mean[(name, f"flares-{heur}")] = cell.report.mean_cost
        if name in ("r20x6c", "r30x9"):
            for algo in ("det-mlg", "det-cg"):
                cell = run_cell(
                    model, CellSpec(name, algo, trials=50, seed=11),
                    oracle=oracle,
                )
                plan[(name, algo)] = cell.report.plan_time_total
                mean[(name, algo)] = cell.report.mean_cost

    wins = sum(
        plan[(n, "hpg")] < plan[(n, "hmin")] for n in trend_models
    )
    dets_faster = (
        plan[("r30x9", "det-mlg")] < plan[("r30x9", "hpg")]
        and plan[("r30x9", "det-cg")] < plan[("r30x9", "hpg")]
    )

    # exact solving is only tractable on the clustered 20x20 map
    model_c = trend_models["r20x6c"]
    ssp_c = compile_gussp(model_c)
    vi_c = value_iteration(ssp_c, reachable=enumerate_reachable(ssp_c))
    v_star = vi_c.table.value(ssp_c.start_id)
    assert abs(v_star - 37.1389) < 1e-2
    ratios = {
        algo: mean[("r20x6c", algo)] / v_star
        for algo in ("flares-hpg", "flares-hmin", "det-mlg", "det-cg")
    }
    elapsed = time.perf_counter() - t_suite
    ok = (
        wins >= 3
        and dets_faster
        and all(r <= 2.0 for r in ratios.values())
        and elapsed < 600.0
    )
    _gate(
        7,
        "planner scaling trends hold across map sizes",
        ok,
        f"belief-aware wins {wins}/4, relaxed faster on 30x30x9: {dets_faster}, "
        f"cost ratios {', '.join(f'{k}={v:.2f}' for k, v in ratios.items())}, "
        f"{elapsed:.0f}s, flares plan s hpg/hmin "
        + ", ".join(f"{n}={plan[(n, 'hpg')]:.2f}/{plan[(n, 'hmin')]:.2f}" for n in trend_models),
    )


def test_criterion_08_branching_matches_exhaustive():
    rng = random.Random(99)
    worst = 0.0
    solved = 0
    disagreements = 0
    for _case in range(1000):
        n = rng.randint(2, 6)
        density = rng.uniform(0.3, 0.9)
        weights = {}
        for u in range(n):
            for v in range(n):
                if u != v and v != 0 and rng.random() < density:
                    weights[(u, v)] = round(rng.uniform(0.1, 5.0), 3)
        expect_w, _parents = brute_force_arborescence(n, weights)
        try:
            got_w = min_arborescence(n, weights).weight
        except UnreachableVertex:
            got_w = math.inf
        if math.isinf(expect_w) or math.isinf(got_w):
            disagreements += expect_w != got_w
        else:
            solved += 1
            worst = max(worst, abs(got_w - expect_w))
    _gate(
        8,
        "minimum branching equals exhaustive enumeration on 1000 graphs",
        disagreements == 0 and worst <= 1e-12 and solved > 400,
        f"{solved} solvable, worst gap {worst:.1e}, {disagreements} disagreements",
    )


def test_criterion_09_visit_order_oracle_is_exact():
    def corridor_star(prior=PriorSpec()):
        free = {(x, 4) for x in range(9)} | {(4, y) for y in range(9)}
        cells = {(x, y) for x in range(9) for y in range(9)}
        return build_grid(GridParams(
            width=9, height=9, start=(4, 4),
            potential_goals=((0, 4), (4, 2), (7, 4), (4, 8)),
            obstacles=frozenset(cells - free),
            prior=prior, move_success=1.0))

    cases = {
        "line4": build_grid(line4()),
        "line6": build_grid(GridParams(
            width=14, height=1, start=(0, 0),
            potential_goals=tuple((x, 0) for x in (2, 4, 6, 9, 11, 13)),
            move_success=1.0)),
        "star4_uniform": corridor_star(),
        "star4_bernoulli": corridor_star(
            PriorSpec(kind="bernoulli", marginals=(0.5, 0.3, 0.7, 0.4))),
    }
    worst = 0.0
    audits = 0
    for model in cases.values():
        _order, cost = visiting_order_oracle(model)
        ssp = compile_gussp(model)
        vi = value_iteration(
            ssp, reachable=enumerate_reachable(ssp), epsilon=1e-12,
        )
        v = vi.table.value(ssp.start_id)
        worst = max(worst, abs(cost - v))
        rows = dict(audit_goal_graph(model, optimal_value=v).rows())
        # the branching weight is reported next to the value, never equated
        if "arborescence_weight" in rows and "optimal_value" in rows:
            audits += 1
    _gate(
        9,
        "best visit order equals the exact value on deterministic maps",
        worst <= 1e-9 and audits == len(cases),
        f"{len(cases)} instances, worst gap {worst:.1e}, {audits} audit reports",
    )


def test_criterion_10_prior_shapes_behavior():
    def solve_and_walk(p_true):
        params = GridParams(
            width=10, height=6, start=(0, 2),
            potential_goals=((2, 5), (9, 2), (5, 0)),
            prior=PriorSpec(kind="bernoulli", marginals=(0.4, 0.4, p_true)),
            move_success=1.0,
        )
        model = build_grid(params)
        ssp = compile_gussp(model)
        vi = value_iteration(
            ssp, reachable=enumerate_reachable(ssp, 200_000), epsilon=1e-9,
        )
        out = execute_policy(
            model, ssp, vi.table, vi.policy, 0b100, make_rng("exec", 7, 0),
            collect_trace=True,
        )
        path = tuple(step.state for step in out.trace)
        visited = [
            c for c in dict.fromkeys(path) if c in params.potential_goals
        ]
        return path, visited

    runs = {p: solve_and_walk(p) for p in (0.1, 0.25, 0.9)}
    reruns = {p: solve_and_walk(p) for p in (0.1, 0.25, 0.9)}
    paths = [runs[p][0] for p in (0.1, 0.25, 0.9)]
    ok = (
        runs == reruns
        and len(set(paths)) == 3
        and all(path[-1] == (5, 0) for path in paths)
        and len(runs[0.9][1]) < len(runs[0.1][1])
    )
    _gate(
        10,
        "stronger prior on the true site means fewer detours",
        ok,
        f"site visits by prior: 0.1->{len(runs[0.1][1])}, "
        f"0.25->{len(runs[0.25][1])}, 0.9->{len(runs[0.9][1])}",
    )


def test_criterion_11_cli_byte_reproducible(tmp_path, capsys):
    stable = True

    def plan_twice(tag, *args):
        nonlocal stable
        outs = []
        for run in range(2):
            out = tmp_path / f"{tag}_{run}.csv"
            code = main(["plan", LINE4, *args, "--no-timing",
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        stable = stable and outs[0] == outs[1]

    plan_twice("vi", "--algorithm", "vi", "--trials", "5", "--seed", "3")
    plan_twice("flares", "--algorithm", "flares", "--heuristic", "hmin",
               "--trials", "5", "--seed", "3")
    plan_twice("det", "--algorithm", "det-cg", "--trials", "8", "--seed", "9")

    arbor_outs = []
    for _run in range(2):
        assert main(["arbor", LINE4, "--with-value"]) == 0
        arbor_outs.append(capsys.readouterr().out)
    stable = stable and arbor_outs[0] == arbor_outs[1]
    _gate(
        11,
        "command-line output is byte-stable for a fixed seed",
        stable,
        "4 invocation pairs",
    )
