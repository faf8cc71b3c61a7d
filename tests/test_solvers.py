import math
from pathlib import Path

import pytest

from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.errors import NonConvergence
from gussp.model import GoalPrior, GusspModel
from gussp.solvers import (
    ValueTable,
    bellman_backup,
    flares,
    lao_star,
    value_iteration,
)
from gussp.heuristics import build_distance_oracle, make_heuristic
from gussp.domains import load_instance
from oracles import belief_space_values, is_consistent_with, policy_value

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_bellman_line4_partial_backup(line4_solved):
    ssp, _reach, vi = line4_solved
    # state: standing one step from the last cell knowing the first goal is
    # out; the only sensible move costs one step to certain termination
    from gussp.model import KnowledgeVector

    i = ssp.intern((2, 0), KnowledgeVector(2, no=0b01))
    v, a, _res = bellman_backup(ssp, vi.table, i)
    assert v == pytest.approx(1.0)
    assert a == "right"


def test_bellman_tie_breaks_to_earliest_action():
    def transition(s, a):
        if s == 0:
            return ((1, 1.0),)
        return ((s, 1.0),)

    model = GusspModel(
        base_states=[0, 1],
        actions=("a", "b"),
        transition=transition,
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=(1,),
        prior=GoalPrior.uniform(1),
    )
    ssp = compile_gussp(model)
    table = ValueTable()
    _v, act, _ = bellman_backup(ssp, table, ssp.start_id)
    assert act == "a"  # identical outcomes: first action order wins


def test_vi_matches_hand_value(line4_solved):
    ssp, _reach, vi = line4_solved
    assert vi.table.value(ssp.start_id) == pytest.approx(7 / 3, abs=1e-6)
    assert vi.policy[ssp.start_id] == "right"


def test_vi_matches_belief_space_oracle(small_grids):
    # the oracle walks raw Bayes beliefs and shares no code with the
    # compiler's arrays or the VI sweeps.  A belief here is the prior
    # restricted to the configurations still possible, so a compiled state
    # is matched to the belief with the same base state and support.
    for _params, model in small_grids[:6]:
        ssp = compile_gussp(model)
        reach = enumerate_reachable(ssp)
        vi = value_iteration(ssp, reachable=reach, epsilon=1e-10)
        ref, _v0 = belief_space_values(model)
        by_support = {(s, frozenset(g for g, _p in b)): v for (s, b), v in ref.items()}
        configs = [g for g, p in model.prior.config_probs().items() if p > 0.0]
        for i in range(len(reach)):
            x = ssp.state(i)
            support = frozenset(g for g in configs if is_consistent_with(x.k, g))
            assert vi.table.value(i) == pytest.approx(by_support[(x.s, support)], abs=1e-7)


def test_vi_monotone_from_below(line4_solved):
    ssp, reach, _vi = line4_solved
    starts = []
    value_iteration(
        ssp,
        reachable=reach,
        on_sweep=lambda sweep, residual, values: starts.append(float(values[0])),
    )
    # Jacobi sweeps from zero never overshoot on the way up
    assert all(b >= a - 1e-12 for a, b in zip(starts, starts[1:]))
    assert starts[-1] == pytest.approx(7 / 3, abs=1e-6)


def test_vi_nonconvergence_raises(line4_solved):
    ssp, reach, _vi = line4_solved
    with pytest.raises(NonConvergence):
        value_iteration(ssp, reachable=reach, max_sweeps=1)


def test_vi_policy_covers_nongoal_states(line4_solved):
    ssp, reach, vi = line4_solved
    for i in range(len(reach)):
        if reach.goal[i]:
            assert vi.policy.get(i) is None
        else:
            assert vi.policy.get(i) is not None


def test_vi_policy_equals_per_state_backup(small_grids_solved):
    # the vectorised argmin reproduces bellman_backup's fold, ties included
    for _params, _model, ssp, reach, vi in small_grids_solved:
        for i in range(len(reach)):
            assert vi.policy.get(i) == bellman_backup(ssp, vi.table, i)[1]


@pytest.mark.parametrize("heuristic", ["zero", "hmin", "hpg"])
def test_lao_matches_vi(small_grids_solved, heuristic):
    for _params, model, ssp, _reach, vi in small_grids_solved[:8]:
        oracle = build_distance_oracle(model) if heuristic == "hpg" else None
        h = make_heuristic(heuristic, ssp, oracle)
        res = lao_star(ssp, h)
        assert res.table.value(ssp.start_id) == pytest.approx(
            vi.table.value(ssp.start_id), abs=1e-6
        )


def test_lao_expands_fewer_states_than_full_enumeration(small_grids_solved):
    wins = 0
    for _params, model, ssp, reach, _vi in small_grids_solved:
        res = lao_star(ssp, make_heuristic("hpg", ssp, build_distance_oracle(model)))
        if res.expanded < len(reach):
            wins += 1
    assert wins >= len(small_grids_solved) // 2


def test_lao_policy_is_its_closed_greedy_graph(small_grids_solved):
    # LAO*'s stopping rule: the policy covers exactly the non-goal states its
    # greedy graph reaches from the start, and each is greedy within epsilon
    epsilon = 1e-6
    for _params, model, ssp, _reach, _vi in small_grids_solved:
        h = make_heuristic("hpg", ssp, build_distance_oracle(model))
        res = lao_star(ssp, h, epsilon=epsilon)
        reached, stack = set(), [ssp.start_id]
        while stack:
            i = stack.pop()
            if i in reached or ssp.is_goal(i):
                continue
            reached.add(i)
            stack.extend(j for j, _p in ssp.successors(i, res.policy[i]))
        assert reached == set(res.policy)
        for i in reached:
            _v, a, residual = bellman_backup(ssp, res.table, i)
            assert a == res.policy[i]
            assert residual < epsilon


@pytest.mark.parametrize("heuristic", ["hpg", "hmin"])
@pytest.mark.parametrize(
    "name", ["line4", "ev8", "search4", "rover6", "grid8", "grid8_landmark", "grid12"])
def test_lao_policy_is_optimal_by_exact_evaluation(name, heuristic):
    # every bundled instance under 2,000 compiled states: the exact cost of
    # LAO*'s policy equals V*, and its start value is a lower bound on it
    model = load_instance(str(INSTANCES / f"{name}.txt"))[1]
    ssp = compile_gussp(model)
    v_star = value_iteration(ssp, reachable=enumerate_reachable(ssp)).table.value(ssp.start_id)
    lazy = compile_gussp(model)
    res = lao_star(lazy, make_heuristic(heuristic, lazy))
    v_pi = policy_value(lazy, res.policy)[lazy.start_id]
    assert abs(v_pi - v_star) <= 1e-8
    assert res.table.value(lazy.start_id) <= v_pi + 1e-9


def test_lao_backups_on_grid12_stay_bounded(monkeypatch):
    # a depth-first pass backs up each state of the greedy graph once;
    # re-converging the whole envelope after every expansion took 59,099
    from gussp import solvers

    calls = [0]
    backup = solvers.bellman_backup

    def counted(*args):
        calls[0] += 1
        return backup(*args)

    monkeypatch.setattr(solvers, "bellman_backup", counted)
    ssp = compile_gussp(load_instance(str(INSTANCES / "grid12.txt"))[1])
    lao_star(ssp, make_heuristic("hpg", ssp), epsilon=1e-6)
    assert calls[0] <= 30_000


def test_flares_infinite_horizon_is_optimal(small_grids_solved):
    for _params, model, ssp, _reach, vi in small_grids_solved[:6]:
        res = flares(ssp, horizon=None, epsilon=1e-6, seed=4)
        assert not res.exhausted
        assert res.table.value(ssp.start_id) == pytest.approx(
            vi.table.value(ssp.start_id), abs=1e-4
        )


def test_flares_depth1_lower_bound(line4_solved):
    ssp, _reach, vi = line4_solved
    res = flares(ssp, horizon=1, epsilon=1e-6, seed=0)
    # admissible start: labeled values never exceed the optimum by much more
    # than the tolerance allows at this tiny size
    assert res.table.value(ssp.start_id) <= vi.table.value(ssp.start_id) + 1e-3


def test_flares_exhausted_flag(line4_solved):
    ssp, _reach, _vi = line4_solved
    res = flares(ssp, max_trials=0)
    assert res.exhausted
    assert res.trials == 0


def test_flares_deterministic_given_seed(line4_solved):
    ssp, _reach, _vi = line4_solved
    a = flares(ssp, horizon=1, seed=9)
    b = flares(ssp, horizon=1, seed=9)
    assert a.trials == b.trials
    assert a.table.values == b.table.values

