import random

import pytest

from gussp.determinize import (
    PlanCache,
    execute_determinized,
    select_goal_cg,
    select_goal_mlg,
)
from gussp.errors import ContradictoryObservation, ImproperModel, NoEligibleGoal
from gussp.harness import CellSpec, run_cell
from gussp.heuristics import build_distance_oracle
from gussp.model import GoalPrior, GusspModel, KnowledgeVector


@pytest.fixture(scope="module")
def line4_oracle(line4_model):
    return build_distance_oracle(line4_model)


def test_mlg_prefers_higher_marginal(line4_model):
    # rule nothing out but skew the prior by conditioning: after seeing the
    # near cell is no goal, only the far goal remains eligible
    k = KnowledgeVector(2, no=0b01)
    assert select_goal_mlg(line4_model, (0, 0), k, random.Random(0)) == 1


def test_mlg_breaks_ties_with_rng(line4_model):
    k = line4_model.knowledge_all_unknown()  # both marginals are 2/3
    picks = {
        select_goal_mlg(line4_model, (0, 0), k, random.Random(seed))
        for seed in range(16)
    }
    assert picks == {0, 1}


def test_cg_prefers_nearer_site(line4_model):
    oracle = build_distance_oracle(line4_model)
    k = line4_model.knowledge_all_unknown()
    assert select_goal_cg(line4_model, (0, 0), k, oracle, random.Random(0)) == 0


def test_no_eligible_goal(line4_model):
    k = KnowledgeVector(2, no=0b11)  # hypothetical: everything ruled out
    with pytest.raises(NoEligibleGoal):
        select_goal_mlg(line4_model, (0, 0), k, random.Random(0))


def test_assumed_problem_plans_to_target(line4_model):
    k = line4_model.knowledge_all_unknown()
    cache = PlanCache(line4_model)
    plan, _t = cache.plan_for(1, k)
    assert plan.policy[(0, 0)] == "right"
    assert plan.value[(0, 0)] == pytest.approx(3.0)
    # the nearer uncertain cell terminates the plan if it turns out true?
    # no: under the assumption only the target is pinned true, other cells
    # stay unknown and are not plan goals
    assert (2, 0) in plan.policy
    assert (3, 0) not in plan.policy


def test_plan_for_a_ruled_out_target_raises(line4_model):
    cache = PlanCache(line4_model)
    k = line4_model.knowledge_all_unknown()
    cache.plan_for(0, k)
    with pytest.raises(ContradictoryObservation):
        cache.plan_for(0, k.confirm(no=0b01))
    with pytest.raises(ContradictoryObservation):
        cache.plan_for(1, k.confirm(no=0b10))
    assert len(cache) == 1


def test_plan_charges_no_exit_cost_where_the_model_does_not_terminate():
    """On 0 -> 1 -> 2, target 1 (site 2) counts as achieved at 1, where
    the model, with goal 0 (site 1) assumed false, does not terminate: the
    plan ends there at the step's cost alone.  Target 0 ends where the
    model terminates, so its plan pays the exit cost."""
    model = GusspModel(
        base_states=[0, 1, 2],
        actions=("fwd",),
        transition=lambda s, a: ((min(s + 1, 2), 1.0),),
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=(1, 2),
        prior=GoalPrior.uniform(2),
        terminal_cost=lambda s: 10.0,
        det_target_done=lambda s, target: s >= 1,
    )
    cache = PlanCache(model)
    k = model.knowledge_all_unknown()
    plan, _t = cache.plan_for(1, k)
    assert 1 not in plan.policy
    assert plan.value[0] == 1.0
    plan, _t = cache.plan_for(0, k)
    assert plan.value[0] == 11.0


def test_plan_cache_shared_across_trials(line4_model, line4_oracle):
    cache = PlanCache(line4_model)
    for trial in range(6):
        execute_determinized(
            line4_model, "cg", 0b10, seed=trial, oracle=line4_oracle, plan_cache=cache
        )
    # one plan per (target, assumed knowledge) actually used; re-running
    # trials does not grow the cache
    n = len(cache)
    execute_determinized(line4_model, "cg", 0b10, seed=99, oracle=line4_oracle,
                         plan_cache=cache)
    assert len(cache) == n


def test_plan_cache_counts_plans_built(line4_model):
    cache = PlanCache(line4_model)
    k = line4_model.knowledge_all_unknown()
    assert len(cache) == 0
    cache.plan_for(0, k)
    # ruling out the other site leaves the assumed goal set, and the plan, as is
    cache.plan_for(0, k.confirm(no=0b10))
    assert len(cache) == 1
    cache.plan_for(1, k)
    assert len(cache) == 2


def test_line4_trial_costs_by_config(line4_model, line4_oracle):
    # closest-goal always heads to the near cell first
    det = dict(oracle=line4_oracle, plan_cache=PlanCache(line4_model))
    out1 = execute_determinized(line4_model, "cg", 0b01, seed=0, **det)
    assert out1.cost == pytest.approx(2.0) and out1.replans == 0
    out2 = execute_determinized(line4_model, "cg", 0b10, seed=0, **det)
    assert out2.cost == pytest.approx(3.0) and out2.replans == 1
    out3 = execute_determinized(line4_model, "cg", 0b11, seed=0, **det)
    assert out3.cost == pytest.approx(2.0) and out3.replans == 0


def test_line4_expected_cost_matches_optimum(line4_model, line4_oracle):
    # E[cost] = 1/3 * (2 + 3 + 2) = 7/3: for this instance the baseline is
    # optimal, a useful fixed point for the harness statistics
    probs = {0b01: 1 / 3, 0b10: 1 / 3, 0b11: 1 / 3}
    cache = PlanCache(line4_model)
    mean = sum(
        p * execute_determinized(line4_model, "cg", g, seed=1, oracle=line4_oracle,
                                 plan_cache=cache).cost
        for g, p in probs.items()
    )
    assert mean == pytest.approx(7 / 3)


def test_trace_collection(line4_model, line4_oracle):
    out = execute_determinized(
        line4_model, "cg", 0b10, seed=0, collect_trace=True, oracle=line4_oracle,
        plan_cache=PlanCache(line4_model),
    )
    assert out.trace is not None
    assert out.trace[0].state == (0, 0)
    assert out.trace[0].knowledge == "UU"
    assert out.trace[-1].action is None
    assert out.trace[-1].cost_so_far == pytest.approx(out.cost)


def test_step_budget_marks_failure(line4_model, line4_oracle):
    out = execute_determinized(line4_model, "cg", 0b10, seed=0, step_budget=1,
                               oracle=line4_oracle,
                               plan_cache=PlanCache(line4_model))
    assert out.failed
    assert out.steps == 1


def test_selector_validation(line4_model):
    with pytest.raises(ValueError):
        execute_determinized(line4_model, "nearest", 0b01,
                             plan_cache=PlanCache(line4_model))


def test_cg_without_oracle_raises_before_the_first_step(line4_model, monkeypatch):
    from gussp import determinize

    def no_episode(*args, **kwargs):
        raise AssertionError("started an episode")

    monkeypatch.setattr(determinize, "run_episode", no_episode)
    cache = PlanCache(line4_model)
    with pytest.raises(ValueError, match="oracle"):
        execute_determinized(line4_model, "cg", 0b01, plan_cache=cache)
    assert len(cache) == 0


def test_rover_inner_plan_samples_cheaply():
    from gussp.domains import RoverParams, build_rover

    model = build_rover(RoverParams(
        width=3, height=1, start=(0, 0), potential_goals=((2, 0),),
        move_success=1.0,
    ))
    k = model.knowledge_all_unknown()
    cache = PlanCache(model)
    plan, _t = cache.plan_for(0, k)
    # two moves plus the confirmed-site sample
    assert plan.value[(0, 0, False)] == pytest.approx(4.0)


def trap_line_model():
    """Start at 1 between goal sites 0 and 3; ``right`` from 2 enters 3,
    which no action leaves, so assuming target 0 strands state 3."""

    def transition(s, a):
        if s == 3:
            return ((3, 1.0),)
        return ((s + 1 if a == "right" else max(s - 1, 0), 1.0),)

    return GusspModel(
        base_states=[0, 1, 2, 3],
        actions=("left", "right"),
        transition=transition,
        cost=lambda s, a: 1.0,
        start_state=1,
        potential_goals=(0, 3),
        prior=GoalPrior.uniform(2),
    )


def test_improper_assumed_problem_raises_and_caches_nothing():
    model = trap_line_model()
    cache = PlanCache(model)
    with pytest.raises(ImproperModel):
        cache.plan_for(0, model.knowledge_all_unknown())
    assert len(cache) == 0
    for algorithm in ("vi", "lao", "flares", "det-mlg", "det-cg"):
        with pytest.raises(ImproperModel):
            run_cell(model, CellSpec(name="trap", algorithm=algorithm, trials=5))
