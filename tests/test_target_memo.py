"""The determinized actor's target-tie memo against the actor without one.

``execute_determinized`` draws each retarget from the tie list its
``PlanCache`` keeps per selector and ``(k.yes, k.no, sid)``;
``execute_determinized_reference`` runs ``select_goal_mlg`` or
``select_goal_cg`` at every retarget.  Both must give the same trials, draw
for draw, and the memo must never hold a failure or another selector's or
oracle's ties."""

import random
from pathlib import Path

import pytest

from gussp.determinize import PlanCache, execute_determinized
from gussp.domains import load_instance
from gussp.errors import NoEligibleGoal
from gussp.heuristics import DistanceOracle, build_distance_oracle
from gussp.model import KnowledgeVector
from gussp.rng import make_rng
from oracles import execute_determinized_reference

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
TRIALS = 300


@pytest.mark.parametrize("name", ["search4", "rover6", "grid8_landmark", "grid12"])
def test_memoised_ties_match_selection_on_every_retarget(monkeypatch, name):
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    oracle = build_distance_oracle(model)
    cache = PlanCache(model)  # shared by both selectors and both executors
    draws = [0]
    choice = random.Random.choice

    def counted_choice(self, seq):
        draws[0] += 1
        return choice(self, seq)

    monkeypatch.setattr(random.Random, "choice", counted_choice)
    memo_draws = 0
    for selector in ("mlg", "cg"):
        for trial in range(TRIALS):
            g_mask = model.sample_config(make_rng("config", 3, trial))
            det = dict(seed=trial, oracle=oracle, plan_cache=cache)
            before = draws[0]
            got = execute_determinized(model, selector, g_mask, **det)
            memo_draws += draws[0] - before
            want = execute_determinized_reference(model, selector, g_mask, **det)
            assert (got.cost, got.steps, got.failed, got.replans) == (
                want.cost, want.steps, want.failed, want.replans), (selector, trial)
    assert memo_draws > 0


def test_no_eligible_goal_is_raised_on_every_call(line4_model):
    cache = PlanCache(line4_model)
    oracle = build_distance_oracle(line4_model)
    sid = line4_model.base_table.sid[(0, 0)]
    ruled_out = KnowledgeVector(2, no=0b11)
    for _ in range(2):
        with pytest.raises(NoEligibleGoal):
            cache.ties("mlg", sid, ruled_out)
        with pytest.raises(NoEligibleGoal):
            cache.ties("cg", sid, ruled_out, oracle)
    # the cases that do have targets are kept, and only those
    k = line4_model.knowledge_all_unknown()
    assert cache.ties("mlg", sid, k) is cache.ties("mlg", sid, k)
    assert cache._ties == {"mlg": {(0, 0, sid): (0, 1)}, "cg": {}}


def test_ties_are_kept_per_selector_and_for_one_oracle(line4_model):
    cache = PlanCache(line4_model)
    oracle = build_distance_oracle(line4_model)
    sid = line4_model.base_table.sid[(0, 0)]
    k = line4_model.knowledge_all_unknown()
    # both marginals are 2/3, but goal 0's site is nearer
    assert cache.ties("mlg", sid, k) == (0, 1)
    assert cache.ties("cg", sid, k, oracle) == (0,)
    assert cache.ties("mlg", sid, k) == (0, 1)
    # an equal oracle gives the same ties; one that puts goal 1 nearer may not
    assert cache.ties("cg", sid, k, build_distance_oracle(line4_model)) == (0,)
    swapped = DistanceOracle(2, {s: row[::-1] for s, row in oracle._dist.items()})
    for other in (swapped, None):
        with pytest.raises(ValueError, match="one distance oracle"):
            cache.ties("cg", sid, k, other)
    assert cache.ties("cg", sid, k, oracle) == (0,)
