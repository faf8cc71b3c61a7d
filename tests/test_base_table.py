"""The model's base table: the world step reads it like the model does,
sampling over its checked rows draws what the raw rows draw, and its goal
rule answers what the hooks answer."""

import itertools
import random
from pathlib import Path

import pytest

import oracles
from gussp.compiler import CompiledSsp, enumerate_reachable
from gussp.domains import load_instance
from gussp.errors import ModelError
from gussp.model import GoalPrior, GusspModel, KnowledgeVector, step_world
from gussp.rng import sample_row
from oracles import step_world_reference

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


class FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sample_row_rounding_fallback_skips_zero_entries():
    # the positive entries sum to just under 1, and the draw lands past them
    rows = [("a", 0.3), ("b", 0.7 - 1e-9), ("z", 0.0)]
    rng = FixedDraw(1.0 - 1e-12)
    assert sample_row(rows, rng) == "b"
    assert sample_row([r for r in rows if r[1] > 0.0], rng) == "b"
    assert sample_row(rows, FixedDraw(0.5)) == "b"
    assert sample_row([("a", 1.0), ("z", 0.0)], FixedDraw(0.0)) == "a"


@pytest.mark.parametrize("name", ["search4", "rover6", "ev8", "grid8_landmark"])
def test_world_step_matches_the_model_reading(name):
    """Every base state and action, under a fully confirmed configuration
    and an all-unknown vector: the same arrival, cost and observation, and
    the rng left in the same state."""
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    full = model.full_mask
    cases = [(full, model.collapsed_knowledge(full)), (1, model.knowledge_all_unknown())]
    for g_mask, k_true in cases:
        for n, s in enumerate(model.base_states):
            for a in model.actions:
                for seed in (n, n + 1000):
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    s2, cost, obs = step_world(model, s, a, g_mask, k_true, rng)
                    r2, r_cost, r_obs = step_world_reference(model, s, a, g_mask, k_true, ref_rng)
                    assert (s2, cost, str(obs)) == (r2, r_cost, str(r_obs)), (s, a, k_true)
                    assert rng.getstate() == ref_rng.getstate()


def test_world_step_checks_the_base_row():
    """The base rows the world step draws from are checked once, as the
    model is built: a row that does not sum to 1 stops the build."""
    with pytest.raises(ModelError, match=r"row \(0, 'go'\) sums to 0.5"):
        GusspModel(
            base_states=[0, 1],
            actions=("go",),
            transition=lambda s, a: ((1, 0.5),),
            cost=lambda s, a: 1.0,
            start_state=0,
            potential_goals=(1,),
            prior=GoalPrior.uniform(1),
        )


def every_knowledge_vector(n):
    """Each goal unknown, confirmed true or confirmed false, in every way."""
    for status in itertools.product((0, 1, 2), repeat=n):
        yield KnowledgeVector(
            n,
            yes=sum(1 << i for i, x in enumerate(status) if x == 1),
            no=sum(1 << i for i, x in enumerate(status) if x == 2),
        )


@pytest.mark.parametrize("name", ["line4", "ev8", "search4", "rover6"])
def test_goal_rule_matches_the_hooks(name):
    """At every base state, knowledge vector and target, the table's goal
    rule, target masks and exit costs answer what the hooks answer when
    read straight off the model: through the model's readers, through the
    goal flags of SSPs that intern every pair one at a time, and through
    those of breadth-first walks, which number each level in bulk, from
    every goal unknown and from every configuration confirmed."""
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    kvs = list(every_knowledge_vector(model.n_goals))
    targets = range(model.n_goals)

    def goal(s, k, target):
        return oracles.is_terminal(model, s, k) or (
            target is not None and oracles.target_done(model, s, target))

    for s in model.base_states:
        assert model.exit_cost(s) == oracles.exit_cost(model, s), s
        for t in targets:
            assert model.target_done(s, t) == oracles.target_done(model, s, t), (s, t)
        for k in kvs:
            assert model.is_terminal(s, k) == oracles.is_terminal(model, s, k), (s, k)
    for target in (None, *targets):
        ssp = CompiledSsp(model, target=target)
        for k in kvs:
            for s in model.base_states:
                assert ssp.is_goal(ssp.intern(s, k)) == goal(s, k, target), (s, k, target)
        configs = range(1, model.full_mask + 1)
        for k in (model.knowledge_all_unknown(), *map(model.collapsed_knowledge, configs)):
            ssp = CompiledSsp(model, k, target)
            reach = enumerate_reachable(ssp, require_proper=False)
            for i, flag in enumerate(reach.goal.tolist()):
                x = ssp.state(i)
                assert flag == goal(x.s, x.k, target), (x, target)
