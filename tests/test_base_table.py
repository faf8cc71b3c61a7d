"""The model's base table: the world step reads it like the model does, and
sampling over its checked rows draws what the raw rows draw."""

import random
from pathlib import Path

import pytest

from gussp.domains import load_instance
from gussp.errors import ModelError
from gussp.model import GoalPrior, GusspModel, step_world
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
