"""The episode loop against its plain reading, and the per-trial
configuration draws of ``run_cell``.

``run_episode`` steps the world inline over the model's base table and
builds an observation only for the trace; ``run_episode_reference`` takes
one ``step_world_reference`` call and one ``apply_observation`` fold per
step.  Both must give the same episode, the same trace text and leave the
rng in the same state, under an actor that follows a solved policy and
one that draws its actions from the episode's rng."""

import random
import struct
from functools import lru_cache
from pathlib import Path

import pytest

from gussp import harness
from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.domains import load_instance
from gussp.errors import ModelError
from gussp.harness import CellSpec, run_cell
from gussp.harness_types import run_episode
from gussp.model import GoalPrior, GusspModel
from gussp.rng import derive_seed, make_rng
from gussp.solvers import value_iteration
from oracles import run_episode_reference

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
NAMES = ("line4", "ev8", "search4", "rover6", "grid8_landmark", "grid12")


@lru_cache(maxsize=None)
def _solved(name):
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    ssp = compile_gussp(model)
    policy = value_iteration(ssp, reachable=enumerate_reachable(ssp)).policy
    return model, ssp, policy


def _actor(kind, model, ssp, policy, rng):
    if kind == "vi":
        return lambda s, k: policy[ssp.intern(s, k)]
    actions = model.actions
    return lambda s, k: actions[int(rng.random() * len(actions))]


def _g_masks(model):
    """Up to four configurations of the prior's support, spread over it."""
    masks = list(model.prior.config_probs())
    return sorted(set(masks[:: max(1, len(masks) // 3)] + masks[-1:]))


def _run(loop, model, ssp, policy, kind, g_mask, seed, budget, trace):
    rng = random.Random(seed)
    episode = loop(model, g_mask, rng, _actor(kind, model, ssp, policy, rng),
                   step_budget=budget, collect_trace=trace)
    return episode, rng.getstate()


def _fields(episode):
    lines = None if episode.trace is None else [row.format() for row in episode.trace]
    return (struct.pack("<d", episode.cost), episode.steps, episode.failed,
            episode.replans, episode.plan_time, lines)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("kind", ["vi", "random"])
def test_run_episode_matches_the_reference(name, kind):
    model, ssp, policy = _solved(name)
    budget = 10_000 if kind == "vi" else 60
    for g_mask in _g_masks(model):
        for seed in (0, 7, 11):
            for trace in (False, True):
                got, got_state = _run(run_episode, model, ssp, policy, kind, g_mask, seed,
                                      budget, trace)
                want, want_state = _run(run_episode_reference, model, ssp, policy, kind,
                                        g_mask, seed, budget, trace)
                assert _fields(got) == _fields(want), (g_mask, seed, trace)
                assert got_state == want_state


def test_run_episode_matches_the_reference_when_the_budget_runs_out():
    model, ssp, policy = _solved("grid12")
    g_mask = model.full_mask
    for trace in (False, True):
        got, got_state = _run(run_episode, model, ssp, policy, "vi", g_mask, 3, 2, trace)
        want, want_state = _run(run_episode_reference, model, ssp, policy, "vi", g_mask, 3,
                                2, trace)
        assert got.failed and got.steps == 2
        assert _fields(got) == _fields(want)
        assert got_state == want_state


def test_run_episode_asks_both_hooks_at_the_true_configuration_on_every_step(
        hook_sites_declared):
    """On every step from a hook site, and on no other step: rover declares
    its sample sites, and a model that declares none asks on every step."""
    for declared in (True, False):
        with hook_sites_declared(declared):
            model, ssp, policy = _solved.__wrapped__("rover6")  # a model of its own to wrap
        sites = set(model.base_states) if model.hook_sites is None else set(model.hook_sites)
        assert len(sites) == (3 if declared else 66)
        calls = []
        for name in ("knowledge_step_cost", "knowledge_effects"):
            def hook(s, a, k, name=name, inner=getattr(model, name)):
                calls.append((name, s, k))
                return inner(s, a, k)
            setattr(model, name, hook)
        for g_mask in _g_masks(model):
            calls.clear()
            visited = []

            def act(s, k):
                visited.append(s)
                return policy[ssp.intern(s, k)]

            episode = run_episode(model, g_mask, random.Random(g_mask), act,
                                  step_budget=10_000, collect_trace=False)
            k_true = model.collapsed_knowledge(g_mask)
            at_sites = [s for s in visited if s in sites]
            assert episode.steps == len(visited) > 0
            if declared:  # an episode ends by sampling at a site
                assert 0 < len(at_sites) < len(visited)
            else:
                assert at_sites == visited
            assert calls == [call for s in at_sites for call in (
                ("knowledge_step_cost", s, k_true), ("knowledge_effects", s, k_true))]


def test_run_episode_checks_a_hook_row():
    model = GusspModel(
        base_states=[0, 1],
        actions=("go",),
        transition=lambda s, a: ((1, 1.0),),
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=(1,),
        prior=GoalPrior.uniform(1),
        knowledge_effects=lambda s, a, k: ((1, 0.5),),
    )
    with pytest.raises(ModelError, match=r"row \(0, G\) / 'go' sums to 0\.5"):
        run_episode(model, 1, random.Random(0), lambda s, k: "go",
                    step_budget=10, collect_trace=False)


def test_run_cell_draws_each_trial_configuration_once_per_seed():
    _params, model = load_instance(str(INSTANCES / "search4.txt"))
    for seed, trials in ((0, 5), (3, 50)):
        result = run_cell(model, CellSpec("search4", "det-mlg", trials=trials, seed=seed))
        assert [r.config for r in result.trials] == [
            harness._config_string(model.sample_config(make_rng("config", seed, trial)))
            for trial in range(trials)
        ]
    for seed in range(10):
        run_cell(model, CellSpec("search4", "det-mlg", trials=2, seed=seed))
    info = harness._config_draws.cache_info()
    assert info.currsize <= info.maxsize < 10


def test_run_cell_derives_each_trial_seed_once_per_seed():
    """The det baselines' trial seeds and the solved policies' rng seeds come
    from one bounded memo per ``(seed, trials)``, equal to deriving each
    trial's seed on its own."""
    for seed, trials in ((0, 5), (3, 50)):
        assert harness._trial_seeds(seed, trials) == tuple(
            derive_seed(seed, t) for t in range(trials))
        assert harness._trial_seeds(seed, trials, "exec") == tuple(
            derive_seed("exec", seed, t) for t in range(trials))
    _params, model = load_instance(str(INSTANCES / "search4.txt"))
    harness._trial_seeds.cache_clear()
    for algorithm in ("det-mlg", "det-cg", "vi", "vi"):
        run_cell(model, CellSpec("search4", algorithm, trials=5, seed=3))
    info = harness._trial_seeds.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    for seed in range(10):
        run_cell(model, CellSpec("search4", "det-mlg", trials=2, seed=seed))
    info = harness._trial_seeds.cache_info()
    assert info.currsize <= info.maxsize < 10
