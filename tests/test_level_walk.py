"""The level walk of ``enumerate_reachable`` against the state-by-state walk
it replaced, and the hook sites it relies on.

``enumerate_reachable`` handles each breadth-first level as one block: it
numbers the successors of the level's plain states in bulk and expands the
others one by one in id order.  ``oracles.enumerate_reachable_reference``
expands every non-goal state through ``ssp.expand``, in id order.  Both
must number every state alike, build the same arrays and stop at the same
state budget with the same error.  The walk asks the knowledge hooks only at
the model's hook sites, so a site a domain declares must hold every state
where its hooks can answer."""

from pathlib import Path

import numpy as np
import pytest

from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.domains import build_rover, load_instance, random_rover
from gussp.errors import InvalidInstance, StateBudgetExceeded
from gussp.model import GoalPrior, GusspModel
from oracles import enumerate_reachable_reference
from test_compiler import jump_model, landmark_map

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
# the bundled instances under 2,000 compiled states
SMALL = ("line4", "ev8", "search4", "rover6", "grid8", "grid8_landmark", "grid12")


def _model(name):
    if name == "landmark_map":
        return landmark_map()
    if name == "jump_model":
        return jump_model()
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    return model


def _ssp(model, lazy_start):
    ssp = compile_gussp(model)
    if lazy_start:  # number the start's successors before the walk does
        ssp.q_rows(ssp.start_id)
    return ssp


def _walk(walk, model, lazy_start, **kw):
    """The SSP after ``walk``, and its result or the error it raised."""
    ssp = _ssp(model, lazy_start)
    try:
        return ssp, walk(ssp, **kw)
    except StateBudgetExceeded as exc:
        return ssp, exc


def _same_numbering(got, want):
    assert list(got._sids) == list(want._sids)
    assert list(got._kids) == list(want._kids)
    assert got.goal_flags == want.goal_flags
    assert got._kvs == want._kvs
    assert got._ids == want._ids


def _same_arrays(got, want):
    assert np.array_equal(got.goal, want.goal)
    assert got.cost.tobytes() == want.cost.tobytes()
    m, r = got.transitions, want.transitions
    assert m.shape == r.shape
    for a, b in ((m.indptr, r.indptr), (m.indices, r.indices), (m.data, r.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


CASES = [(name, False) for name in SMALL + ("landmark_map", "jump_model")] + [("line4", True)]


@pytest.mark.parametrize("name, lazy_start", CASES)
def test_level_walk_matches_the_state_by_state_walk(name, lazy_start):
    model = _model(name)
    got_ssp, got = _walk(enumerate_reachable, model, lazy_start)
    want_ssp, want = _walk(enumerate_reachable_reference, model, lazy_start)
    _same_numbering(got_ssp, want_ssp)
    _same_arrays(got, want)
    assert len(got) == len(got_ssp)
    # the eager path expands without filling the lazy row cache
    assert len(got_ssp._q_rows) == (1 if lazy_start else 0)

    n = len(want)
    for budget in (n - 1, n):
        got_ssp, got = _walk(enumerate_reachable, model, lazy_start, state_budget=budget)
        want_ssp, want = _walk(enumerate_reachable_reference, model, lazy_start,
                               state_budget=budget)
        if budget < n:
            assert isinstance(got, StateBudgetExceeded) and isinstance(want, StateBudgetExceeded)
            assert str(got) == str(want) == f"more than {budget} reachable compiled states"
        else:
            _same_numbering(got_ssp, want_ssp)
            _same_arrays(got, want)


def _landmark_rover():
    params = random_rover(3, width=6, height=6, n_goals=4, n_landmarks=2)
    assert params.landmarks
    return build_rover(params)


@pytest.mark.parametrize("name", ["rover6", "search4", "landmark_rover"])
def test_hooks_answer_only_at_their_declared_sites(name):
    """Off the sites a domain declares, both hooks answer ``None`` at every
    enumerated non-goal ``(s, k)`` and action; at the sites some answer."""
    model = _landmark_rover() if name == "landmark_rover" else _model(name)
    ssp = compile_gussp(model)
    reach = enumerate_reachable(ssp)
    sites = set(model.hook_sites)
    assert sites and len(sites) < len(model.base_states)
    hooks = [h for h in (model.knowledge_effects, model.knowledge_step_cost) if h is not None]
    answered = set()
    for i in np.flatnonzero(~reach.goal).tolist():
        x = ssp.state(i)
        for a in model.actions:
            for hook in hooks:
                if hook(x.s, a, x.k) is not None:
                    answered.add(x.s)
    assert answered and answered <= sites


def test_a_hook_site_must_be_a_base_state():
    def model(sites):
        return GusspModel(
            base_states=[0, 1],
            actions=("go",),
            transition=lambda s, a: ((1, 1.0),),
            cost=lambda s, a: 1.0,
            start_state=0,
            potential_goals=(1,),
            prior=GoalPrior.uniform(1),
            knowledge_effects=lambda s, a, k: None,
            hook_sites=sites,
        )

    with pytest.raises(InvalidInstance, match=r"hook sites are not base states: \[7\]"):
        model([0, 7])
    assert model([0]).base_table.hook_site == bytearray([1, 0])
    assert model(None).base_table.hook_site == bytearray([1, 1])
