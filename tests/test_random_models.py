"""Whole random models: the planners against the brute-force oracle.

A hypothesis strategy draws small ``GusspModel``s: 3-7 base states, two
actions, 1-3 potential goals, an optional landmark, optional terminal costs
and every prior kind.  On each one:

* value iteration's start value equals the raw-belief oracle's;
* LAO* with the zero, hmin and hpg heuristics matches value iteration;
* LAO*'s policy is its closed greedy graph, greedy within epsilon, and
  its exact cost is V* and no less than its start value;
* hmin and hpg are admissible on every enumerated compiled state.

Action ``a`` steps around a ring with probability at least three quarters,
so every base state reaches every other and each model is proper; ``b`` is a
random row.  The draws are derandomized, so the gate is deterministic, and
one pinned model (``_ring5``) always runs.

A residual below epsilon bounds a value's error only up to the expected
number of steps to a goal: at epsilon 1e-6, LAO* misses value iteration by
more than 1e-6 on about 1% of these models.  So LAO* runs at 1e-8 here, and
value iteration at 1e-10, against a 1e-6 tolerance.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.model import GoalPrior, GusspModel
from gussp.solvers import bellman_backup, lao_star, value_iteration
from gussp.heuristics import make_heuristic

from oracles import belief_space_start_value, policy_value

ACTIONS = ("a", "b")
EPSILON = 1e-8  # LAO*'s
PROBS = st.sampled_from([0.25, 0.5])


@st.composite
def priors(draw, n):
    kind = draw(st.sampled_from(["uniform", "bernoulli", "explicit"]))
    if kind == "uniform":
        return GoalPrior.uniform(n)
    if kind == "bernoulli":
        return GoalPrior.bernoulli(
            draw(st.lists(st.sampled_from([0.2, 0.5, 0.8, 1.0]), min_size=n, max_size=n)))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]),
                            min_size=len(masks), max_size=len(masks)))
    return GoalPrior.explicit(n, dict(zip(masks, weights)))


def build(n, rows, costs, goals, prior, landmarks=None, exits=None):
    return GusspModel(
        base_states=range(n),
        actions=ACTIONS,
        transition=lambda s, a: rows[s, a],
        cost=lambda s, a: costs[s, a],
        start_state=0,
        potential_goals=goals,
        prior=prior,
        landmarks=landmarks,
        terminal_cost=None if exits is None else exits.__getitem__,
    )


@st.composite
def models(draw):
    n = draw(st.integers(3, 7))
    states = range(n)
    rows = {}
    for s in states:
        stay = draw(st.sampled_from([0.0, 0.25]))
        ring = [((s + 1) % n, 1.0 - stay)] + ([(s, stay)] if stay else [])
        rows[s, "a"] = tuple(ring)
        first = draw(st.sampled_from(states))
        second = draw(st.sampled_from(states))
        p = draw(PROBS)
        rows[s, "b"] = ((first, p), (second, 1.0 - p)) if first != second else ((first, 1.0),)
    costs = {(s, a): draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) for s in states for a in ACTIONS}
    goals = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=min(3, n - 1),
                          unique=True))
    others = [s for s in range(1, n) if s not in goals]
    landmarks = None
    if others and draw(st.booleans()):
        site = draw(st.sampled_from(others))
        vicinity = draw(st.lists(st.sampled_from(goals), min_size=1, unique=True))
        landmarks = {site: vicinity}
    exits = None
    if draw(st.booleans()):
        exits = {s: draw(st.sampled_from([0.0, 1.0, 4.0])) for s in states}
    return build(n, rows, costs, goals, draw(priors(len(goals))), landmarks, exits)


def _ring5():
    """A LAO* that returns at its first quiet pass, skipping the
    convergence test, is 0.29 low at the start here: the greedy graph it
    returns reaches expanded states that its last passes did not visit,
    whose values are stale.  Random draws meet such a model about once in
    a hundred."""
    b = {0: ((4, 1.0),), 1: ((3, 0.25), (0, 0.75)), 2: ((4, 1.0),), 3: ((4, 1.0),),
         4: ((3, 0.25), (4, 0.75))}
    rows = {}
    for s in range(5):
        rows[s, "a"] = (((s + 1) % 5, 0.75), (s, 0.25))
        rows[s, "b"] = b[s]
    costs = dict(zip(((s, a) for s in range(5) for a in ACTIONS),
                     (2.0, 1.0, 1.0, 2.0, 2.0, 3.0, 0.5, 1.0, 1.0, 2.0)))
    prior = GoalPrior.explicit(3, {2: 1.0, 3: 1.0, 6: 1.0, 7: 1.0})
    return build(5, rows, costs, (4, 1, 3), prior)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(models())
@example(_ring5())
def test_random_model_planners_agree_with_the_oracle(model):
    ssp = compile_gussp(model)
    reach = enumerate_reachable(ssp)
    vi = value_iteration(ssp, reachable=reach, epsilon=1e-10)
    v0 = vi.table.value(ssp.start_id)
    assert abs(v0 - belief_space_start_value(model)) < 1e-6

    for name in ("zero", "hmin", "hpg"):
        lazy = compile_gussp(model)
        h = make_heuristic(name, lazy)
        res = lao_star(lazy, h, epsilon=EPSILON)
        value_start = res.table.value(lazy.start_id)
        assert abs(value_start - v0) < 1e-6, name
        v_pi = policy_value(lazy, res.policy)  # its closure from the start
        assert set(v_pi) == set(res.policy), name
        assert abs(v_pi[lazy.start_id] - v0) < 1e-6, name
        assert value_start <= v_pi[lazy.start_id] + 1e-9, name
        for i in res.policy:
            _v, a, residual = bellman_backup(lazy, res.table, i)
            assert a == res.policy[i] and residual < EPSILON, name

    # the heuristics are admissible: never above V* on any reachable state
    for name in ("hmin", "hpg"):
        h = make_heuristic(name, ssp)
        for i in range(len(reach)):
            assert h(i) <= vi.table.value(i) + 1e-6, (name, i)
