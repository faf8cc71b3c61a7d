"""The properness checks: the exact numpy walk back from the goals against
the Python list walk it replaced (``oracles.dead_states_reference``), and
the up-front base-graph check of ``compile_gussp``."""

import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from gussp.compiler import CompiledSsp, _dead_states, compile_gussp, enumerate_reachable
from gussp.domains import load_instance
from gussp.errors import ImproperModel
from gussp.model import GoalPrior, GusspModel
from oracles import dead_states_reference

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SMALL = ["line4", "grid8", "grid8_landmark", "ev8", "rover6", "search4", "grid12"]


@pytest.fixture(autouse=True)
def deadline():
    """A walk that revisits finished states never ends: fail it instead.
    ``pytest.fail`` fails only the running test; an arbitrary exception
    raised from the signal handler can end the whole session."""

    def expire(*_args):
        pytest.fail("the properness walk did not finish in 30 s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_walks_agree(transitions, goal, n_actions):
    dead = _dead_states(transitions, goal, n_actions)
    assert dead.tolist() == dead_states_reference(transitions, goal, n_actions)
    return dead


@pytest.mark.parametrize("name", SMALL)
def test_dead_states_match_the_list_walk_on_bundled_instances(name):
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    reach = enumerate_reachable(compile_gussp(model))
    assert len(reach) <= 2_000
    m, n_actions = reach.transitions, len(model.actions)
    assert assert_walks_agree(m, reach.goal, n_actions).size == 0
    # fewer goals strand more states, at every depth of the walk
    goals = np.flatnonzero(reach.goal)
    for kept in (goals[::2], goals[:1], goals[:0]):
        mask = np.zeros(len(reach), dtype=bool)
        mask[kept] = True
        assert_walks_agree(m, mask, n_actions)


@pytest.mark.parametrize("seed", range(40))
def test_dead_states_match_the_list_walk_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n, n_actions = int(rng.integers(1, 60)), int(rng.integers(1, 5))
    goal = rng.random(n) < 0.1
    rows = []
    for r in range(n * n_actions):
        k = 0 if goal[r // n_actions] else int(rng.integers(0, min(n, 3) + 1))
        rows.append(rng.choice(n, size=k, replace=False))
    indptr = np.concatenate(([0], np.cumsum([len(x) for x in rows])))
    indices = np.concatenate(rows + [np.zeros(0, dtype=int)])
    m = sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(n * n_actions, n)
    )
    assert_walks_agree(m, goal, n_actions)


def line_model(transition, actions, n_base, potential_goals):
    return GusspModel(
        base_states=list(range(n_base)),
        actions=actions,
        transition=transition,
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=potential_goals,
        prior=GoalPrior.uniform(len(potential_goals)),
    )


def levels_model():
    """Only ``fwd``, the last of three actions, leads on: 0 -> 1 -> 2 -> 3
    -> goal 4, four levels back from the goal.  ``trap`` drops into the
    cycle 5 <-> 6, which no action leaves."""

    def transition(s, a):
        if s >= 5:
            return ((11 - s if a == "fwd" else s, 1.0),)
        if a == "trap":
            return ((5, 1.0),)
        return ((s + 1 if a == "fwd" else s, 1.0),)

    return line_model(transition, ("trap", "stay", "fwd"), 7, (4,))


def revelation_model():
    """Arriving at 1 reveals whether it is a goal; if not, ``fwd`` leads
    only to 2, which no action leaves, and goal 3 is out of reach."""

    def transition(s, a):
        return ((min(s + 1, 2) if a == "fwd" else s, 1.0),)

    return line_model(transition, ("wait", "fwd"), 4, (1, 3))


def branch_model():
    """``go`` from 0 slips into the trap 5 one time in ten; every other
    state walks on to goal 4 or back towards 0."""

    def transition(s, a):
        if s == 5:
            return ((5, 1.0),)
        if a == "back":
            return ((max(s - 1, 0), 1.0),)
        if s == 0:
            return ((1, 0.9), (5, 0.1))
        return ((s + 1, 1.0),)

    return line_model(transition, ("back", "go"), 6, (4,))


@pytest.mark.parametrize(
    "build, dead_bases",
    [(levels_model, {5, 6}), (revelation_model, {1, 2}), (branch_model, {5})],
)
def test_improper_message_matches_the_list_walk(build, dead_bases):
    model = build()
    reach = enumerate_reachable(
        CompiledSsp(model), require_proper=False
    )
    dead = assert_walks_agree(reach.transitions, reach.goal, len(model.actions))
    ssp = CompiledSsp(model)
    with pytest.raises(ImproperModel) as err:
        enumerate_reachable(ssp)
    ref = dead_states_reference(reach.transitions, reach.goal, len(model.actions))
    assert str(err.value) == (
        f"{len(ref)} reachable states cannot reach a goal, e.g. {ssp.state(ref[0])}"
    )
    assert {ssp.state(i).s for i in dead.tolist()} == dead_bases


@pytest.mark.parametrize("name", ["grid12", "rover6", "search4"])
def test_properness_check_costs_about_one_matrix(name):
    """The check's extra traced peak stays below twice the bytes of the CSR
    arrays; Python lists of the reverse edges cost three to four times."""
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    enumerate_reachable(compile_gussp(model))  # warm the model's caches
    peaks = {}
    for proper in (False, True):
        ssp = compile_gussp(model)
        tracemalloc.start()
        try:
            reach = enumerate_reachable(ssp, require_proper=proper)
            peaks[proper] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    m = reach.transitions
    matrix_bytes = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    assert peaks[True] - peaks[False] < 2 * matrix_bytes


def corridor_model(n, seed=0):
    """A corridor 0 .. n-1 with ``back``/``stay``/``fwd`` and goals at both
    ends, its base states listed in shuffled order."""
    order = list(range(n))
    np.random.default_rng(seed).shuffle(order)

    def transition(s, a):
        step = {"back": -1, "stay": 0, "fwd": 1}[a]
        return ((min(max(s + step, 0), n - 1), 1.0),)

    return GusspModel(
        base_states=order,
        actions=("back", "stay", "fwd"),
        transition=transition,
        cost=lambda s, a: 1.0,
        start_state=n // 2,
        potential_goals=(0, n - 1),
        prior=GoalPrior.uniform(2),
    )


def test_base_check_is_linear_on_a_long_shuffled_corridor():
    # a fixed-point pass over the reachable set can add one state per pass
    ssp = compile_gussp(corridor_model(50_000))
    assert len(ssp) == 1


def test_base_check_rejects_a_state_that_reaches_only_one_goal():
    """From 0, ``left`` leads to goal 1 and ``right`` to 3 -> goal 4; 3 and
    4 never lead back, so both reach goal 4 and neither reaches goal 1."""

    def transition(s, a):
        if s == 0:
            return ((1 if a == "left" else 3, 1.0),)
        if s in (1, 2):
            return ((2 if s == 1 and a == "right" else 0, 1.0),)
        return ((4, 1.0),)

    model = line_model(transition, ("left", "right"), 5, (1, 4))
    with pytest.raises(ImproperModel) as err:
        compile_gussp(model)
    # the first stranded state in walk order 0, 1, 3, 2, 4
    assert str(err.value) == "state 3 cannot reach potential goal 1"
