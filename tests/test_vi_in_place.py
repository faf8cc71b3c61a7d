"""Value iteration over the enumerated matrix in place, against the sweep
it replaced (``oracles.vi_sweeps_reference``): an action-major copy whose
rows ``sum_duplicates`` sorted and merged, and one greedy fold over every
row at once.  Values must match to the bit, and sweep counts and greedy
actions exactly.  Two memory gates bound what value iteration and the
properness walk allocate above the matrix they read."""

import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse

from gussp.compiler import Reachable, _dead_states, compile_gussp, enumerate_reachable
from gussp.domains import build_grid, load_instance, random_grid
from gussp.model import GoalPrior, GusspModel
from gussp.solvers import _sorted_rows, value_iteration
from oracles import vi_sweeps_reference
from test_random_models import models

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
BUNDLED = ["line4", "grid8", "grid8_landmark", "ev8", "rover6", "search4", "grid12", "rover20"]


def assert_matches_reference(actions, reach, epsilon=1e-6):
    v, sweeps, best = vi_sweeps_reference(reach, epsilon)
    vi = value_iteration(SimpleNamespace(actions=actions), reachable=reach, epsilon=epsilon)
    assert vi.table.values.array.tobytes() == v.tobytes()
    assert vi.sweeps == sweeps
    assert vi.policy.index.tolist() == np.where(reach.goal, -1, best).tolist()
    return vi


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_instances_match_the_sorted_copy(name):
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    assert_matches_reference(model.actions, enumerate_reachable(compile_gussp(model)))


def test_one_action_model_matches_the_sorted_copy():
    def transition(s, a):
        return ((s + 1, 0.7), (s, 0.3)) if s < 3 else ((s, 1.0),)

    model = GusspModel(
        base_states=range(4), actions=("fwd",), transition=transition,
        cost=lambda s, a: 1.0, start_state=0, potential_goals=(3,),
        prior=GoalPrior.uniform(1),
    )
    vi = assert_matches_reference(model.actions, enumerate_reachable(compile_gussp(model)))
    assert vi.policy[0] == "fwd"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(models())
def test_random_models_match_the_sorted_copy(model):
    assert_matches_reference(model.actions, enumerate_reachable(compile_gussp(model)), 1e-10)


def test_a_three_entry_row_out_of_order_is_summed_from_the_sorted_copy():
    """From 0, ``a`` first meets 1, 2 and 3 in that order, and ``b`` lists
    them backward, so its row's columns run 3, 2, 1.  ``b`` is the cheaper
    action at 0, and its sum in stored order is off in the last bit."""
    rows = {(0, "a"): ((1, 0.1), (2, 0.2), (3, 0.7)), (0, "b"): ((3, 0.7), (2, 0.2), (1, 0.1)),
            (4, "a"): ((4, 1.0),), (4, "b"): ((4, 1.0),)}
    for s, p in ((1, 0.1), (2, 0.3), (3, 0.7)):
        rows[s, "a"] = ((4, p), (s, 1.0 - p))
        rows[s, "b"] = ((4, 1.0),)
    model = GusspModel(
        base_states=range(5), actions=("a", "b"), transition=lambda s, a: rows[s, a],
        cost=lambda s, a: 1.0 / 3.0 if (s == 0) == (a == "b") else 1.7,
        start_state=0, potential_goals=(4,), prior=GoalPrior.uniform(1),
    )
    reach = enumerate_reachable(compile_gussp(model))
    assert reach.transitions.indices[reach.transitions.indptr[1]:].tolist()[:3] == [3, 2, 1]
    fixed, _side = _sorted_rows(reach.transitions)
    assert fixed.tolist() == [1]
    assert_matches_reference(model.actions, reach)


def test_a_repeated_column_is_merged_as_the_sorted_copy_merges_it():
    """Row 0 names state 1 twice; ``sum_duplicates`` adds the two
    probabilities before multiplying, which here rounds otherwise than
    adding the two products, so the in-place sum must merge them too."""
    indptr = [0, 2, 5, 6, 7, 7, 7]
    indices = [1, 1, 2, 1, 2, 2, 1]
    data = [0.3, 0.7, 0.3, 0.3, 0.4, 1.0, 1.0]
    m = sparse.csr_matrix((np.array(data), np.array(indices, dtype=np.intc),
                           np.array(indptr, dtype=np.intc)), shape=(6, 3))
    reach = Reachable(goal=np.array([False, False, True]),
                      cost=np.array([0.7, 5.0, 1.3, 1.1, 0.0, 0.0]), transitions=m)
    fixed, side = _sorted_rows(m)
    assert fixed.tolist() == [0, 1]
    assert side.indices.tolist() == [1, 1, 2]
    assert_matches_reference(("a", "b"), reach)


def _input_bytes(reach):
    m = reach.transitions
    return (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            + reach.cost.nbytes + reach.goal.nbytes)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def grid_reach():
    """A 20 x 20 grid with seven potential goals: 32,156 compiled states,
    enumerated in about 0.1 s."""
    model = build_grid(random_grid(3, width=20, height=20, n_goals=7))
    ssp = compile_gussp(model)
    return ssp, enumerate_reachable(ssp)


def test_value_iteration_allocates_under_three_quarters_of_its_input(grid_reach):
    """The sweep over an action-major copy took 1.60 times the input here;
    in place, with the greedy fold in blocks, it takes 0.54."""
    ssp, reach = grid_reach
    peak = _traced_peak(lambda: value_iteration(ssp, reachable=reach))
    assert peak < 0.75 * _input_bytes(reach)


def test_properness_walk_allocates_under_six_tenths_of_its_input(grid_reach):
    """Transposing the matrix with its float data took 0.79 times the
    input here; the bool pattern over states takes 0.42."""
    ssp, reach = grid_reach
    peak = _traced_peak(
        lambda: _dead_states(reach.transitions, reach.goal, len(ssp.actions)))
    assert peak < 0.6 * _input_bytes(reach)
