import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gussp.compiler import (
    CompiledSsp,
    CompiledState,
    compile_gussp,
    dump_compiled,
    enumerate_reachable,
)
from gussp.domains import grid, load_instance
from gussp.errors import ImproperModel, ModelError, StateBudgetExceeded
from gussp.model import GoalPrior, GusspModel, KnowledgeVector
from gussp.solvers import value_iteration

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_line4_reachable_set_frozen(line4_model, line4_solved):
    ssp, reach, _vi = line4_solved
    seen = {(ssp.state(i).s, str(ssp.state(i).k)) for i in range(len(reach))}
    assert seen == {
        ((0, 0), "UU"),
        ((1, 0), "UU"),
        ((2, 0), "GU"),
        ((2, 0), "NU"),
        ((1, 0), "NU"),
        ((0, 0), "NU"),
        ((3, 0), "NG"),
    }
    assert len(reach) == 7
    goals = {(ssp.state(i).s, str(ssp.state(i).k)) for i in np.flatnonzero(reach.goal)}
    assert goals == {((2, 0), "GU"), ((3, 0), "NG")}


def test_line4_revelation_split(line4_model, line4_solved):
    ssp, _reach, _vi = line4_solved
    at1 = ssp.intern((1, 0), KnowledgeVector(2))
    succ = {
        (ssp.state(j).s, str(ssp.state(j).k)): p
        for j, p in ssp.successors(at1, "right")
    }
    assert succ[((2, 0), "GU")] == pytest.approx(2 / 3)
    assert succ[((2, 0), "NU")] == pytest.approx(1 / 3)
    assert len(succ) == 2


def test_forced_revelation_when_one_config_left(line4_solved):
    ssp, _reach, _vi = line4_solved
    # once the first goal is ruled out, the second is certain on arrival
    at2 = ssp.intern((2, 0), KnowledgeVector(2, no=0b01))
    succ = {
        (ssp.state(j).s, str(ssp.state(j).k)): p
        for j, p in ssp.successors(at2, "right")
    }
    assert succ == {((3, 0), "NG"): pytest.approx(1.0)}


def test_goal_states_absorbing_zero_cost(line4_solved):
    ssp, reach, _vi = line4_solved
    for i in np.flatnonzero(reach.goal).tolist():
        for a in ssp.actions:
            assert ssp.successors(i, a) == ((i, 1.0),)
            assert ssp.cost(i, a) == 0.0


def test_unvisited_cell_does_not_branch(line4_solved):
    ssp, _reach, _vi = line4_solved
    # stepping between uninformative cells keeps the knowledge fixed
    succ = ssp.successors(ssp.start_id, "right")
    assert len(succ) == 1
    j, p = succ[0]
    assert p == 1.0 and str(ssp.state(j).k) == "UU"


def test_compiled_state_str(line4_solved):
    ssp, _reach, _vi = line4_solved
    assert str(ssp.state(ssp.start_id)) == "((0, 0), UU)"


def test_dump_compiled_format(line4_model):
    ssp = compile_gussp(line4_model)
    buf = io.StringIO()
    dump_compiled(ssp, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("0  (0, 0)  UU  ")
    assert "right->(1,1)" in lines[0]
    goal_lines = [ln for ln in lines if ln.endswith("goal")]
    assert len(goal_lines) == 2


def lazy_dump(ssp):
    """``dump_compiled``'s format, rendered by a breadth-first walk over the
    lazy ``successors``."""
    order, seen, out = [ssp.start_id], {ssp.start_id}, []
    for i in order:
        x = ssp.state(i)
        if ssp.is_goal(i):
            out.append(f"{i}  {x.s!r}  {x.k}  goal\n")
            continue
        parts = []
        for a in ssp.actions:
            succ = ssp.successors(i, a)
            for j, _p in succ:
                if j not in seen:
                    seen.add(j)
                    order.append(j)
            parts.append(f"{a}->" + ",".join(f"({j},{p:.9g})" for j, p in succ))
        out.append(f"{i}  {x.s!r}  {x.k}  [{'; '.join(parts)}]\n")
    return "".join(out)


@pytest.mark.parametrize("name", ["line4", "grid8_landmark", "ev8", "rover6", "search4"])
def test_dump_compiled_matches_lazy_rendering(name):
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    ssp = compile_gussp(model)
    buf = io.StringIO()
    dump_compiled(ssp, buf)
    # the dump reads the enumerated arrays and never fills the lazy row cache
    assert not ssp._q_rows
    assert buf.getvalue() == lazy_dump(compile_gussp(model))


def test_out_of_order_ssp_is_rejected(line4_model):
    ssp = compile_gussp(line4_model)
    # interned ahead of the walk, so the walk would meet it out of order
    ssp.intern((3, 0), KnowledgeVector(2, no=0b01, yes=0b10))
    with pytest.raises(ValueError, match="breadth-first order"):
        enumerate_reachable(ssp)
    # a start other than id 0 cannot head the walk's numbering either
    ssp = compile_gussp(line4_model)
    ssp.start_id = ssp.intern((1, 0), KnowledgeVector(2))
    with pytest.raises(ValueError, match="breadth-first order"):
        enumerate_reachable(ssp)


def test_rows_are_compiled_ids_after_partial_lazy_expansion(line4_model):
    # lazily expanding the start numbers its successors in walk order too
    ssp = compile_gussp(line4_model)
    for a in ssp.actions:
        ssp.successors(ssp.start_id, a)
    reach = enumerate_reachable(ssp)
    assert len(reach) == len(ssp) == 7
    assert_rows_match_lazy(ssp, reach)


def one_way_model():
    """0 -> 1 -> 2 with no way back; goal at 1 strands state 2."""

    def transition(s, a):
        return ((min(s + 1, 2), 1.0),)

    return GusspModel(
        base_states=[0, 1, 2],
        actions=("fwd",),
        transition=transition,
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=(1, 2),
        prior=GoalPrior.uniform(2),
    )


def test_conservative_properness_check():
    with pytest.raises(ImproperModel):
        compile_gussp(one_way_model())
    # bypassing the check still compiles
    ssp = CompiledSsp(one_way_model())
    assert len(ssp) >= 1


def test_exact_properness_check():
    def stuck(s, a):
        return ((0, 1.0),)

    model = GusspModel(
        base_states=[0, 1],
        actions=("stay",),
        transition=stuck,
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=(1,),
        prior=GoalPrior.uniform(1),
        validate=True,
    )
    ssp = CompiledSsp(model)
    with pytest.raises(ImproperModel):
        enumerate_reachable(ssp)
    reach = enumerate_reachable(ssp, require_proper=False)
    assert len(reach) == 1


def test_state_budget(line4_model):
    ssp = compile_gussp(line4_model)
    with pytest.raises(StateBudgetExceeded):
        enumerate_reachable(ssp, state_budget=3)


def test_state_budget_boundary():
    # rover6 has exactly 855 compiled states: a budget of 855 holds them all
    _params, model = load_instance(str(INSTANCES / "rover6.txt"))
    assert len(enumerate_reachable(compile_gussp(model), state_budget=855)) == 855
    with pytest.raises(StateBudgetExceeded, match="more than 854"):
        enumerate_reachable(compile_gussp(model), state_budget=854)


def test_intern_is_idempotent(line4_model):
    ssp = compile_gussp(line4_model)
    k = KnowledgeVector(2)
    a = ssp.intern((1, 0), k)
    b = ssp.intern((1, 0), k)
    assert a == b
    assert ssp.state(a) == CompiledState((1, 0), k)


def test_projection_domains_skip_base_check():
    from gussp.domains import build_ev, synthesize_ev_params

    # time moves forward only; the base-graph check would reject this, but
    # projected goals are exempt and the exact check accepts it
    model = build_ev(synthesize_ev_params(1))
    ssp = compile_gussp(model)
    reach = enumerate_reachable(ssp)
    assert len(reach) > 1


def test_hook_domain_exit_cost_folded():
    from gussp.domains import EvParams, build_ev

    params = EvParams(
        times=(1, 2),
        time_weights=(1.0, 1.0),
        prices=(1.0, 1.0),
        charge_max=2,
        charge_start=0,
        target_charge=2,
        penalty=5.0,
    )
    model = build_ev(params)
    ssp = compile_gussp(model)
    # idling from the start: arrival at t=1 departs with probability 1/2
    # at charge 0, so the expected exit penalty 0.5 * 5 * 2 is in the cost
    c = ssp.cost(ssp.start_id, "idle")
    assert c == pytest.approx(0.5 * 5.0 * 2)


def assert_rows_match_lazy(ssp, reach):
    """Every array row equals the lazy ``successors``/``cost`` of its pair."""
    m, n = reach.transitions, len(reach)
    n_actions = len(ssp.actions)
    assert m.shape == (n * n_actions, n)
    for i in range(n):
        assert bool(reach.goal[i]) == ssp.is_goal(i)
        for a_pos, a in enumerate(ssp.actions):
            lo, hi = m.indptr[i * n_actions + a_pos], m.indptr[i * n_actions + a_pos + 1]
            row = list(zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist()))
            cost = reach.cost[i * n_actions + a_pos]
            if reach.goal[i]:
                assert row == [] and cost == 0.0
            else:
                assert row == list(ssp.successors(i, a))
                assert cost == ssp.cost(i, a)


def landmark_map():
    """A generated 6x6 map with five goals and two landmarks: 2,561
    compiled states over many knowledge vectors, some gathered as plain
    rows and some written edge by edge."""
    params = grid.random_grid(7, width=6, height=6, n_goals=5, n_landmarks=2)
    return grid.build_grid(params)


@pytest.mark.parametrize(
    "name", ["line4", "grid8_landmark", "ev8", "rover6", "search4", "landmark_map"]
)
def test_reachable_rows_match_lazy_expansion(name):
    if name == "landmark_map":
        model = landmark_map()
    else:
        _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    ssp = compile_gussp(model)
    reach = enumerate_reachable(ssp)
    if name == "landmark_map":
        assert len(reach) == 2561
    # the eager path expands without filling the lazy row cache
    assert not ssp._q_rows
    if name == "ev8":
        assert model.terminal_cost is not None  # exit costs folded into cost
    assert_rows_match_lazy(ssp, reach)


def test_assumed_target_ssp_enumerates_into_arrays(line4_model):
    k = line4_model.knowledge_all_unknown().confirm(yes=0b01, no=0b10)
    ssp = CompiledSsp(line4_model, k, target=0)
    reach = enumerate_reachable(ssp)
    assert not ssp._q_rows
    assert [ssp.state(i).s for i in range(len(reach))] == [(0, 0), (1, 0), (2, 0)]
    assert_rows_match_lazy(ssp, reach)
    vi = value_iteration(ssp, reachable=reach)
    assert vi.table.value(ssp.start_id) == 2.0
    assert vi.policy[ssp.start_id] == "right"

    # search4: a plan's goals are where the target victim is saved, which
    # does not end the mission, and the save hook answers at the target site
    _params, model = load_instance(str(INSTANCES / "search4.txt"))
    k = model.knowledge_all_unknown().confirm(yes=0b001, no=0b110)
    ssp = CompiledSsp(model, k, target=0)
    reach = enumerate_reachable(ssp)
    goals = [ssp.state(i) for i in np.flatnonzero(reach.goal)]
    assert goals and not any(model.is_terminal(x.s, x.k) for x in goals)
    assert any(model.knowledge_effects(ssp.state(i).s, "save", k) for i in range(len(reach)))
    assert_rows_match_lazy(ssp, reach)


def test_dead_end_after_revelation_is_improper():
    """Arriving at 1 reveals whether it is a goal; if not, the only way on
    is a trap, and the other potential goal (3) is out of reach.  Every
    all-unknown state can still finish, so only the exact check sees it."""

    def transition(s, a):
        return ((s if s >= 2 else s + 1, 1.0),)

    model = GusspModel(
        base_states=[0, 1, 2, 3],
        actions=("fwd",),
        transition=transition,
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=(1, 3),
        prior=GoalPrior.uniform(2),
    )
    ssp = CompiledSsp(model)
    with pytest.raises(ImproperModel, match=r"2 reachable states .* e\.g\. \(1, NU\)"):
        enumerate_reachable(ssp)
    reach = enumerate_reachable(ssp, require_proper=False)
    assert [str(ssp.state(i)) for i in range(len(reach))] == ["(0, UU)", "(1, NU)", "(1, GU)", "(2, NU)"]


def jump_model(effects_target=3, effects=None, step_cost=None):
    """0 -> 1 -> 2 -> 3 by ``fwd``; ``jump`` stays put, except that the
    knowledge hook sends it to ``effects_target`` once goal 3 is confirmed.
    Arrival at the landmark 1 reveals goal 3, so base state 1 is reached
    under two knowledge vectors: ``UN`` (first in discovery order) and
    ``UG``.  ``effects``, if given, replaces that hook; ``step_cost`` is
    the ``knowledge_step_cost`` hook (none by default)."""

    def jump_when_confirmed(s, a, k):
        if a == "jump" and k.yes & 0b10:
            return ((effects_target, 1.0),)
        return None

    return GusspModel(
        base_states=[0, 1, 2, 3],
        actions=("fwd", "jump"),
        transition=lambda s, a: ((min(s + 1, 3) if a == "fwd" else s, 1.0),),
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=(2, 3),
        prior=GoalPrior.uniform(2),
        landmarks={1: (3,)},
        knowledge_effects=effects or jump_when_confirmed,
        knowledge_step_cost=step_cost,
    )


def test_knowledge_hook_is_not_shadowed_by_memoised_base_row():
    model = jump_model()
    names = {"UN": KnowledgeVector(2, no=0b10), "UG": KnowledgeVector(2, yes=0b10)}
    for order in (("UN", "UG"), ("UG", "UN")):
        ssp = compile_gussp(model)
        at = {name: ssp.intern(1, names[name]) for name in order}
        rows = {name: ssp.successors(at[name], "jump") for name in order}
        assert rows["UN"] == ((at["UN"], 1.0),)  # the base row: stay
        (j, p), = rows["UG"]
        assert p == 1.0 and str(ssp.state(j)) == "(3, UG)" and ssp.is_goal(j)
    # the eager path expands (1, UN) first, memoising the base row the
    # hook must then override at (1, UG)
    ssp = compile_gussp(model)
    reach = enumerate_reachable(ssp)
    states = [str(ssp.state(i)) for i in range(len(reach))]
    assert states.index("(1, UN)") < states.index("(1, UG)")
    assert_rows_match_lazy(ssp, reach)


def test_non_base_successor_is_a_model_error():
    ssp = compile_gussp(jump_model(effects_target=99))
    at = ssp.intern(1, KnowledgeVector(2, yes=0b10))
    with pytest.raises(ModelError, match=r"successor 99 of \(1, UG\) / 'jump' is not a base state"):
        ssp.successors(at, "jump")
    with pytest.raises(ModelError, match="successor 99 .* not a base state"):
        enumerate_reachable(compile_gussp(jump_model(effects_target=99)))
    with pytest.raises(ModelError, match="99 is not a base state"):
        ssp.intern(99, KnowledgeVector(2))


def test_repeated_revealing_outcomes_fold_one_by_one():
    """A base row that reaches the potential goal 1 twice splits each
    outcome by the revelation separately and sums the products, as the
    unmerged fold always has: 0.05 q + 0.7 q, not (0.05 + 0.7) q, which
    rounds differently."""
    model = GusspModel(
        base_states=[0, 1, 2],
        actions=("go",),
        transition=lambda s, a: ((1, 0.05), (2, 0.25), (1, 0.7)) if s == 0 else ((0, 1.0),),
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=(1, 2),
        prior=GoalPrior.uniform(2),
    )
    ssp = compile_gussp(model)
    row = [(str(ssp.state(j)), p) for j, p in ssp.successors(ssp.start_id, "go")]
    q_no, q_yes = 1 / 3, 1 / 3 + 1 / 3
    assert row == [
        ("(1, NU)", 0.05 * q_no + 0.7 * q_no),
        ("(1, GU)", 0.05 * q_yes + 0.7 * q_yes),
        ("(2, UN)", 0.25 * q_no),
        ("(2, UG)", 0.25 * q_yes),
    ]
    assert row[0][1] != (0.05 + 0.7) * q_no


HOOKS = ("knowledge_effects", "knowledge_step_cost", "transition", "cost")


def count_calls(model):
    """Wrap the model's hooks and base dynamics so each call is counted,
    keyed on its arguments: ``(s, a, k)`` for the hooks, ``(s, a)`` else."""
    calls = {name: Counter() for name in HOOKS}
    for name, seen in calls.items():
        fn = getattr(model, name)
        if fn is None:
            continue

        def counted(*args, fn=fn, seen=seen):
            seen[args] += 1
            return fn(*args)

        setattr(model, name, counted)
    return calls


def lazy_walk(ssp):
    """``q_rows`` on every state of ``ssp``, in id order, as it grows."""
    i = 0
    while i < len(ssp):
        ssp.q_rows(i)
        i += 1


@pytest.mark.parametrize("path", ["eager", "lazy"])
def test_hook_contract(path):
    """The knowledge hooks run once per (non-goal state, action) expansion;
    the base dynamics and cost are read at most once per (s, a)."""
    _params, model = load_instance(str(INSTANCES / "rover6.txt"))
    ssp = compile_gussp(model)
    calls = count_calls(model)
    if path == "eager":
        enumerate_reachable(ssp)
    else:
        lazy_walk(ssp)
        lazy_walk(ssp)  # the rows are memoised: no hook runs again
    expanded = Counter(
        (ssp.state(i).s, a, ssp.state(i).k)
        for i in range(len(ssp)) if not ssp.is_goal(i)
        for a in ssp.actions
    )
    assert len(ssp) == 855
    assert calls["knowledge_effects"] == expanded
    assert calls["knowledge_step_cost"] == expanded
    for name in ("transition", "cost"):
        assert calls[name] and max(calls[name].values()) == 1, name


def test_answered_hook_skips_the_base_row():
    """A hook that always answers at (1, jump) wins there, so the base row
    of (1, jump) is never read, on either path."""

    def effects(s, a, k):
        return ((2, 1.0),) if (s, a) == (1, "jump") else None

    for walk in (enumerate_reachable, lazy_walk):
        model = jump_model(effects=effects)
        ssp = compile_gussp(model)
        calls = count_calls(model)
        walk(ssp)
        assert calls["knowledge_effects"][(1, "jump", KnowledgeVector(2, no=0b10))] == 1
        assert (1, "fwd") in calls["transition"]
        assert (1, "jump") not in calls["transition"]


def test_step_cost_hook_alone_keeps_the_base_row():
    """``knowledge_step_cost`` answers at (1, UG) / jump while
    ``knowledge_effects`` never does: the row there stays the base row
    (stay put) and only the cost comes from the hook, on both paths."""

    def step_cost(s, a, k):
        return 5.0 if a == "jump" and k.yes & 0b10 else None

    model = jump_model(effects=lambda s, a, k: None, step_cost=step_cost)
    ssp = compile_gussp(model)
    reach = enumerate_reachable(ssp)
    at = {str(ssp.state(i)): i for i in range(len(reach))}
    assert ssp.successors(at["(1, UG)"], "jump") == ((at["(1, UG)"], 1.0),)
    assert ssp.cost(at["(1, UG)"], "jump") == 5.0
    assert ssp.cost(at["(1, UN)"], "jump") == 1.0
    assert_rows_match_lazy(ssp, reach)
