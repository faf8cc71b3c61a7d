import io
from pathlib import Path

import pytest

from gussp.compiler import (
    CompiledState,
    compile_gussp,
    dump_compiled,
    enumerate_reachable,
)
from gussp.determinize import AssumedTargetSsp
from gussp.domains import load_instance
from gussp.errors import ImproperModel, ModelError, StateBudgetExceeded
from gussp.model import GoalPrior, GusspModel, KnowledgeVector
from gussp.solvers import value_iteration

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_line4_reachable_set_frozen(line4_model, line4_solved):
    ssp, reach, _vi = line4_solved
    seen = {(ssp.state(i).s, str(ssp.state(i).k)) for i in reach.ids}
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
    goals = {(ssp.state(i).s, str(ssp.state(i).k)) for i in reach.goal_ids}
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
    for i in reach.goal_ids:
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
    ssp = compile_gussp(one_way_model(), check_properness=False)
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
    ssp = compile_gussp(model, check_properness=False)
    with pytest.raises(ImproperModel):
        enumerate_reachable(ssp)
    reach = enumerate_reachable(ssp, require_proper=False)
    assert len(reach) == 1


def test_state_budget(line4_model):
    ssp = compile_gussp(line4_model)
    with pytest.raises(StateBudgetExceeded):
        enumerate_reachable(ssp, state_budget=3)


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
    ids, m = reach.ids, reach.transitions
    n_actions = len(ssp.actions)
    assert m.shape == (len(ids) * n_actions, len(ids))
    for r, i in enumerate(ids):
        assert bool(reach.goal[r]) == ssp.is_goal(i)
        for a_pos, a in enumerate(ssp.actions):
            lo, hi = m.indptr[r * n_actions + a_pos], m.indptr[r * n_actions + a_pos + 1]
            row = [(ids[c], p) for c, p in zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist())]
            cost = reach.cost[r * n_actions + a_pos]
            if reach.goal[r]:
                assert row == [] and cost == 0.0
            else:
                assert row == list(ssp.successors(i, a))
                assert cost == ssp.cost(i, a)


@pytest.mark.parametrize("name", ["line4", "grid8_landmark", "ev8", "rover6", "search4"])
def test_reachable_rows_match_lazy_expansion(name):
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    ssp = compile_gussp(model)
    reach = enumerate_reachable(ssp)
    # the eager path expands without filling the lazy caches
    assert not ssp._succ_cache and not ssp._cost_cache
    if name == "ev8":
        assert model.terminal_cost is not None  # exit costs folded into cost
    assert_rows_match_lazy(ssp, reach)


def test_assumed_target_ssp_enumerates_into_arrays(line4_model):
    k = line4_model.knowledge_all_unknown().confirm(yes=0b01, no=0b10)
    ssp = AssumedTargetSsp(line4_model, k, target=0)
    reach = enumerate_reachable(ssp)
    assert not ssp._succ_cache and not ssp._cost_cache
    assert [ssp.state(i) for i in reach.ids] == [(0, 0), (1, 0), (2, 0)]
    assert_rows_match_lazy(ssp, reach)
    vi = value_iteration(ssp, reachable=reach)
    assert vi.table.value(ssp.start_id) == 2.0
    assert vi.policy.act(ssp.start_id) == "right"


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
    ssp = compile_gussp(model, check_properness=False)
    with pytest.raises(ImproperModel, match=r"2 reachable states .* e\.g\. \(1, NU\)"):
        enumerate_reachable(ssp)
    reach = enumerate_reachable(ssp, require_proper=False)
    assert [str(ssp.state(i)) for i in reach.ids] == ["(0, UU)", "(1, NU)", "(1, GU)", "(2, NU)"]


def jump_model(effects_target=3):
    """0 -> 1 -> 2 -> 3 by ``fwd``; ``jump`` stays put, except that the
    knowledge hook sends it to ``effects_target`` once goal 3 is confirmed.
    Arrival at the landmark 1 reveals goal 3, so base state 1 is reached
    under two knowledge vectors: ``UN`` (first in discovery order) and
    ``UG``."""

    def effects(s, a, k):
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
        knowledge_effects=effects,
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
    states = [str(ssp.state(i)) for i in reach.ids]
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
