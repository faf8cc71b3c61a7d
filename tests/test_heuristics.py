import math

import pytest

from gussp.compiler import CompiledSsp, compile_gussp, enumerate_reachable
from gussp.heuristics import (
    HminHeuristic,
    HpgHeuristic,
    build_distance_oracle,
    make_heuristic,
    zero_heuristic,
)
from gussp.solvers import value_iteration


def test_distance_oracle_line4(line4_model):
    oracle = build_distance_oracle(line4_model)
    assert oracle.dist((0, 0), 0) == pytest.approx(2.0)
    assert oracle.dist((0, 0), 1) == pytest.approx(3.0)
    assert oracle.dist((2, 0), 0) == 0.0
    assert oracle.dist((3, 0), 0) == pytest.approx(1.0)


def test_distance_oracle_slippery_uses_best_outcome():
    from gussp.domains import GridParams, build_grid

    params = GridParams(
        width=3, height=1, start=(0, 0), potential_goals=((2, 0),),
        move_success=0.5,
    )
    oracle = build_distance_oracle(build_grid(params))
    # the relaxation assumes moves succeed, so distance is step count
    assert oracle.dist((0, 0), 0) == pytest.approx(2.0)


def test_hpg_anchor(line4_solved):
    ssp, _reach, _vi = line4_solved
    oracle = build_distance_oracle(ssp.model)
    h = HpgHeuristic(ssp, oracle)
    assert h(ssp.start_id) == pytest.approx(4 / 3)
    reach = enumerate_reachable(ssp)
    for gid in range(len(reach)):
        if reach.goal[gid]:
            assert h(gid) == 0.0


def test_hpg_after_disconfirmation(line4_solved):
    ssp, _reach, _vi = line4_solved
    from gussp.model import KnowledgeVector

    oracle = build_distance_oracle(ssp.model)
    # only the far goal remains: single config, weight (1 - posterior) = 0
    i = ssp.intern((2, 0), KnowledgeVector(2, no=0b01))
    assert HpgHeuristic(ssp, oracle)(i) == 0.0


def test_hmin_anchor(line4_solved):
    ssp, _reach, _vi = line4_solved
    assert HminHeuristic(ssp)(ssp.start_id) == pytest.approx(2.0)


def test_hmin_cache_stable(line4_solved):
    ssp, _reach, _vi = line4_solved
    h = HminHeuristic(ssp)
    first = h(ssp.start_id)
    assert h(ssp.start_id) == first
    # cached intermediate values agree with fresh queries
    for i, value in list(h.cache.items()):
        assert HminHeuristic(ssp)(i) == pytest.approx(value)


def _assert_admissible(model, tol=1e-9):
    ssp = compile_gussp(model)
    reach = enumerate_reachable(ssp)
    vi = value_iteration(ssp, reachable=reach)
    oracle = build_distance_oracle(model)
    hpg = HpgHeuristic(ssp, oracle)
    hmin = HminHeuristic(ssp)
    for i in range(len(reach)):
        v = vi.table.value(i)
        assert zero_heuristic(i) <= v + tol
        assert hpg(i) <= v + tol, f"hpg violates admissibility at {ssp.state(i)}"
        assert hmin(i) <= v + tol, f"hmin violates admissibility at {ssp.state(i)}"


def test_admissibility_on_grids(small_grids):
    for _params, model in small_grids[:8]:
        _assert_admissible(model)


def test_admissibility_on_hook_domains(oracle_models):
    for name in ("rover", "search", "ev", "grid_landmark", "grid_bernoulli"):
        _assert_admissible(oracle_models[name])


def test_make_heuristic_unknown_name(line4_solved):
    ssp, _reach, _vi = line4_solved
    with pytest.raises(ValueError):
        make_heuristic("h_star", ssp)


def test_make_heuristic_builds_oracle_when_missing(line4_solved):
    ssp, _reach, _vi = line4_solved
    h = make_heuristic("hpg", ssp)
    assert h(ssp.start_id) == pytest.approx(4 / 3)


def test_hpg_reuses_the_oracle_of_the_properness_check(line4_model):
    ssp = compile_gussp(line4_model)
    h = make_heuristic("hpg", ssp)
    assert h.oracle is ssp.distance_oracle
    assert h.oracle == build_distance_oracle(line4_model)
    # without the check there is no oracle to reuse: hpg builds its own
    bare = CompiledSsp(line4_model)
    assert bare.distance_oracle is None
    assert make_heuristic("hpg", bare)(bare.start_id) == h(ssp.start_id)
