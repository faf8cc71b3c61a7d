import contextlib

import pytest
from hypothesis import HealthCheck, settings

from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.domains import (
    GridParams,
    PriorSpec,
    RoverParams,
    SearchRescueParams,
    build_ev,
    build_grid,
    build_rover,
    build_search_rescue,
    line4,
    random_grid,
    synthesize_ev_params,
)
from gussp.model import GusspModel
from gussp.solvers import value_iteration

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def hook_sites_declared():
    """``hook_sites_declared(False)`` is a context in which every model built
    drops the hook sites its builder declares, so, like a model that
    declares none, it has every base state as a site;
    ``hook_sites_declared(True)`` changes nothing."""
    init = GusspModel.__init__

    def init_without_sites(self, *, hook_sites=None, **kwargs):
        init(self, **kwargs)

    @contextlib.contextmanager
    def context(declared):
        with pytest.MonkeyPatch.context() as mp:
            if not declared:
                mp.setattr(GusspModel, "__init__", init_without_sites)
            yield

    return context


@pytest.fixture(scope="session")
def line4_model():
    return build_grid(line4())


@pytest.fixture(scope="session")
def line4_solved(line4_model):
    ssp = compile_gussp(line4_model)
    reach = enumerate_reachable(ssp)
    vi = value_iteration(ssp, reachable=reach)
    return ssp, reach, vi


@pytest.fixture(scope="session")
def small_grids():
    """Twenty varied small instances with known-good layouts."""
    out = []
    for seed in range(20):
        params = random_grid(
            seed,
            width=5,
            height=5,
            n_goals=2 + seed % 2,
            n_landmarks=seed % 3 // 2,
            obstacle_density=0.12,
            move_success=1.0 if seed % 2 else 0.85,
        )
        out.append((params, build_grid(params)))
    return out


@pytest.fixture(scope="session")
def small_grids_solved(small_grids):
    solved = []
    for params, model in small_grids:
        ssp = compile_gussp(model)
        reach = enumerate_reachable(ssp)
        vi = value_iteration(ssp, reachable=reach)
        solved.append((params, model, ssp, reach, vi))
    return solved


@pytest.fixture(scope="session")
def oracle_models():
    """Small instances of every domain, for belief-space cross-checks."""
    grid_lm = GridParams(
        width=3,
        height=3,
        start=(0, 0),
        potential_goals=((2, 0), (2, 2)),
        landmarks=(((0, 2), ((2, 0), (2, 2))),),
        move_success=0.9,
    )
    rover = RoverParams(
        width=3,
        height=2,
        start=(0, 0),
        potential_goals=((2, 0), (0, 1)),
        move_success=0.8,
    )
    search = SearchRescueParams(
        width=3,
        height=2,
        start=(0, 0),
        candidate_cells=((2, 0), (2, 1)),
        n_victims=1,
        move_success=0.85,
    )
    bern = GridParams(
        width=4,
        height=1,
        start=(0, 0),
        potential_goals=((2, 0), (3, 0)),
        prior=PriorSpec(kind="bernoulli", marginals=(0.7, 0.4)),
    )
    return {
        "line4": build_grid(line4()),
        "grid_landmark": build_grid(grid_lm),
        "grid_bernoulli": build_grid(bern),
        "rover": build_rover(rover),
        "search": build_search_rescue(search),
        "ev": build_ev(synthesize_ev_params(3)),
    }
