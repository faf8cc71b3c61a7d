import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import pytest

from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.domains import (
    EvParams,
    GridParams,
    PriorSpec,
    RoverParams,
    SearchRescueParams,
    build_ev,
    build_grid,
    build_rover,
    build_search_rescue,
    instance_digest,
    line4,
    load_instance,
    parse_instance,
    random_grid,
    random_rover,
    serialize_instance,
    synthesize_ev_params,
)
from gussp.errors import InvalidInstance
from gussp.model import observe
from oracles import step_cost, transition_rows

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


# --- builder validation ----------------------------------------------------

# the three spatial builders share one checked layout; build() passes the
# goals as each builder's own goal field
LAYOUT_BUILDERS = {
    "grid": lambda goals, **kw: build_grid(GridParams(potential_goals=goals, **kw)),
    "rover": lambda goals, **kw: build_rover(RoverParams(potential_goals=goals, **kw)),
    "search": lambda goals, **kw: build_search_rescue(
        SearchRescueParams(candidate_cells=goals, **kw)),
}
layout_builders = pytest.mark.parametrize("build", LAYOUT_BUILDERS.values(),
                                          ids=LAYOUT_BUILDERS.keys())
WALL = frozenset({(1, 0), (1, 1), (1, 2)})


@layout_builders
def test_layout_rejects_bad_dimensions(build):
    with pytest.raises(InvalidInstance, match="^grid needs positive dimensions$"):
        build(((0, 1),), width=0, height=3, start=(0, 0))


@layout_builders
def test_layout_rejects_blocked_start(build):
    with pytest.raises(InvalidInstance, match=r"start \(1, 1\) is an obstacle"):
        build(((2, 2),), width=3, height=3, start=(1, 1),
              obstacles=frozenset({(1, 1)}))


@layout_builders
def test_layout_rejects_cut_off_goal(build):
    with pytest.raises(InvalidInstance, match=r"\[\(2, 2\)\] are cut off"):
        build(((2, 2),), width=3, height=3, start=(0, 0), obstacles=WALL)


@layout_builders
def test_layout_rejects_bad_slip(build):
    with pytest.raises(InvalidInstance, match="move_success"):
        build(((2, 0),), width=3, height=1, start=(0, 0), move_success=0.0)


@layout_builders
def test_layout_rejects_goal_outside_grid(build):
    with pytest.raises(InvalidInstance, match=r"\(3, 0\) is outside the grid"):
        build(((3, 0),), width=3, height=1, start=(0, 0))


@layout_builders
def test_layout_rejects_goal_on_obstacle(build):
    with pytest.raises(InvalidInstance, match=r"\(2, 0\) is an obstacle"):
        build(((2, 0),), width=3, height=2, start=(0, 0),
              obstacles=frozenset({(2, 0)}))


@layout_builders
def test_layout_rejects_landmark_on_obstacle(build):
    with pytest.raises(InvalidInstance, match=r"landmark \(1, 1\) is an obstacle"):
        build(((2, 0),), width=3, height=3, start=(0, 0),
              obstacles=frozenset({(1, 1)}), landmarks=(((1, 1), ((2, 0),)),))


@layout_builders
def test_layout_rejects_cut_off_landmark(build):
    with pytest.raises(InvalidInstance, match=r"landmark \(2, 2\) is cut off"):
        build(((0, 2),), width=3, height=3, start=(0, 0), obstacles=WALL,
              landmarks=(((2, 2), ((0, 2),)),))


def test_search_rescue_rejects_bad_victim_count():
    with pytest.raises(InvalidInstance):
        build_search_rescue(SearchRescueParams(
            width=3, height=1, start=(0, 0),
            candidate_cells=((1, 0), (2, 0)), n_victims=3,
        ))


def test_search_rescue_rejects_wrong_size_config():
    prior = PriorSpec(kind="explicit", configs=((((1, 0),), 1.0),))
    with pytest.raises(InvalidInstance):
        build_search_rescue(SearchRescueParams(
            width=3, height=1, start=(0, 0),
            candidate_cells=((1, 0), (2, 0)), n_victims=2, prior=prior,
        ))


def test_ev_rejects_bad_times():
    with pytest.raises(InvalidInstance):
        build_ev(EvParams(times=(3, 2), time_weights=(1.0, 1.0),
                          prices=(1.0, 1.0, 1.0)))
    with pytest.raises(InvalidInstance):
        build_ev(EvParams(times=(0, 2), time_weights=(1.0, 1.0),
                          prices=(1.0, 1.0)))


def test_ev_rejects_short_price_table():
    with pytest.raises(InvalidInstance):
        build_ev(EvParams(times=(4,), time_weights=(1.0,), prices=(1.0, 1.0)))


# --- domain behavior -------------------------------------------------------

def test_grid_slip_stays_put():
    model = build_grid(GridParams(width=3, height=1, start=(0, 0),
                                  potential_goals=((2, 0),),
                                  move_success=0.8))
    rows = dict(transition_rows(model, (0, 0), "right"))
    assert rows[(1, 0)] == pytest.approx(0.8)
    assert rows[(0, 0)] == pytest.approx(0.2)


def test_grid_wall_bump_is_a_self_loop():
    model = build_grid(GridParams(width=3, height=1, start=(0, 0),
                                  potential_goals=((2, 0),)))
    assert dict(transition_rows(model, (0, 0), "up")) == {(0, 0): 1.0}


def test_landmark_reveals_vicinity():
    params = GridParams(
        width=3, height=3, start=(0, 0),
        potential_goals=((2, 0), (2, 2)),
        landmarks=(((0, 2), ((2, 0), (2, 2))),),
    )
    model = build_grid(params)
    assert model.reveal_indices((0, 2)) == 0b11
    obs = observe(model, (0, 2), 0b01)
    assert str(obs) == "0:T,1:F"


def test_rover_sample_semantics():
    model = build_rover(RoverParams(width=2, height=1, start=(0, 0),
                                    potential_goals=((1, 0),),
                                    move_success=1.0))
    k_true = model.collapsed_knowledge(0b01)
    at_site = (1, 0, False)
    # confirmed site: cheap sample that flips the done flag
    assert step_cost(model, at_site, "sample", k_true) == pytest.approx(2.0)
    assert dict(transition_rows(model, at_site, "sample", k_true)) == {
        (1, 0, True): 1.0,
    }
    # unconfirmed site: expensive no-op
    k0 = model.knowledge_all_unknown()
    assert step_cost(model, at_site, "sample", k0) == pytest.approx(10.0)
    assert dict(transition_rows(model, at_site, "sample", k0)) == {at_site: 1.0}
    assert model.is_terminal((1, 0, True), k_true)


def test_search_rescue_save_semantics():
    model = build_search_rescue(SearchRescueParams(
        width=2, height=1, start=(0, 0), candidate_cells=((1, 0),),
        n_victims=1,
    ))
    k_true = model.collapsed_knowledge(0b01)
    here = (1, 0, 0)
    assert step_cost(model, here, "save", k_true) == pytest.approx(2.0)
    assert dict(transition_rows(model, here, "save", k_true)) == {(1, 0, 1): 1.0}
    assert model.is_terminal((1, 0, 1), k_true)
    # saving twice at the same cell does nothing
    assert dict(transition_rows(model, (1, 0, 1), "save", k_true)) == {
        (1, 0, 1): 1.0,
    }


def test_search_rescue_prior_is_exactly_n_victims():
    model = build_search_rescue(SearchRescueParams(
        width=4, height=1, start=(0, 0),
        candidate_cells=((1, 0), (2, 0), (3, 0)), n_victims=2,
    ))
    configs = dict(zip(*model.prior.posterior(model.knowledge_all_unknown())))
    assert sorted(configs) == [0b011, 0b101, 0b110]
    assert all(p == pytest.approx(1 / 3) for p in configs.values())


def test_ev_goal_is_a_time_not_a_place():
    params = EvParams(times=(1, 2), time_weights=(1.0, 1.0),
                      prices=(1.0, 1.0), charge_max=2, charge_start=0,
                      target_charge=2, penalty=5.0)
    model = build_ev(params)
    # every charge level at a candidate time reveals that time's status
    assert model.reveal_indices((1, 0)) == model.reveal_indices((1, 2)) == 0b01
    k_true = model.collapsed_knowledge(0b10)
    assert model.is_terminal((2, 0), k_true)
    assert model.exit_cost((2, 0)) == pytest.approx(10.0)
    assert model.exit_cost((2, 2)) == pytest.approx(0.0)


def test_ev_is_structurally_terminating():
    params = synthesize_ev_params(5)
    model = build_ev(params)
    for (t, c) in model.base_states:
        if t >= params.horizon:
            continue
        for action in model.actions:
            for s2, _p in transition_rows(model, (t, c), action):
                assert s2[0] == t + 1  # time always advances


# --- instance files --------------------------------------------------------

BUNDLED = sorted(p.name for p in INSTANCE_DIR.glob("*.txt"))


def test_bundle_is_present():
    assert BUNDLED == [
        "ev8.txt", "grid12.txt", "grid8.txt", "grid8_landmark.txt",
        "line4.txt", "rover20.txt", "rover6.txt", "search4.txt",
    ]


@pytest.mark.parametrize("name", BUNDLED)
def test_round_trip_bundled(name):
    params, model = load_instance(INSTANCE_DIR / name)
    text = serialize_instance(params)
    assert parse_instance(text) == params
    assert instance_digest(params) == instance_digest(parse_instance(text))
    assert model.start_state is not None


def _script_bundle():
    path = INSTANCE_DIR.parent / "scripts" / "make_instances.py"
    spec = importlib.util.spec_from_file_location("make_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.bundle()


def test_make_instances_reproduces_bundle():
    # pins the generators' draws: five bundled files come from random_layout
    bundle = _script_bundle()
    assert sorted(f"{name}.txt" for name in bundle) == BUNDLED
    for name, params in bundle.items():
        expected = (INSTANCE_DIR / f"{name}.txt").read_bytes()
        assert serialize_instance(params).encode() == expected, name



# sha256 of serialize_instance for six goals and four landmarks, whose
# vicinities hold one to three goals; the bundle has only a one-goal vicinity
GENERATED_DIGESTS = {
    ("grid", 0): "2f0c909cf0bd311029fa3a7f11f018d23ea73a9b969e42f3dffc05d0897a36db",
    ("grid", 1): "8ee45c8ecf471c2bfb61afb259a1265db6997a8145a52959d1f5bb568a3a4428",
    ("grid", 2): "2fc90191cf66c9b0e23afcb1fa27c3ce87be64903c6df764463ed528388a6d79",
    ("grid", 3): "fea3f865ce38778c11fbb5293c8b995d5f36227749f6733e915b5854ff961752",
    ("rover", 0): "f6b9c5a6458cf22eb80d494fe19519fb87070664171d4b654d215f0a0f64191f",
    ("rover", 1): "feb44692ecc8d6ba7a37cc3ff0d0317decb3252d52c0c21adfe1566c0293fba6",
    ("rover", 2): "8fc31bc50c2aebfa037e4730bbfb618b699af2418fa7bdced65a31098665f0aa",
    ("rover", 3): "fc6cb89530e96108a38071f949c5515669bf20c48c018940759ed65725f78c7b",
}


@pytest.mark.parametrize("domain,seed", sorted(GENERATED_DIGESTS))
def test_generated_landmark_instances_digest(domain, seed):
    make = {"grid": random_grid, "rover": random_rover}[domain]
    text = serialize_instance(make(seed, n_goals=6, n_landmarks=4))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_DIGESTS[domain, seed]


@pytest.mark.parametrize("params", [
    line4(),
    random_grid(3),
    random_grid(9, n_landmarks=1),
    random_rover(4, width=6, height=6, n_goals=3),
    synthesize_ev_params(11),
    SearchRescueParams(width=4, height=3, start=(0, 0),
                       candidate_cells=((3, 0), (3, 2), (0, 2)), n_victims=2,
                       move_success=0.9),
    GridParams(width=3, height=3, start=(0, 0),
               potential_goals=((2, 0), (2, 2)),
               prior=PriorSpec(kind="bernoulli", marginals=(0.7, 0.4))),
    GridParams(width=3, height=1, start=(0, 0),
               potential_goals=((1, 0), (2, 0)),
               prior=PriorSpec(kind="explicit",
                               configs=((((1, 0),), 0.25),
                                        (((1, 0), (2, 0)), 0.75)))),
])
def test_round_trip_generated(params):
    assert parse_instance(serialize_instance(params)) == params


def test_digest_tracks_content():
    a = line4()
    b = GridParams(width=4, height=1, start=(0, 0),
                   potential_goals=((2, 0), (3, 0)), move_success=0.9)
    assert instance_digest(a) != instance_digest(b)
    assert len(instance_digest(a)) == 12


def test_parse_rejects_garbage():
    with pytest.raises(InvalidInstance):
        parse_instance("domain: teleport\nwidth: 3\n")
    with pytest.raises(InvalidInstance):
        parse_instance("width: 3\n")
    with pytest.raises(InvalidInstance):
        parse_instance("domain: grid\nwidth: 3\nheight: 1\n"
                       "start: 0,0\ngoal: 2,0\nwidth: 4\n")


# every optional scalar away from its default; floats get fractional values,
# so a float field whose default were written as an int would not parse
NON_DEFAULT_SCALARS = {
    "grid": (GridParams(width=3, height=1, start=(0, 0), potential_goals=((2, 0),),
                        move_success=0.75, step_cost=2.5),
             ["move_success", "step_cost"]),
    "rover": (RoverParams(width=3, height=1, start=(0, 0), potential_goals=((2, 0),),
                          move_success=0.6, move_cost=1.5, sample_cost_confirmed=3.25,
                          sample_cost_blind=7.5),
              ["move_success", "move_cost", "sample_cost_confirmed", "sample_cost_blind"]),
    "search": (SearchRescueParams(width=3, height=1, start=(0, 0),
                                  candidate_cells=((1, 0), (2, 0)), n_victims=2,
                                  move_success=0.9, move_cost=1.25, save_cost=4.5),
               ["victims", "move_success", "move_cost", "save_cost"]),
    "ev": (EvParams(times=(2, 4), time_weights=(1.0, 2.0), prices=(1.0, 2.0, 3.0, 4.0),
                    charge_max=6, charge_start=2, target_charge=5, penalty=7.5),
           ["charge_max", "charge_start", "target_charge", "penalty"]),
}


@pytest.mark.parametrize("domain", sorted(NON_DEFAULT_SCALARS))
def test_every_scalar_key_round_trips_away_from_its_default(domain):
    params, keys = NON_DEFAULT_SCALARS[domain]
    for f in dataclasses.fields(params):
        if type(f.default) in (int, float):
            assert getattr(params, f.name) != f.default, f.name
    text = serialize_instance(params)
    lines = text.splitlines()
    assert lines[0] == f"domain: {domain}"
    assert [line.split(":")[0] for line in lines[-len(keys):]] == keys
    assert parse_instance(text) == params


LINE4_TEXT = serialize_instance(line4())
EV_TEXT = serialize_instance(synthesize_ev_params(11))


@pytest.mark.parametrize("text", [
    EV_TEXT + "goal: 1,0\n",
    EV_TEXT + "obstacle: 1,0\n",
    EV_TEXT + "landmark: 1,0 -> 2,0\n",
    EV_TEXT + "config: 2,0 = 1.0\n",
    LINE4_TEXT + "time: 3 = 1.0\n",
    LINE4_TEXT + "config: 2,0 = 1.0\n",
    LINE4_TEXT.replace("prior: uniform", "prior: bernoulli 0.5 0.5") + "config: 2,0 = 1.0\n",
], ids=["ev-goal", "ev-obstacle", "ev-landmark", "ev-config", "grid-time",
        "uniform-config", "bernoulli-config"])
def test_parse_rejects_lines_the_domain_never_reads(text):
    assert parse_instance(text.rsplit("\n", 2)[0] + "\n")  # valid without the last line
    with pytest.raises(InvalidInstance, match="do not read"):
        parse_instance(text)


def test_random_generators_are_reproducible():
    assert random_grid(7) == random_grid(7)
    assert random_rover(7) == random_rover(7)
    assert synthesize_ev_params(7) == synthesize_ev_params(7)
    assert random_grid(7) != random_grid(8)


# compiled sizes for the bundled instances; a change here means the
# state space itself changed, not just a solver detail
FROZEN_SIZES = {"line4.txt": 7, "search4.txt": 450, "ev8.txt": 47}


@pytest.mark.parametrize("name,expected", sorted(FROZEN_SIZES.items()))
def test_frozen_reachable_counts(name, expected):
    _params, model = load_instance(INSTANCE_DIR / name)
    ssp = compile_gussp(model)
    reach = enumerate_reachable(ssp, state_budget=200_000)
    assert len(reach) == expected
