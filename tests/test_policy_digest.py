"""Frozen value-iteration, LAO* and FLARES policies.

Each digest is a sha256 of the sorted ``(repr(s), str(k), action)`` triples
of a policy, and the start value is compared by ``repr``.  A change in the
compiler, a heuristic or a solver that flips a tie-break, reorders an
arithmetic fold or moves a value by one ulp fails here.  The lazy solvers
also pin how many compiled states they touched and their expansion or trial
count.  All of them run on the bundled instances except ``rover20``, left
out for time (the others have at most 2,000 compiled states); the lazy
solvers also run on one generated 12x12 map with 14 potential goals.
"""

import hashlib
from pathlib import Path

import pytest

from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.domains import build_grid, load_instance, random_grid
from gussp.heuristics import make_heuristic
from gussp.solvers import flares, lao_star, value_iteration

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

FROZEN = {
    "ev8": ("7f81a2ae4c9413ae2b8ff0b61146a54f078255cea3fc6e32d0e6380c9f40a81c", "7.439556494192186"),
    "grid12": ("4b7783b367b9d13a0bf6b26b1d50a616da506a2486ff1520eeb56703a8211397", "19.111111111110304"),
    "grid8": ("036e0fc6177be275c11f9ce5876c545fdc09e5c131b9957d1e1618bb0f251dd0", "7.394957983175916"),
    "grid8_landmark": ("b15a6f58bbc09b613c4e0d40ed4ef168d2a62bf50bcf50e39a264e2dcd76d236", "7.0588235288796035"),
    "line4": ("3bae784c3c44d2ed9a7a841b2f7a5770a518eac954aae32fec96ec8a3d5ccc54", "2.333333333333333"),
    "rover6": ("7b3038f8d658dceb5b52a295d44f5e7b12199e3789ba7ffaf0f6dbae7c74120d", "6.464285714277219"),
    "search4": ("472c07272407dea3e13d70f9275cb050701644367d46af1e08a23b50210addf6", "10.333333333333332"),
}


def policy_digest(ssp, policy) -> str:
    triples = sorted(
        (repr(ssp.state(i).s), str(ssp.state(i).k), a) for i, a in policy.items()
    )
    return hashlib.sha256(repr(triples).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_vi_policy_and_start_value_frozen(name):
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    ssp = compile_gussp(model)
    vi = value_iteration(ssp, reachable=enumerate_reachable(ssp))
    digest, value_start = FROZEN[name]
    assert policy_digest(ssp, vi.policy) == digest
    assert repr(vi.table.value(ssp.start_id)) == value_start


# (instance, algorithm, heuristic): (policy digest, repr of the start value,
# compiled states touched, expansions for lao / trials for flares)
FROZEN_LAZY = {
    ("ev8", "lao", "hpg"): ("2a7018a73c458e047c665d994a1cecbdd71d3a3142518341ab239a4d60f18420", "7.439556494192186", 36, 16),
    ("ev8", "lao", "hmin"): ("2a7018a73c458e047c665d994a1cecbdd71d3a3142518341ab239a4d60f18420", "7.439556494192186", 47, 9),
    ("ev8", "flares", "hpg"): ("d1db2c857a7b57be9d5731092ccd959dbd7fef2a0fe3efda68eabd44269c27fa", "7.439556494192186", 46, 6),
    ("ev8", "flares", "hmin"): ("8b3b9e0b84b5ae18603049715e54615ed72b12a3d01b419c8639639b11ecae7f", "7.439556494192186", 47, 2),
    ("grid12", "lao", "hpg"): ("ed21e6573258ae903dc88ee686785e562acecf4714859da04b3cbe3d07d56c29", "19.1111109370687", 553, 451),
    ("grid12", "lao", "hmin"): ("9af1cdad72db628c1f2abbea5941c4889ee6bf50456033b004e90f9abcfdecc4", "19.111110562334783", 877, 267),
    ("grid12", "flares", "hpg"): ("e4aceac00186f28fb128350520c5d60d98d00f3d81e3093050bafcc62f629e2c", "17.908131710827615", 695, 133),
    ("grid12", "flares", "hmin"): ("a1cb579d03540854b4e9427decb75f1c097ed94277e4e2ae6897b2abf1761da2", "17.762958851332638", 1323, 99),
    ("grid8", "lao", "hpg"): ("6a591d95a9eac548b3111497a7c4201d8f5a153c384858f993d85aa6bf492a2f", "7.394957827492857", 54, 32),
    ("grid8", "lao", "hmin"): ("171081c5c4e4eed369bcad68dbee982c2f6994e20380abac28be43ac8368f888", "7.394957864615513", 124, 23),
    ("grid8", "flares", "hpg"): ("5dfb1c1982206b59c6eac33a1313518ea69b4f2ce0b6e0d070b4ac2c3ffad8e8", "7.394956217632098", 139, 50),
    ("grid8", "flares", "hmin"): ("155992d4781b4464c12b5d074aabcaddd0377398f5b97a814732380891f4ffcb", "7.135917738815708", 205, 28),
    ("grid8_landmark", "lao", "hpg"): ("3d4906f3341e0eae5a11523464c8bbeb84a74feccad52038a21aebd1d4ca12f0", "7.058822961871566", 173, 136),
    ("grid8_landmark", "lao", "hmin"): ("3d4906f3341e0eae5a11523464c8bbeb84a74feccad52038a21aebd1d4ca12f0", "7.058822984206938", 254, 88),
    ("grid8_landmark", "flares", "hpg"): ("91f69417b5cbad0694c3fc2e7f996f876a0c3bb383f30091e089dde36cd54fde", "5.781510854981408", 223, 55),
    ("grid8_landmark", "flares", "hmin"): ("96f2048d6b02ded569fcd4ac3feceb652e1eb6f368e2bb7115db4b35b5a54e03", "5.921686384753403", 298, 26),
    ("line4", "lao", "hpg"): ("37c87a7784cee81933d3e7df3e73072ac3a85b166c19c0b6a25b63b6c057fa0d", "2.333333333333333", 7, 4),
    ("line4", "lao", "hmin"): ("37c87a7784cee81933d3e7df3e73072ac3a85b166c19c0b6a25b63b6c057fa0d", "2.333333333333333", 7, 3),
    ("line4", "flares", "hpg"): ("442f500c19d0ca141ca668a120bae7a6b4b20a7bd6d3ca9b4b3d2b094826a70c", "2.333333333333333", 6, 2),
    ("line4", "flares", "hmin"): ("ce9140ac48c09d1ca4df751c3a221e23e9957689983d64aae6c16c47d94b0dc4", "2.333333333333333", 7, 2),
    ("rover6", "lao", "hpg"): ("d1063b9bb205e96cd9fb6c1a74f8ffc66ced5eb547b4eb7354e18b2c8cc46f04", "6.464285167363287", 146, 86),
    ("rover6", "lao", "hmin"): ("5b2933f1515c1ca581f5327fcdf1a7ffec3fc6461bb5cf6a45928bbabed22063", "6.464285022333659", 242, 22),
    ("rover6", "flares", "hpg"): ("83bd9e8951b9aaebaa57b4cafbdd7c3fc02f462299c5bb0812c3a8e4d744e3eb", "6.2930280399171865", 570, 53),
    ("rover6", "flares", "hmin"): ("9f88c9e0934119f0e9b57413766b41a0a1e0e791d7e0664763ed91cc3c2c6f9e", "6.463956750092133", 358, 60),
    ("search4", "lao", "hpg"): ("c5bcb9b8f9d9327c3a297fc704980379c1018728080a5e9e9caa9c37e2f7b6cc", "10.333333333333332", 425, 346),
    ("search4", "lao", "hmin"): ("c5bcb9b8f9d9327c3a297fc704980379c1018728080a5e9e9caa9c37e2f7b6cc", "10.333333333333332", 438, 25),
    ("search4", "flares", "hpg"): ("648d3e850dec739d1d15cc994836e5f7818bd77403b01aa6a603d8b52e2f2813", "10.0", 450, 61),
    ("search4", "flares", "hmin"): ("d8aacfee6b20ca9950039942ffd5a0a71dbfac95d021b2cb62bd610dbd763eb6", "10.0", 427, 5),
    ("map12x12", "lao", "hpg"): ("50ae211195cdeddfcbeab3b033231019a154870b5fed75ca1333ab9c60b12687", "6.162557208521037", 1355, 807),
    ("map12x12", "lao", "hmin"): ("6cc6a6e449e21ce55da3400d01b822d598bc1974ec75e5ad79164321d1862e8b", "6.162557226763713", 4165, 709),
    ("map12x12", "flares", "hpg"): ("d1fab77874c27c050a2e1329fe6267e9d8dff7a27650e10b84f5815f18af5875", "4.617518415272616", 190, 29),
    ("map12x12", "flares", "hmin"): ("28278c43a9a60c7353a8d7914256d455310ccf6882109e202956e5e987af1844", "4.6175803586656565", 854, 30),
}


def _lazy_model(name):
    if name == "map12x12":
        return build_grid(random_grid(0, width=12, height=12, n_goals=14))
    return load_instance(str(INSTANCES / f"{name}.txt"))[1]


@pytest.mark.parametrize("key", sorted(FROZEN_LAZY), ids="-".join)
def test_lazy_policy_and_start_value_frozen(key):
    name, algorithm, heuristic = key
    ssp = compile_gussp(_lazy_model(name))
    h = make_heuristic(heuristic, ssp)
    # run_cell's defaults: epsilon 1e-6, labeling horizon 1, seed 0
    if algorithm == "lao":
        result = lao_star(ssp, h, epsilon=1e-6)
        stat = result.expanded
    else:
        result = flares(ssp, h, horizon=1, epsilon=1e-6, seed=0)
        stat = result.trials
    digest, value_start, compiled_states, solver_stat = FROZEN_LAZY[key]
    assert policy_digest(ssp, result.policy) == digest
    assert repr(result.table.value(ssp.start_id)) == value_start
    assert len(ssp) == compiled_states
    assert stat == solver_stat
