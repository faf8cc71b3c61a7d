"""Frozen value-iteration policies on the bundled instances.

Each digest is a sha256 of the sorted ``(repr(s), str(k), action)`` triples
of the VI policy, and the start value is compared by ``repr``.  A change in
the compiler or the solver that flips a tie-break, reorders an arithmetic
fold or moves a value by one ulp fails here.  ``rover20`` is left out for
time; the other instances have at most 2,000 compiled states.
"""

import hashlib
from pathlib import Path

import pytest

from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.domains import load_instance
from gussp.solvers import value_iteration

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
