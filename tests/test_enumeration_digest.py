"""Frozen enumerated arrays on the bundled instances.

Each digest is a sha256 over the ``Reachable`` arrays that
``enumerate_reachable`` writes: the compiled state id of every row (the row
number itself, since rows are compiled ids), the CSR
``indptr``, ``indices`` and ``data`` of ``transitions``, ``cost`` and
``goal``, each as its raw bytes at a fixed dtype.  A compiler change that
renumbers a state, reorders a row or moves a probability or a cost by one
ulp fails here, before value iteration could hide it.  ``rover20``, the
main instance of perfbench's ``exact`` workload, has 262,080 compiled states
and takes a few seconds; the others have at most 2,000.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.domains import load_instance

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

FROZEN = {
    "ev8": "6c2c0a0c239e27ca8a4ff630da9abad6a10796d3baf3d1bc267d2681cd083fd3",
    "grid12": "82cd184100946a52a7cd9b8fdf6dc46e394c5bdffbd1db875fab96fb0a3bf572",
    "grid8": "7220aa0391bd78e4bfc4a9253abbafcf56c38b61797d9106134499c84f963596",
    "grid8_landmark": "3cdefe34a6e0ceb04e5d9b7f3cece8ebbbc4dc15bbb46cccf0674447499d81e0",
    "line4": "9626959bdb5bdbd709673d1aa173289e4ff96438d2c62555e249798c3aaaf5ef",
    "rover20": "623eaf8da69b07b2fafbd30df8868cc6decd6b75475824e0702f066402170581",
    "rover6": "3d8ab8f520c104218160c751b095ca0061558e93964439334af00a1089af40fe",
    "search4": "5353b8d986fc4ed11c4dc5e2670e5de6f37520af92f05335bad39a9e9db1ddcb",
}


def reachable_digest(reach) -> str:
    h = hashlib.sha256()
    m = reach.transitions
    for arr, dtype in (
        (range(len(reach)), np.int64),
        (m.indptr, np.int64),
        (m.indices, np.int64),
        (m.data, np.float64),
        (reach.cost, np.float64),
        (reach.goal, np.bool_),
    ):
        h.update(np.asarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_enumerated_arrays_frozen(name):
    _params, model = load_instance(str(INSTANCES / f"{name}.txt"))
    reach = enumerate_reachable(compile_gussp(model))
    assert reachable_digest(reach) == FROZEN[name]
