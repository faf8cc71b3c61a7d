#!/usr/bin/env python3
"""Derive the correctness references that ``workloads.REFERENCES`` records.

For every bundled instance the benchmark checks, this solves the compiled
problem with value iteration and with LAO* (hpg), prints both start values
and VI's reachable-state count, and, for instances small enough, the start
value of the independent raw-belief oracle in ``tests/oracles.py``.  Run it
from the repository root on the commit the references should describe:

    python3 perfbench/derive_refs.py

It exits non-zero if LAO* or the oracle disagrees with value iteration.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from gussp.compiler import compile_gussp, enumerate_reachable  # noqa: E402
from gussp.domains import load_instance  # noqa: E402
from gussp.heuristics import make_heuristic  # noqa: E402
from gussp.solvers import lao_star, value_iteration  # noqa: E402

INSTANCES = ("line4", "ev8", "search4", "rover6", "grid8_landmark", "grid12", "rover20")
# the raw-belief oracle enumerates beliefs without interning; above a few
# thousand compiled states it takes minutes, so larger instances skip it
ORACLE_MAX_STATES = 2_000
LAO_TOL = 1e-4


def main() -> int:
    from oracles import belief_space_start_value

    ok = True
    for name in INSTANCES:
        _params, model = load_instance(os.path.join(ROOT, "instances", f"{name}.txt"))
        ssp = compile_gussp(model)
        t0 = time.perf_counter()
        reach = enumerate_reachable(ssp)
        vi = value_iteration(ssp, reachable=reach)
        v_vi = vi.table.value(ssp.start_id)
        t_vi = time.perf_counter() - t0
        lssp = compile_gussp(model)
        lao = lao_star(lssp, make_heuristic("hpg", lssp))
        v_lao = lao.table.value(lssp.start_id)
        line = f"{name}: vi={v_vi!r} reachable={len(reach)} lao={v_lao!r} ({t_vi:.1f}s)"
        if abs(v_lao - v_vi) > LAO_TOL * max(1.0, abs(v_vi)):
            ok = False
            line += " LAO-MISMATCH"
        if len(reach) <= ORACLE_MAX_STATES:
            v_or = belief_space_start_value(model)
            line += f" oracle={v_or!r}"
            if abs(v_or - v_vi) > 1e-6 * max(1.0, abs(v_vi)):
                ok = False
                line += " ORACLE-MISMATCH"
        else:
            line += " oracle=skipped"
        print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
