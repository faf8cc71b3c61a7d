"""SSP solvers: value iteration, Improved LAO*, and depth-labeled LRTDP (FLARES).

All solvers share the same conventions: values live in a :class:`ValueTable`
keyed by compiled-state id, goal states are pinned at zero, and ties between
equal-valued actions always resolve to the action earliest in the model's
action order.  Each returns one :class:`Solution`: the table, the greedy
``policy`` (state id to action) of the states it settled, and its count,
``sweeps`` for value iteration, ``expanded`` for LAO* and ``trials`` for
FLARES.  LAO* expands the greedy graph in depth-first passes that back up
each state they visit once, in postorder (Hansen & Zilberstein, AIJ 2001).

Every solver takes a :class:`~gussp.compiler.CompiledSsp`, the compiled
problem or a determinization's single-target plan, and reads its
``start_id``, ``actions``, ``state(i)``, the ``goal_flags`` list and
``q_rows(i)``, the memoised ``expand(i)`` with one ``(action, cost,
successor row)`` per action in action order, or its ``successors(i, a)``
view.  Value iteration reads the same rows from
:func:`~gussp.compiler.enumerate_reachable`'s arrays instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .compiler import Reachable, enumerate_reachable
from .errors import NonConvergence
from .model import Action
from .rng import derive_seed, sample_row

Heuristic = Callable[[int], float]

LAO_MAX_ROUNDS = 1_000_000  # LAO*'s rounds, and the sweeps of one greedy graph's convergence
FLARES_MAX_TRIAL_STEPS = 10_000


@dataclass
class ValueTable:
    """State values with an admissible default for untouched states."""

    default: Optional[Heuristic] = None
    values: Dict[int, float] = field(default_factory=dict)
    depth_solved: Set[int] = field(default_factory=set)  # FLARES' solved labels

    def value(self, i: int) -> float:
        v = self.values.get(i)
        if v is not None:
            return v
        if self.default is not None:
            return self.default(i)
        return 0.0


def bellman_backup(ssp, table: ValueTable, i: int) -> Tuple[float, Optional[Action], float]:
    """One-step lookahead at state ``i``.

    Returns ``(new_value, greedy_action, residual)`` without mutating the
    table.  Goal states back up to zero with no action.
    """
    goal = ssp.goal_flags
    if goal[i]:
        return 0.0, None, 0.0
    values, h = table.values, table.default
    best, best_a = math.inf, None
    for a, q, row in ssp.q_rows(i):
        for j, p in row:
            if goal[j]:
                continue
            v = values.get(j)
            if v is None:  # table.value(j), inlined
                v = 0.0 if h is None else h(j)
            q += p * v
            if q >= best:
                break
        if q < best:
            best, best_a = q, a
    return best, best_a, abs(best - table.value(i))


@dataclass
class Solution:
    """What a solver produced: its values, the greedy action of each
    non-goal state it settled, and the count it reports."""

    table: ValueTable
    policy: Dict[int, Action]
    sweeps: int = 0  # value iteration
    expanded: int = 0  # LAO*
    trials: int = 0  # FLARES
    exhausted: bool = False  # FLARES' trial budget ran out before the start was labeled


def value_iteration(
    ssp,
    *,
    epsilon: float = 1e-6,
    max_sweeps: int = 100_000,
    reachable: Optional[Reachable] = None,
    on_sweep: Optional[Callable[[int, float, object], None]] = None,
) -> Solution:
    """Synchronous value iteration over the enumerated reachable set.

    Sweeps are Jacobi-style from zero, so the value of every state is
    nondecreasing across sweeps.  ``on_sweep(sweep, residual, values)`` is
    invoked after each sweep (``values`` is read-only).  Raises
    :class:`NonConvergence` if the residual does not drop below ``epsilon``
    within ``max_sweeps``.  The policy is the per-row argmin of the
    Q-values, computed with the same arithmetic as :func:`bellman_backup`,
    so ties go to the earliest action.
    """
    if reachable is None:
        reachable = enumerate_reachable(ssp)
    v, sweeps = _vi_sweeps(reachable, epsilon, max_sweeps, on_sweep)
    best = _greedy_rows(reachable, v)

    # row i of the arrays is compiled state i
    actions = ssp.actions
    policy = {
        i: actions[b]
        for i, (b, g) in enumerate(zip(best.tolist(), reachable.goal.tolist()))
        if not g
    }
    return Solution(ValueTable(values=dict(enumerate(v.tolist()))), policy, sweeps=sweeps)


def _vi_sweeps(reachable: Reachable, epsilon, max_sweeps, on_sweep):
    import numpy as np

    n = len(reachable)
    goal = reachable.goal
    # action-major rows, so the min over actions reads contiguous blocks;
    # sweeps add each row in column order, as a COO-built matrix stores it.
    # The copy is kept: a min over a strided (n, A) view of the one matrix
    # made rover20's sweeps 3x slower and raised VI's peak.
    order = np.arange(len(reachable.cost)).reshape(n, -1).T.ravel()
    m = reachable.transitions[order]
    m.sum_duplicates()
    c = reachable.cost[order]
    del order

    v = np.zeros(n)
    for sweep in range(1, max_sweeps + 1):
        q = m.dot(v)
        q += c  # in place: one n * A temporary per sweep, the same bits
        q = q.reshape(-1, n).min(axis=0)
        q[goal] = 0.0
        residual = float(np.max(np.abs(q - v))) if n else 0.0
        v = q
        if on_sweep is not None:
            on_sweep(sweep, residual, v)
        if residual < epsilon:
            return v, sweep
    raise NonConvergence(f"value iteration: residual above {epsilon} after {max_sweeps} sweeps")


def _greedy_rows(reachable: Reachable, v):
    """Index of the greedy action per row; the first minimum wins.

    Each Q-value is a left fold from the cost over the row in successor
    order, one vectorised step per row position, exactly as
    :func:`bellman_backup` adds it up.  Adding a goal successor's zero
    value leaves the sum unchanged, so they need no skipping."""
    import numpy as np

    m = reachable.transitions
    q = reachable.cost.copy()
    starts = m.indptr[:-1]
    lengths = np.diff(m.indptr)
    for pos in range(int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > pos)
        at = starts[rows] + pos
        q[rows] += m.data[at] * v[m.indices[at]]
    return q.reshape(len(v), -1).argmin(axis=1)


def lao_star(ssp, heuristic: Optional[Heuristic] = None, *, epsilon: float = 1e-6) -> Solution:
    """Improved LAO* (Hansen & Zilberstein, AIJ 2001): heuristic-guided
    expansion of the best partial solution graph.

    Each pass walks depth-first from the start along every expanded state's
    best action so far.  A tip it reaches is expanded and backed up once,
    and the pass goes no further; every expanded state it visits is backed
    up once in postorder, which writes its value and best action.  Passes
    repeat until one expands nothing and its largest residual is below
    ``epsilon``.  Then the greedy graph is traced from the table; once it
    is closed, value iteration over it converges to ``epsilon``, and LAO*
    stops when the next trace finds it still closed with residual below
    ``epsilon``.  With an admissible heuristic the start value matches full
    value iteration.  The policy is the closed greedy graph's.
    """
    table = ValueTable(default=heuristic)
    values = table.values
    goal = ssp.goal_flags
    root = ssp.start_id
    best: Dict[int, Action] = {}  # each expanded state's action at its last backup

    def expand() -> bool:
        """One depth-first pass; whether it expanded a state or its largest
        residual is at least ``epsilon``."""
        grew, residual = False, 0.0
        seen, stack = {root}, [root]
        while stack:
            i = stack.pop()
            if i < 0:  # ~i's successors are done: back it up in postorder
                i = ~i
                values[i], best[i], res = bellman_backup(ssp, table, i)
                if res > residual:
                    residual = res
            elif goal[i]:
                continue
            elif i in best:
                stack.append(~i)
                for j, _p in ssp.successors(i, best[i]):
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            else:  # a tip: expand it, back it up once, and go no further
                values[i], best[i], _res = bellman_backup(ssp, table, i)
                grew = True
        return grew or residual >= epsilon

    def trace() -> Tuple[List[int], List[int], Dict[int, Action], float]:
        """The greedy graph's expanded states, its unexpanded fringe, each
        expanded state's greedy action and their largest residual.  Writes
        nothing."""
        graph: List[int] = []
        fringe: List[int] = []
        policy: Dict[int, Action] = {}
        residual, seen, stack = 0.0, {root}, [root]
        while stack:
            i = stack.pop()
            if goal[i]:
                continue
            if i not in best:
                fringe.append(i)
                continue
            graph.append(i)
            _, a, res = bellman_backup(ssp, table, i)
            policy[i] = a
            if res > residual:
                residual = res
            for j, _p in ssp.successors(i, a):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return graph, fringe, policy, residual

    def converge(graph: List[int]) -> None:
        for _sweep in range(LAO_MAX_ROUNDS):
            residual = 0.0
            for i in reversed(graph):
                values[i], _a, res = bellman_backup(ssp, table, i)
                if res > residual:
                    residual = res
            if residual < epsilon:
                return
        raise NonConvergence("lao*: greedy graph value iteration did not converge")

    settled = False  # the closed greedy graph was converged since the last busy pass
    for _ in range(LAO_MAX_ROUNDS):
        if expand():
            settled = False
            continue
        graph, fringe, policy, residual = trace()
        if not fringe:
            if settled and residual < epsilon:
                return Solution(table, policy, expanded=len(best))
            # converging can shift the greedy graph, so the next round
            # passes over it and traces it again
            converge(graph)
        settled = not fringe
    raise NonConvergence(f"lao*: no closed solution graph after {LAO_MAX_ROUNDS} rounds")


def flares(
    ssp,
    heuristic: Optional[Heuristic] = None,
    *,
    horizon: Optional[float] = 1,
    epsilon: float = 1e-3,
    max_trials: int = 100_000,
    seed: int = 0,
    start: Optional[int] = None,
    table: Optional[ValueTable] = None,
) -> Solution:
    """Trial-based search with depth-limited solved labeling.

    Runs greedy trials from the start, backing up visited states, and labels
    a state solved once every state within ``horizon`` greedy steps of it
    has residual below ``epsilon``.  ``horizon=None`` (or ``math.inf``)
    checks the full greedy envelope, which makes the algorithm equivalent to
    labeled RTDP and the returned values optimal at the start state.  The
    trial budget is soft: exhausting it returns the best-effort table with
    ``exhausted=True``.

    ``start`` and ``table`` allow re-solving from a mid-execution state
    while keeping earlier values and solved labels, which is how the
    planner is meant to be deployed: whenever execution reaches a state the
    last solve never labeled, run more trials rooted there.  The policy is
    the greedy action of each state this call backed up.
    """
    t = math.inf if horizon is None else float(horizon)
    if table is None:
        table = ValueTable(default=heuristic)
    values = table.values
    policy: Dict[int, Action] = {}
    rng = random.Random(derive_seed("flares", seed))
    labeled = table.depth_solved
    root = ssp.start_id if start is None else start

    def solved(i: int) -> bool:
        return i in labeled or ssp.goal_flags[i]

    def check_depth_solved(i: int) -> bool:
        ok = True
        closed: List[int] = []
        seen = {i}
        queue: List[Tuple[int, int]] = [(i, 0)]
        while queue:
            j, d = queue.pop()
            if solved(j):
                continue
            closed.append(j)
            _, a, residual = bellman_backup(ssp, table, j)
            if residual > epsilon:
                ok = False
            if d < t:
                for j2, _p in ssp.successors(j, a):
                    if j2 not in seen:
                        seen.add(j2)
                        queue.append((j2, d + 1))
        if ok:
            labeled.update(closed)
        else:
            for j in reversed(closed):
                values[j], policy[j], _ = bellman_backup(ssp, table, j)
        return ok

    trials = 0
    while not solved(root) and trials < max_trials:
        trials += 1
        visited: List[int] = []
        i = root
        steps = 0
        while not solved(i) and steps < FLARES_MAX_TRIAL_STEPS:
            visited.append(i)
            values[i], a, _ = bellman_backup(ssp, table, i)
            policy[i] = a
            i = sample_row(ssp.successors(i, a), rng)
            steps += 1
        while visited:
            j = visited.pop()
            if not check_depth_solved(j):
                break

    return Solution(table, policy, trials=trials, exhausted=not solved(root))
