"""SSP solvers: value iteration, LAO*, and depth-labeled LRTDP (FLARES).

All solvers share the same conventions: values live in a :class:`ValueTable`
keyed by compiled-state id, goal states are pinned at zero, and ties between
equal-valued actions always resolve to the action earliest in the model's
action order.  Every solver takes a :class:`~gussp.compiler.CompiledSsp`,
the compiled problem or a determinization's single-target plan, and reads
its ``start_id``, ``actions``, ``state(i)``, the ``goal_flags`` list and
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


@dataclass
class ValueTable:
    """State values with an admissible default for untouched states."""

    default: Optional[Heuristic] = None
    values: Dict[int, float] = field(default_factory=dict)
    greedy: Dict[int, Action] = field(default_factory=dict)
    expanded: Set[int] = field(default_factory=set)
    depth_solved: Set[int] = field(default_factory=set)

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


def _apply_backup(ssp, table: ValueTable, i: int) -> float:
    v, a, res = bellman_backup(ssp, table, i)
    table.values[i] = v
    if a is not None:
        table.greedy[i] = a
    return res


@dataclass
class VIResult:
    table: ValueTable
    policy: Dict[int, Action]
    sweeps: int


def value_iteration(
    ssp,
    *,
    epsilon: float = 1e-6,
    max_sweeps: int = 100_000,
    reachable: Optional[Reachable] = None,
    on_sweep: Optional[Callable[[int, float, object], None]] = None,
) -> VIResult:
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
    table = ValueTable(values=dict(enumerate(v.tolist())))
    actions = ssp.actions
    policy = {
        i: actions[b]
        for i, (b, g) in enumerate(zip(best.tolist(), reachable.goal.tolist()))
        if not g
    }
    table.greedy = policy
    return VIResult(table=table, policy=policy, sweeps=sweeps)


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


@dataclass
class LaoResult:
    table: ValueTable
    policy: Dict[int, Action]
    expanded: int


def lao_star(
    ssp,
    heuristic: Optional[Heuristic] = None,
    *,
    epsilon: float = 1e-6,
    start: Optional[int] = None,
    table: Optional[ValueTable] = None,
    max_rounds: int = 1_000_000,
) -> LaoResult:
    """Heuristic-guided expansion of the best partial solution graph.

    Repeatedly traces the greedy subgraph from the start, expands its
    unexpanded fringe, and runs value iteration over the traced envelope
    until the greedy graph is closed and its residual is below ``epsilon``.
    With an admissible heuristic the start value matches full value
    iteration.  Passing an existing ``table`` (and a ``start`` inside it)
    resumes from earlier work.
    """
    if table is None:
        table = ValueTable(default=heuristic)
    elif heuristic is not None and table.default is None:
        table.default = heuristic
    root = ssp.start_id if start is None else start
    expanded = table.expanded

    def trace() -> Tuple[List[int], List[int]]:
        graph: List[int] = []
        fringe: List[int] = []
        seen = {root}
        stack = [root]
        while stack:
            i = stack.pop()
            if ssp.goal_flags[i]:
                continue
            if i not in expanded:
                fringe.append(i)
                continue
            graph.append(i)
            _, a, _ = bellman_backup(ssp, table, i)
            if a is None:
                continue
            for j, _p in ssp.successors(i, a):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return graph, fringe

    def converge(envelope: List[int], sweep_limit: int) -> None:
        # full tolerance is only needed once the greedy graph is closed;
        # between expansions a few sweeps keep the bounds tight enough
        for _sweep in range(sweep_limit):
            residual = 0.0
            for i in reversed(envelope):
                res = _apply_backup(ssp, table, i)
                if res > residual:
                    residual = res
            if residual < epsilon:
                return
        if sweep_limit >= max_rounds:
            raise NonConvergence("lao*: envelope value iteration did not converge")

    for _ in range(max_rounds):
        graph, fringe = trace()
        if not graph and not fringe:
            return LaoResult(table=table, policy={}, expanded=len(expanded))
        if fringe:
            for f in fringe:
                expanded.add(f)
                _apply_backup(ssp, table, f)
            converge(graph + fringe, sweep_limit=3)
            continue
        # greedy graph is closed: converge it, then confirm it stayed closed
        # and below tolerance (convergence can shift the greedy policy)
        converge(graph, sweep_limit=max_rounds)
        graph2, fringe2 = trace()
        if fringe2:
            continue
        policy: Dict[int, Action] = {}
        stable = True
        for i in graph2:
            _, a, res = bellman_backup(ssp, table, i)
            if res >= epsilon:
                stable = False
                break
            policy[i] = a
            table.greedy[i] = a
        if stable:
            return LaoResult(table=table, policy=policy, expanded=len(expanded))
    raise NonConvergence(f"lao*: no closed solution graph after {max_rounds} rounds")


@dataclass
class FlaresResult:
    table: ValueTable
    policy: Dict[int, Action]
    trials: int
    exhausted: bool  # trial budget ran out before the start state was labeled


def flares(
    ssp,
    heuristic: Optional[Heuristic] = None,
    *,
    horizon: Optional[float] = 1,
    epsilon: float = 1e-3,
    max_trials: int = 100_000,
    seed: int = 0,
    max_trial_steps: int = 10_000,
    start: Optional[int] = None,
    table: Optional[ValueTable] = None,
) -> FlaresResult:
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
    last solve never labeled, run more trials rooted there.
    """
    t = math.inf if horizon is None else float(horizon)
    if table is None:
        table = ValueTable(default=heuristic)
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
                _apply_backup(ssp, table, j)
        return ok

    trials = 0
    while not solved(root) and trials < max_trials:
        trials += 1
        visited: List[int] = []
        i = root
        steps = 0
        while not solved(i) and steps < max_trial_steps:
            visited.append(i)
            _apply_backup(ssp, table, i)
            a = table.greedy[i]
            i = sample_row(list(ssp.successors(i, a)), rng)
            steps += 1
        while visited:
            j = visited.pop()
            if not check_depth_solved(j):
                break

    return FlaresResult(
        table=table, policy=dict(table.greedy), trials=trials, exhausted=not solved(root)
    )
