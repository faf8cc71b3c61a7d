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
:func:`~gussp.compiler.enumerate_reachable`'s one CSR matrix instead, in
place, and keeps its values and policy as arrays indexed by compiled id
(:class:`ArrayValues`, :class:`ArrayPolicy`), which read and write like
the other solvers' dicts.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

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
    values: MutableMapping[int, float] = field(default_factory=dict)
    depth_solved: Set[int] = field(default_factory=set)  # FLARES' solved labels

    def value(self, i: int) -> float:
        v = self.values.get(i)
        if v is not None:
            return v
        if self.default is not None:
            return self.default(i)
        return 0.0


class ArrayValues(MutableMapping):
    """The values of compiled states ``0 .. n-1``, as one float64 ``array``
    indexed by id, read and written like a dict of them; other ids are
    absent, and storing or deleting one is an error."""

    def __init__(self, array):
        self.array = array

    def __getitem__(self, i: int) -> float:
        if 0 <= i < len(self.array):
            return self.array.item(i)
        raise KeyError(i)

    def __setitem__(self, i: int, v: float) -> None:
        if not 0 <= i < len(self.array):
            raise KeyError(i)
        self.array[i] = v

    def __delitem__(self, i: int) -> None:
        raise TypeError("an array of values keeps every state")

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.array)))

    def __len__(self) -> int:
        return len(self.array)


class ArrayPolicy(Mapping):
    """A policy over compiled states ``0 .. n-1``, as the position of each
    state's action in ``actions``, or -1 where it has none (``index``),
    read like a dict of them."""

    def __init__(self, actions, index):
        self.actions, self.index = actions, index

    def get(self, i: int, default=None):  # execute_policy's one read per step
        b = self.index.item(i) if 0 <= i < len(self.index) else -1
        return default if b < 0 else self.actions[b]

    def __getitem__(self, i: int) -> Action:
        a = self.get(i)
        if a is None:
            raise KeyError(i)
        return a

    def __iter__(self) -> Iterator[int]:
        import numpy as np

        return map(int, np.flatnonzero(self.index >= 0))

    def __len__(self) -> int:
        import numpy as np

        return int(np.count_nonzero(self.index >= 0))


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
    policy: Mapping[int, Action]
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
    invoked after each sweep (``values`` is a read-only view, overwritten
    by the next sweep).  Raises
    :class:`NonConvergence` if the residual does not drop below ``epsilon``
    within ``max_sweeps``.  The policy is the per-row argmin of the
    Q-values, computed with the same arithmetic as :func:`bellman_backup`,
    so ties go to the earliest action.

    Each sweep multiplies ``reachable.transitions`` as it is, state-major
    with rows in successor order, and gets the bits a copy with sorted,
    merged rows would give (:func:`_vi_sweeps`).  Nothing the size of the
    matrix is copied, and no Python object is made per state: the values
    and the policy stay arrays indexed by compiled id (:class:`ArrayValues`,
    :class:`ArrayPolicy`).
    """
    if reachable is None:
        reachable = enumerate_reachable(ssp)
    v, sweeps = _vi_sweeps(reachable, epsilon, max_sweeps, on_sweep)
    best = _greedy_rows(reachable, v)
    best[reachable.goal] = -1
    return Solution(ValueTable(values=ArrayValues(v)), ArrayPolicy(ssp.actions, best),
                    sweeps=sweeps)


def _vi_sweeps(reachable: Reachable, epsilon, max_sweeps, on_sweep):
    """Sweep ``reachable.transitions`` in place, state-major.  Each row is
    summed as a copy with sorted, merged columns would sum it: a row of at
    most two distinct columns gives the same bits in either order, and the
    rows :func:`_sorted_rows` finds are summed again from a sorted copy."""
    import numpy as np

    m, n = reachable.transitions, len(reachable)
    n_actions = len(reachable.cost) // n
    cost = reachable.cost.reshape(n, n_actions)
    fixed, side = _sorted_rows(m)
    goals = np.flatnonzero(reachable.goal)
    span = max(1, _CHUNK // n_actions)
    blocks = [slice(lo, lo + span) for lo in range(0, n, span)]
    v, new, diff = np.zeros(n), np.empty(n), np.empty(n)
    for sweep in range(1, max_sweeps + 1):
        q = m.dot(v)
        if fixed.size:
            q[fixed] = side.dot(v)
        by_action = q.reshape(n, n_actions)
        for b in blocks:  # each block's cost and min while it is in cache
            qb, out = by_action[b], new[b]
            qb += cost[b]  # in place: the same bits
            # the first and last action first, so one action needs no case
            np.minimum(qb[:, 0], qb[:, -1], out=out)
            for a in range(1, n_actions - 1):
                np.minimum(out, qb[:, a], out=out)
        del q, by_action, qb  # before the next sweep's q exists
        new[goals] = 0.0
        residual = float(np.abs(np.subtract(new, v, out=diff), out=diff).max())
        v, new = new, v
        if on_sweep is not None:
            values = v.view()
            values.flags.writeable = False
            on_sweep(sweep, residual, values)
        if residual < epsilon:
            return v, sweep
    raise NonConvergence(f"value iteration: residual above {epsilon} after {max_sweeps} sweeps")


_CHUNK = 1 << 15  # matrix rows per block of _vi_sweeps, _sorted_rows and _greedy_rows


def _sorted_rows(m):
    """The rows of CSR ``m`` whose sum depends on the order of their
    entries, and a CSR of just those rows with columns sorted and repeats
    merged (``sum_duplicates``): rows of three or more entries with columns
    out of order, and rows with a repeated column.  The rows are scanned a
    bounded number at a time."""
    import numpy as np

    ptr, cols = m.indptr, m.indices
    found = []
    for lo in range(0, m.shape[0], _CHUNK):
        p = ptr[lo:lo + _CHUNK + 1] - ptr[lo]
        lengths = np.diff(p)
        c = cols[ptr[lo]:ptr[lo] + p[-1]]
        opens = np.zeros(len(c), dtype=bool)  # the entries that begin a row
        opens[p[:-1][lengths > 0]] = True
        step = np.diff(c)  # entry k + 1's column minus entry k's
        at = np.flatnonzero((step <= 0) & ~opens[1:])  # k + 1 in k's row, not after it
        rows = np.searchsorted(p, at, side="right") - 1
        keep = (step[at] == 0) | (lengths[rows] >= 3)
        found.append(np.unique(rows[keep]) + lo)
    rows = np.concatenate(found)
    side = m[rows]
    side.sum_duplicates()
    return rows, side


def _greedy_rows(reachable: Reachable, v):
    """Index of the greedy action per state; the first minimum wins.

    Each Q-value is a left fold from the cost over the row in successor
    order, one vectorised step per row position, exactly as
    :func:`bellman_backup` adds it up.  Adding a goal successor's zero
    value leaves the sum unchanged, so they need no skipping.  The states
    are folded a bounded number at a time."""
    import numpy as np

    m, n = reachable.transitions, len(v)
    n_actions = len(reachable.cost) // n
    best, span = np.empty(n, dtype=np.intp), max(1, _CHUNK // n_actions)
    for lo in range(0, n, span):
        hi = min(lo + span, n)
        q = reachable.cost[lo * n_actions:hi * n_actions].copy()
        ptr = m.indptr[lo * n_actions:hi * n_actions + 1]
        starts, lengths = ptr[:-1], np.diff(ptr)
        for pos in range(int(lengths.max(initial=0))):
            rows = np.flatnonzero(lengths > pos)
            at = starts[rows] + pos
            q[rows] += m.data[at] * v[m.indices[at]]
        best[lo:hi] = q.reshape(-1, n_actions).argmin(axis=1)
    return best


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
