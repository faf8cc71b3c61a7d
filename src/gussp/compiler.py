"""Compilation of a goal-uncertain model into a finite SSP.

A compiled state pairs a base state with a knowledge vector.  Revelation is
folded into the transition itself: each base outcome is split by the
observation pattern its arrival produces, weighted by the posterior
probability of that pattern given the current knowledge.  Goal states are
absorbing with zero cost; a one-time terminal cost (if the model defines
one) is folded into the expected cost of actions that can terminate.

The compiled problem is generated lazily, one whole state at a time
(``expand(i)``: every action's cost and successor row), so heuristic-search
solvers can work on instances far too large to enumerate.  The base row,
its reveal mask and the base cost of each (base state, action) are read
once and shared by every knowledge vector; a row whose successors reveal
nothing still unknown skips the revelation fold.
:func:`enumerate_reachable` is the eager path used by value iteration,
oracles, and debug dumps: its breadth-first walk expands each non-goal
state once and writes a CSR transition matrix over (state, action) rows, a
cost array and a goal mask straight into :class:`Reachable`, without
filling the lazy row cache.  A fresh SSP numbers its states in that
walk's discovery order, so the walk's rows are the compiled ids.  Its exact
properness check is a vectorised walk back from the goals over the
transposed matrix, level by level in numpy, with no per-edge Python objects.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, TextIO, Tuple

from .errors import ImproperModel, ModelError, StateBudgetExceeded
from .model import Action, GusspModel, KnowledgeVector, State, PROB_TOL

if TYPE_CHECKING:
    import numpy as np
    from scipy import sparse

DEFAULT_STATE_BUDGET = 10_000_000
_OUT_OF_ORDER = (
    "compiled ids are not in breadth-first order from the start; "
    "enumerate a freshly compiled SSP"
)


@dataclass(frozen=True, slots=True)
class CompiledState:
    s: State
    k: KnowledgeVector

    def __str__(self) -> str:
        return f"({self.s!r}, {self.k})"


Row = Tuple[Tuple[int, float], ...]
QRows = Tuple[Tuple[Action, float, Row], ...]


class LazySsp:
    """Per-state rows memoised over a subclass's uncached ``expand``.

    ``expand(i)`` expands every action of ``i`` in one pass and returns one
    ``(action, cost, row)`` triple per action, in action order: the expected
    cost and the successor row ``((j, p), ...)`` of that action.
    ``q_rows(i)``, the only cache, memoises it; ``successors`` and ``cost``
    index it.  ``goal_flags[i]`` marks the goal states.
    :func:`enumerate_reachable` calls ``expand`` directly, once per
    non-goal state.
    """

    def __init__(self, actions: Tuple[Action, ...]):
        self.actions = actions
        self.goal_flags: List[bool] = []
        self._action_index = {a: n for n, a in enumerate(actions)}
        self._q_rows: Dict[int, QRows] = {}

    def expand(self, i: int) -> QRows:
        raise NotImplementedError

    def is_goal(self, i: int) -> bool:
        return self.goal_flags[i]

    def q_rows(self, i: int) -> QRows:
        rows = self._q_rows.get(i)
        if rows is None:
            rows = self._q_rows[i] = self.expand(i)
        return rows

    def successors(self, i: int, a: Action) -> Row:
        return self.q_rows(i)[self._action_index[a]][2]

    def cost(self, i: int, a: Action) -> float:
        return self.q_rows(i)[self._action_index[a]][1]

    def _goal_rows(self, i: int) -> QRows:
        """A goal state's rows: every action stays put at zero cost."""
        stay = ((i, 1.0),)
        return tuple((a, 0.0, stay) for a in self.actions)


class CompiledSsp(LazySsp):
    """Lazy finite SSP over (base state, knowledge vector) pairs.

    Base states are numbered once, in ``model.base_states`` order (``sid``),
    and knowledge vectors as they are first met (``kid``, keyed on their
    ``yes`` and ``no`` masks).  Compiled states get dense ids in discovery
    order; ``_ids[kid][sid]`` holds the id of ``(sid, kid)``, or ``None``
    before it is met.

    ``expand(i)`` does the per-state work once and then walks the actions.
    The ``knowledge_effects`` and ``knowledge_step_cost`` hooks are called
    once per (state, action) expansion and win when they answer.  Otherwise
    the base dynamics are shared by every knowledge vector: per ``(sid, a)``
    the checked base row ``model.transition(s, a)``, the same row with
    repeated successors merged in first-seen order, the OR of its
    successors' reveal masks and ``model.cost(s, a)`` are each read once
    and kept.  When no successor of the base row reveals a goal still
    unknown, the row's successors stay under the current knowledge vector
    and are plain id lookups; only the other rows run the revelation fold.
    Instances are not thread-safe: every solve compiles its own.
    """

    def __init__(self, model: GusspModel):
        super().__init__(model.actions)
        self.model = model
        self._base = model.base_states
        self._n_base = len(self._base)
        self._sid: Dict[State, int] = {s: sid for sid, s in enumerate(self._base)}
        self._reveal = [model.reveal_indices(s) for s in self._base]
        self._kid: Dict[int, int] = {}
        self._kvs: List[KnowledgeVector] = []
        self._ids: List[List[Optional[int]]] = []
        self._sids: List[int] = []
        self._kids: List[int] = []
        # per sid * len(actions) + action position, once read: the base row
        # as (row, merged row, reveal mask) and the base cost
        n_pairs = self._n_base * len(self.actions)
        self._base_rows: List[Optional[Tuple[Row, Row, int]]] = [None] * n_pairs
        self._base_costs: List[Optional[float]] = [None] * n_pairs
        self._branch_cache: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        self.start_id = self.intern(model.start_state, model.knowledge_all_unknown())

    def __len__(self) -> int:
        return len(self._sids)

    def _kid_of(self, k: KnowledgeVector) -> int:
        key = (k.yes << k.n) | k.no
        kid = self._kid.get(key)
        if kid is None:
            kid = self._kid[key] = len(self._kvs)
            self._kvs.append(k)
            self._ids.append([None] * self._n_base)
        return kid

    def _add(self, sid: int, kid: int) -> int:
        i = self._ids[kid][sid] = len(self._sids)
        self._sids.append(sid)
        self._kids.append(kid)
        self.goal_flags.append(self.model.is_terminal(self._base[sid], self._kvs[kid]))
        return i

    def intern(self, s: State, k: KnowledgeVector) -> int:
        sid = self._sid.get(s)
        if sid is None:
            raise ModelError(f"{s!r} is not a base state")
        kid = self._kid_of(k)
        i = self._ids[kid][sid]
        return self._add(sid, kid) if i is None else i

    def state(self, i: int) -> CompiledState:
        return CompiledState(self._base[self._sids[i]], self._kvs[self._kids[i]])

    def _revelation_branches(self, kid: int, revealed: int) -> Tuple[Tuple[int, float], ...]:
        """Knowledge updates, as ``(kid, probability)``, when the goals in
        ``revealed`` (all unknown under ``kid``) are observed."""
        key = (kid << self.model.n_goals) | revealed
        cached = self._branch_cache.get(key)
        if cached is not None:
            return cached
        k = self._kvs[kid]
        patterns: Dict[int, float] = {}
        for mask, p in zip(*self.model.prior.posterior(k)):
            pat = mask & revealed
            patterns[pat] = patterns.get(pat, 0.0) + p
        branches = tuple(
            (self._kid_of(k.confirm(yes=pat, no=revealed & ~pat)), prob)
            for pat, prob in sorted(patterns.items())
            if prob > 0.0
        )
        self._branch_cache[key] = branches
        return branches

    def _sid_row(self, rows, s: State, k: KnowledgeVector, a: Action) -> Row:
        """Positive-probability outcomes of ``rows`` as ``(sid, p)``, checked."""
        out = []
        total = 0.0
        for s2, p in rows:
            if p <= 0.0:
                continue
            total += p
            sid2 = self._sid.get(s2)
            if sid2 is None:
                raise ModelError(
                    f"successor {s2!r} of {CompiledState(s, k)} / {a!r} is not a base state"
                )
            out.append((sid2, p))
        if abs(total - 1.0) > PROB_TOL:
            raise ModelError(
                f"dynamics row for {CompiledState(s, k)} / {a!r} sums to {total!r}, expected 1"
            )
        return tuple(out)

    def _base_row(self, s: State, k: KnowledgeVector, a: Action) -> Tuple[Row, Row, int]:
        """``model.transition(s, a)`` checked, then merged by successor in
        first-seen order, and the OR of its successors' reveal masks."""
        row = self._sid_row(self.model.transition(s, a), s, k, a)
        merged: Dict[int, float] = {}
        mask = 0
        for sid2, p in row:
            merged[sid2] = merged.get(sid2, 0.0) + p
            mask |= self._reveal[sid2]
        return row, tuple(merged.items()), mask

    def _fold(self, kid: int, unknown: int, row: Row) -> Row:
        """The compiled successors of base ``row`` under ``kid``: each
        outcome split by what its arrival reveals, repeated ids merged in
        first-seen order."""
        ids, add, branches = self._ids, self._add, self._revelation_branches
        reveal, here = self._reveal, ids[kid]
        acc: Dict[int, float] = {}
        for sid2, p in row:
            revealed = reveal[sid2] & unknown
            if not revealed:  # p * 1.0 == p: the knowledge vector stays put
                j = here[sid2]
                if j is None:
                    j = add(sid2, kid)
                acc[j] = acc.get(j, 0.0) + p
                continue
            for kid2, q in branches(kid, revealed):
                j = ids[kid2][sid2]
                if j is None:
                    j = add(sid2, kid2)
                acc[j] = acc.get(j, 0.0) + p * q
        return tuple(acc.items())

    def expand(self, i: int) -> QRows:
        goal_flags = self.goal_flags
        if goal_flags[i]:
            return self._goal_rows(i)
        sid, kid = self._sids[i], self._kids[i]
        s, k = self._base[sid], self._kvs[kid]
        model = self.model
        effects, step_cost = model.knowledge_effects, model.knowledge_step_cost
        exit_cost = model.exit_cost if model.terminal_cost is not None else None
        unknown = model.full_mask & ~(k.yes | k.no)
        here, add = self._ids[kid], self._add
        base_rows, base_costs = self._base_rows, self._base_costs
        pair = sid * len(self.actions)
        out = []
        for a in self.actions:
            rows = None if effects is None else effects(s, a, k)
            if rows is not None:
                succ = self._fold(kid, unknown, self._sid_row(rows, s, k, a))
            else:
                memo = base_rows[pair]
                if memo is None:
                    memo = base_rows[pair] = self._base_row(s, k, a)
                row, merged, mask = memo
                if mask & unknown:
                    succ = self._fold(kid, unknown, row)
                else:
                    succ = []
                    for sid2, p in merged:
                        j = here[sid2]
                        if j is None:
                            j = add(sid2, kid)
                        succ.append((j, p))
                    succ = tuple(succ)
            c = None if step_cost is None else step_cost(s, a, k)
            if c is None:
                c = base_costs[pair]
                if c is None:
                    c = base_costs[pair] = model.cost(s, a)
            if exit_cost is not None:
                for j, p in succ:
                    if goal_flags[j]:
                        c += p * exit_cost(self._base[self._sids[j]])
            out.append((a, c, succ))
            pair += 1
        return tuple(out)


@dataclass
class Reachable:
    """Closed reachable set of a compiled problem, as arrays over its rows.

    Row ``r`` is compiled state id ``r``: the SSP numbers its states in the
    breadth-first order of the walk, so the reachable ids are
    ``range(len(reach))`` and the goal ids ``np.flatnonzero(reach.goal)``.
    With ``A = len(ssp.actions)``, row ``r * A + a`` of the CSR matrix
    ``transitions`` (shape ``(n * A, n)``) and of ``cost`` is the ``a``-th
    action at state ``r``: its successors, in ``ssp.successors`` order (so
    indices are not sorted), and ``ssp.cost``.  Goal rows have no
    successors and cost zero; ``goal`` marks them.
    """

    goal: "np.ndarray" = field(repr=False)
    cost: "np.ndarray" = field(repr=False)
    transitions: "sparse.csr_matrix" = field(repr=False)

    def __len__(self) -> int:
        return len(self.goal)


def compile_gussp(model: GusspModel, check_properness: bool = True) -> CompiledSsp:
    """Compile a model, rejecting obviously improper ones up front.

    For models whose goals are literal base states with the default
    termination rule and no knowledge hooks, a conservative base-graph check
    requires every base state reachable from the start to reach every
    potential goal that has positive prior mass;
    otherwise some knowledge vector would strand the agent.  Domains with
    custom termination validate their own connectivity, and the eager
    :func:`enumerate_reachable` pass re-checks properness exactly.
    """
    ssp = CompiledSsp(model)
    if (
        check_properness
        and model.terminal_test is None
        and model.knowledge_effects is None
        and model.goal_membership is None
    ):
        # only meaningful when goals are literal places on the base graph;
        # projected goals (time labels, factored cells) need not stay
        # mutually reachable
        _check_base_properness(model)
    return ssp


def _check_base_properness(model: GusspModel) -> None:
    forward: Dict[State, set] = {}
    seen = {model.start_state}
    frontier = deque([model.start_state])
    while frontier:
        s = frontier.popleft()
        succ = set()
        for a in model.actions:
            for s2, p in model.transition(s, a):
                if p > 0.0:
                    succ.add(s2)
        forward[s] = succ
        for s2 in succ:
            if s2 not in seen:
                seen.add(s2)
                frontier.append(s2)

    all_unknown = model.knowledge_all_unknown()
    for i in range(model.n_goals):
        if model.prior.marginal(all_unknown, i) <= 0.0:
            continue
        sites = set(model.goal_sites(i))
        # walk backwards over the restricted forward graph
        good = {s for s in seen if s in sites}
        changed = True
        while changed:
            changed = False
            for s in seen:
                if s not in good and forward[s] & good:
                    good.add(s)
                    changed = True
        bad = seen - good
        if bad:
            raise ImproperModel(
                f"state {next(iter(bad))!r} cannot reach potential goal "
                f"{model.potential_goals[i]!r}"
            )


def enumerate_reachable(
    ssp: LazySsp,
    state_budget: int = DEFAULT_STATE_BUDGET,
    require_proper: bool = True,
) -> Reachable:
    """Breadth-first closure from the start state, written into CSR arrays.

    Every non-goal state is expanded once through ``ssp.expand``, and its
    rows go straight into the arrays of :class:`Reachable`; the lazy row
    cache is left alone.  Goal states are absorbing and not expanded.  The
    walk takes ids ``0, 1, 2, ...`` as its queue: ``expand`` numbers new
    successors in the order the walk meets them, so on an SSP no lazy
    solver has touched the start is id 0 and each newly found state is the
    next id.  Raises :class:`ValueError` if
    the SSP was numbered otherwise, :class:`StateBudgetExceeded` past
    ``state_budget`` states and, when ``require_proper``,
    :class:`ImproperModel` if some reachable state cannot reach a goal; that
    check walks back from the goals over the transposed matrix in numpy
    (:func:`_dead_states`) and makes no per-edge Python objects.
    """
    import numpy as np
    from scipy import sparse

    if ssp.start_id != 0:
        raise ValueError(_OUT_OF_ORDER)
    actions = ssp.actions
    goal = bytearray()
    indptr, indices, data, cost = array("i", [0]), array("i"), array("d"), array("d")
    expand, is_goal = ssp.expand, ssp.is_goal
    add_r, add_p = indices.append, data.append
    goal_rows = tuple((a, 0.0, ()) for a in actions)  # absorbing, not expanded
    i, n = 0, 1  # n: states found so far
    while i < n:
        g = is_goal(i)
        goal.append(g)
        for _a, c, succ in goal_rows if g else expand(i):
            cost.append(c)
            for j, p in succ:
                if j >= n:
                    if j != n:
                        raise ValueError(_OUT_OF_ORDER)
                    if n >= state_budget:
                        raise StateBudgetExceeded(
                            f"more than {state_budget} reachable compiled states"
                        )
                    n += 1
                add_r(j)
                add_p(p)
            indptr.append(len(indices))
        i += 1

    goal_mask = np.frombuffer(goal, dtype=bool)
    transitions = sparse.csr_matrix(
        (np.frombuffer(data, dtype=float), np.frombuffer(indices, dtype=np.intc),
         np.frombuffer(indptr, dtype=np.intc)),
        shape=(n * len(actions), n),
    )

    if require_proper:
        dead = _dead_states(transitions, goal_mask, len(actions))
        if dead.size:
            raise ImproperModel(
                f"{dead.size} reachable states cannot reach a goal, "
                f"e.g. {ssp.state(int(dead[0]))}"
            )

    return Reachable(
        goal=goal_mask,
        cost=np.frombuffer(cost, dtype=float),
        transitions=transitions,
    )


def _dead_states(transitions: "sparse.csr_matrix", goal: "np.ndarray", n_actions: int):
    """Sorted ids of the states that cannot reach a goal: a level-by-level
    numpy walk back from the goals over the transposed matrix, whose row
    ``j`` holds the rows ``r * n_actions + a`` that can move to ``j``."""
    import numpy as np

    back = transitions.T.tocsr()
    can_finish = goal.copy()
    frontier = np.flatnonzero(can_finish)
    while frontier.size:
        rows = np.unique(back[frontier].indices // n_actions)
        frontier = rows[~can_finish[rows]]
        can_finish[frontier] = True
    return np.flatnonzero(~can_finish)


def dump_compiled(
    ssp: CompiledSsp,
    stream: TextIO,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Reachable:
    """Write the reachable compiled graph, one state per line, and return
    the :class:`Reachable` it was read from.

    Format: ``state_id  s  k  [a->(state_id,p),...]`` with actions in model
    order, omitted for goal states.  Rows are read from
    :func:`enumerate_reachable`'s arrays, so the lazy row cache stays empty.
    """
    reach = enumerate_reachable(ssp, state_budget=state_budget)
    m, n_actions = reach.transitions, len(ssp.actions)
    for i, g in enumerate(reach.goal.tolist()):
        x = ssp.state(i)
        if g:
            stream.write(f"{i}  {x.s!r}  {x.k}  goal\n")
            continue
        ptr = m.indptr[i * n_actions:(i + 1) * n_actions + 1].tolist()  # this state's rows
        lo, hi = ptr[0], ptr[-1]
        succ = list(zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist()))
        parts = [
            f"{a}->" + ",".join(f"({j},{p:.9g})" for j, p in succ[start - lo:end - lo])
            for a, start, end in zip(ssp.actions, ptr, ptr[1:])
        ]
        stream.write(f"{i}  {x.s!r}  {x.k}  [{'; '.join(parts)}]\n")
    return reach
