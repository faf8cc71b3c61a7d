"""Compilation of a goal-uncertain model into a finite SSP.

A compiled state pairs a base state with a knowledge vector.  Revelation is
folded into the transition itself: each base outcome is split by the
observation pattern its arrival produces, weighted by the posterior
probability of that pattern given the current knowledge.  Goal states are
absorbing with zero cost; a one-time terminal cost (if the model defines
one) is folded into the expected cost of actions that can terminate.  The
determinization's single-target plans are this problem too, started from a
knowledge vector with nothing unknown (``CompiledSsp(model, k, target)``).

The compiled problem is generated lazily, one whole state at a time
(``expand(i)``: every action's cost and successor row), so heuristic-search
solvers can work on instances far too large to enumerate.  The base row,
its reveal mask and the base cost of each (base state, action) are read
once and shared by every knowledge vector; a row whose successors reveal
nothing still unknown skips the revelation fold.
:func:`enumerate_reachable` is the eager path used by value iteration,
oracles, and debug dumps: its breadth-first walk expands each non-goal
state once and builds a CSR transition matrix over (state, action) rows, a
cost array and a goal mask in :class:`Reachable`, without filling the lazy
row cache.  A fresh SSP numbers its states in that walk's discovery order,
so the walk's rows are the compiled ids.  Most states are plain: no hook
answers, nothing still unknown is revealed and there is no terminal cost,
so their rows are the merged base rows under their own knowledge vector.
For those the walk only interns the base state's distinct successors, and
one numpy gather over the memo (:meth:`CompiledSsp.base_tables`) writes
all their rows once the walk ends; the other states' rows are written edge
by edge.  The exact properness check is a vectorised walk back from the
goals over the transposed matrix, level by level in numpy, with no
per-edge Python objects.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, TextIO, Tuple

from .errors import ImproperModel, ModelError, StateBudgetExceeded
from .heuristics import INF, DistanceOracle, build_distance_oracle
from .model import Action, GusspModel, KnowledgeVector, State, PROB_TOL, submasks

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
# per action: what knowledge_effects and knowledge_step_cost answered
Answers = List[Tuple[Optional[Sequence[Tuple[State, float]]], Optional[float]]]


class CompiledSsp:
    """Lazy finite SSP over (base state, knowledge vector) pairs.

    The start is ``model.start_state`` under ``k`` (default: every goal
    unknown).  A state is a goal where the model terminates or, given a
    determinized ``target``, where ``model.target_done`` holds; a terminal
    cost is charged only where the model terminates.

    Base states are numbered once, in ``model.base_states`` order (``sid``),
    and knowledge vectors as they are first met (``kid``, keyed on their
    ``yes`` and ``no`` masks).  Compiled states get dense ids in discovery
    order; ``_ids[kid][sid]`` holds the id of ``(sid, kid)``, or ``None``
    before it is met.  ``goal_flags[i]`` marks the goal states.

    ``expand(i)`` returns one ``(action, cost, row)`` per action, in action
    order: the expected cost and the successor row ``((j, p), ...)``.
    ``q_rows(i)``, the only cache, memoises it; ``successors`` and ``cost``
    index it.  The ``knowledge_effects`` and ``knowledge_step_cost`` hooks
    are called once per (state, action) expansion and win when they answer.
    Otherwise the base dynamics are shared by every knowledge vector: per
    ``(sid, a)`` the checked base row ``model.transition(s, a)``, the same
    row with repeated successors merged in first-seen order, the OR of its
    successors' reveal masks and ``model.cost(s, a)`` are each read once
    and kept.  When no successor of the base row reveals a goal still
    unknown, the row's successors stay under the current knowledge vector
    and are plain id lookups; only the other rows run the revelation fold.
    ``expand(i)`` and ``walk_step(i)``, the eager walk's expansion, both ask
    the hooks once for every action (``_answers``).  For a plain state
    ``walk_step`` returns only the successor ids, read off the distinct
    successors of the ``sid``'s merged rows (kept per ``sid``), and leaves
    the rows to :func:`enumerate_reachable`'s gather; every other state goes
    through ``_rows``, the per-action body ``expand`` uses.
    Instances are not thread-safe: every solve compiles its own.
    """

    def __init__(
        self,
        model: GusspModel,
        k: Optional[KnowledgeVector] = None,
        target: Optional[int] = None,
    ):
        self.model = model
        self.actions = model.actions
        self.target = target
        self.goal_flags: List[bool] = []
        self._action_index = {a: n for n, a in enumerate(self.actions)}
        self._q_rows: Dict[int, QRows] = {}
        if target is None:
            self._is_goal = model.is_terminal
        else:
            terminal, done = model.is_terminal, model.target_done
            self._is_goal = lambda s, k: terminal(s, k) or done(s, target)
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
        self._unions: List[Optional[Tuple[Tuple[int, ...], int]]] = [None] * self._n_base
        self._branch_cache: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        # the base model's distance oracle, when compile_gussp's properness
        # check built one; hpg reads it instead of building its own
        self.distance_oracle: Optional[DistanceOracle] = None
        start_k = model.knowledge_all_unknown() if k is None else k
        self.start_id = self.intern(model.start_state, start_k)

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
        self.goal_flags.append(self._is_goal(self._base[sid], self._kvs[kid]))
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

    def _revelation_branches(self, kid: int, revealed: int) -> Tuple[Tuple[int, float], ...]:
        """Knowledge updates, as ``(kid, probability)``, when the goals in
        ``revealed`` (all unknown under ``kid``) are observed."""
        key = (kid << self.model.n_goals) | revealed
        cached = self._branch_cache.get(key)
        if cached is not None:
            return cached
        import numpy as np

        k = self._kvs[kid]
        masks, probs = self.model.prior.posterior(k)
        # the patterns the revealed goals can show, in increasing order, and
        # each configuration's pattern as a position among them; bincount
        # adds each pattern's masses in posterior order, as a dict would
        patterns = submasks(revealed)
        at = np.searchsorted(patterns, np.frombuffer(masks, np.int64) & revealed)
        sums = np.bincount(at, weights=np.frombuffer(probs), minlength=len(patterns))
        branches = tuple(
            (self._kid_of(k.confirm(yes=pat, no=revealed & ~pat)), prob)
            for pat, prob in zip(patterns.tolist(), sums.tolist())
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

    def _answers(self, s: State, k: KnowledgeVector) -> Optional[Answers]:
        """Each action's ``(knowledge_effects, knowledge_step_cost)`` answer
        at ``(s, k)``, in action order, or ``None`` when neither hook answers
        for any action.  The only place the hooks are asked."""
        model = self.model
        effects, step_cost = model.knowledge_effects, model.knowledge_step_cost
        answers = None
        if effects is not None or step_cost is not None:
            for n, a in enumerate(self.actions):
                rows = None if effects is None else effects(s, a, k)
                c = None if step_cost is None else step_cost(s, a, k)
                if rows is not None or c is not None:
                    if answers is None:
                        answers = [(None, None)] * len(self.actions)
                    answers[n] = (rows, c)
        return answers

    def _union(self, sid: int, s: State, k: KnowledgeVector) -> Tuple[Tuple[int, ...], int]:
        """The distinct successors of ``sid``'s merged base rows over all
        actions, in first-seen order, and the OR of their reveal masks.
        Reads every action's base row and base cost into the memo."""
        union = self._unions[sid]
        if union is None:
            base_rows, base_costs, model = self._base_rows, self._base_costs, self.model
            seen: Dict[int, None] = {}
            mask = 0
            pair = sid * len(self.actions)
            for a in self.actions:
                memo = base_rows[pair]
                if memo is None:
                    memo = base_rows[pair] = self._base_row(s, k, a)
                if base_costs[pair] is None:
                    base_costs[pair] = model.cost(s, a)
                seen.update(dict.fromkeys(sid2 for sid2, _p in memo[1]))
                mask |= memo[2]
                pair += 1
            union = self._unions[sid] = (tuple(seen), mask)
        return union

    def walk_step(self, i: int) -> Tuple[Optional[List[int]], Optional[QRows]]:
        """``(ids, None)`` when ``i`` is plain, else ``(None, rows)`` with
        the rows ``expand(i)`` gives.

        A non-goal state is plain when no hook answers for any action, no
        base row of its ``sid`` reveals a goal still unknown, and the model
        has no ``terminal_cost``.  Its rows are then the merged base rows
        under its own knowledge vector, which :func:`enumerate_reachable`
        gathers in numpy once the walk ends (:meth:`base_tables`); ``ids``
        are the state's distinct successors, interned in the order the rows
        meet them."""
        sid, kid = self._sids[i], self._kids[i]
        s, k = self._base[sid], self._kvs[kid]
        answers = self._answers(s, k)
        if answers is None and self.model.terminal_cost is None:
            union, mask = self._union(sid, s, k)
            if not mask & self.model.full_mask & ~(k.yes | k.no):
                here = self._ids[kid]
                ids = [here[sid2] for sid2 in union]
                if None in ids:
                    for m, j in enumerate(ids):
                        if j is None:
                            ids[m] = self._add(union[m], kid)
                return ids, None
        return None, self._rows(sid, kid, s, k, answers)

    def expand(self, i: int) -> QRows:
        if self.goal_flags[i]:  # every action stays put at zero cost
            stay = ((i, 1.0),)
            return tuple((a, 0.0, stay) for a in self.actions)
        sid, kid = self._sids[i], self._kids[i]
        s, k = self._base[sid], self._kvs[kid]
        return self._rows(sid, kid, s, k, self._answers(s, k))

    def _rows(
        self, sid: int, kid: int, s: State, k: KnowledgeVector, answers: Optional[Answers]
    ) -> QRows:
        """Every action's ``(action, cost, row)`` at non-goal ``(sid, kid)``,
        given the hooks' ``answers`` there."""
        goal_flags, model = self.goal_flags, self.model
        exit_cost = model.exit_cost if model.terminal_cost is not None else None
        unknown = model.full_mask & ~(k.yes | k.no)
        here, add = self._ids[kid], self._add
        base_rows, base_costs = self._base_rows, self._base_costs
        pair = first = sid * len(self.actions)
        out = []
        for a in self.actions:
            if answers is None:
                rows = c = None
            else:
                rows, c = answers[pair - first]
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
            if c is None:
                c = base_costs[pair]
                if c is None:
                    c = base_costs[pair] = model.cost(s, a)
            if exit_cost is not None:
                for j, p in succ:
                    if goal_flags[j]:
                        s2 = self._base[self._sids[j]]
                        # a plan's goal need not be where the model terminates
                        if self.target is None or model.is_terminal(s2, self._kvs[self._kids[j]]):
                            c += p * exit_cost(s2)
            out.append((a, c, succ))
            pair += 1
        return tuple(out)

    def base_tables(self):
        """The memo as arrays, for :func:`enumerate_reachable`'s gather of
        the plain rows: ``indptr``, ``succ`` and ``prob``, a CSR over the
        pairs ``sid * A + a`` of the merged base rows (empty where unread);
        ``cost``, the base cost per pair (NaN where unread); ``ids``, where
        ``ids[kid, sid]`` is the compiled id (-1 where not interned); and
        ``sids`` and ``kids``, the base state and knowledge vector of each
        compiled id."""
        import numpy as np

        lens = np.zeros(len(self._base_rows) + 1, dtype=np.intc)
        succ, prob = array("i"), array("d")
        for pair, memo in enumerate(self._base_rows):
            if memo is not None:
                lens[pair + 1] = len(memo[1])
                for sid2, p in memo[1]:
                    succ.append(sid2)
                    prob.append(p)
        sids = np.array(self._sids, dtype=np.intc)
        kids = np.array(self._kids, dtype=np.intc)
        ids = np.full((len(self._kvs), self._n_base), -1, dtype=np.intc)
        ids[kids, sids] = np.arange(len(sids), dtype=np.intc)
        cost = np.array([np.nan if c is None else c for c in self._base_costs])
        return (
            np.cumsum(lens, dtype=np.intc), np.frombuffer(succ, dtype=np.intc),
            np.frombuffer(prob, dtype=float), cost, ids, sids, kids,
        )


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


def compile_gussp(model: GusspModel) -> CompiledSsp:
    """Compile a model, rejecting obviously improper ones up front.

    For models whose goals are literal base states with the default
    termination rule and no knowledge hooks, a conservative base-graph check
    requires every base state reachable from the start to reach every
    potential goal that has positive prior mass;
    otherwise some knowledge vector would strand the agent.  Domains with
    custom termination validate their own connectivity, and the eager
    :func:`enumerate_reachable` pass re-checks properness exactly.  Build
    ``CompiledSsp(model)`` directly to skip the up-front check.
    """
    ssp = CompiledSsp(model)
    if (
        model.terminal_test is None
        and model.knowledge_effects is None
        and model.goal_membership is None
    ):
        # only meaningful when goals are literal places on the base graph;
        # projected goals (time labels, factored cells) need not stay
        # mutually reachable
        ssp.distance_oracle = _check_base_properness(model)
    return ssp


def _check_base_properness(model: GusspModel) -> DistanceOracle:
    """A forward walk from the start, then one distance-oracle build: a base
    state reaches goal ``i`` exactly when its oracle distance to ``i`` is
    finite, since the oracle searches backward over the same graph of
    ``p > 0`` outcomes.  The first stranded state in walk order is named;
    otherwise the oracle is returned."""
    walk = [model.start_state]
    seen = set(walk)
    for s in walk:  # breadth first: the list grows as the loop reads it
        for a in model.actions:
            for s2, p in model.transition(s, a):
                if p > 0.0 and s2 not in seen:
                    seen.add(s2)
                    walk.append(s2)

    oracle = build_distance_oracle(model)
    all_unknown = model.knowledge_all_unknown()
    goals = [i for i in range(model.n_goals) if model.prior.marginal(all_unknown, i) > 0.0]
    for s in walk:
        for i in goals:
            if oracle.dist(s, i) == INF:
                raise ImproperModel(
                    f"state {s!r} cannot reach potential goal {model.potential_goals[i]!r}"
                )
    return oracle


def enumerate_reachable(
    ssp: CompiledSsp,
    state_budget: int = DEFAULT_STATE_BUDGET,
    require_proper: bool = True,
) -> Reachable:
    """Breadth-first closure from the start state, written into CSR arrays.

    Every non-goal state is expanded once through ``ssp.walk_step``, and its
    rows go into the arrays of :class:`Reachable`; the lazy row cache is
    left alone.  Goal states are absorbing and not expanded.  The walk takes
    ids ``0, 1, 2, ...`` as its queue: expansion numbers new successors in
    the order the walk meets them, so on an SSP no lazy solver has touched
    the start is id 0 and each newly found state is the next id.

    A :class:`CompiledSsp` state that is plain (no hook answers, nothing
    still unknown revealed, no terminal cost) only interns its distinct
    successors during the walk; its rows are the merged base rows of its
    ``sid`` mapped through its knowledge vector's ids, so once the walk ends
    one numpy gather over :meth:`CompiledSsp.base_tables` writes them all,
    in bounded chunks of ``np.intc`` indices.  Every other state's rows are
    written edge by edge as the walk expands it.

    Raises :class:`ValueError` if the SSP was numbered otherwise,
    :class:`StateBudgetExceeded` past ``state_budget`` states and, when
    ``require_proper``, :class:`ImproperModel` if some reachable state cannot
    reach a goal; that check walks back from the goals over the transposed
    matrix in numpy (:func:`_dead_states`) and makes no per-edge Python
    objects.
    """
    import numpy as np
    from scipy import sparse

    if ssp.start_id != 0:
        raise ValueError(_OUT_OF_ORDER)
    n_actions = len(ssp.actions)
    goal, plain = bytearray(), array("i")
    # the explicitly written states: ids, then per row its length and cost,
    # then the entries of all their rows in order
    explicit, lens, cost = array("i"), array("i"), array("d")
    indices, data = array("i"), array("d")
    step, is_goal, add_p = ssp.walk_step, ssp.is_goal, data.append
    i, n = 0, 1  # n: states found so far
    while i < n:
        g = is_goal(i)
        goal.append(g)
        if not g:
            ids, rows = step(i)
            if rows is None:
                plain.append(i)
            else:
                explicit.append(i)
                ids = []
                for _a, c, succ in rows:
                    cost.append(c)
                    lens.append(len(succ))
                    for j, p in succ:
                        ids.append(j)
                        add_p(p)
                indices.extend(ids)
            if ids and max(ids) >= n:
                for j in ids:
                    if j < n:
                        continue
                    if j != n:
                        raise ValueError(_OUT_OF_ORDER)
                    if n >= state_budget:
                        raise StateBudgetExceeded(
                            f"more than {state_budget} reachable compiled states"
                        )
                    n += 1
        i += 1

    row_len = np.zeros((n, n_actions), dtype=np.intc)
    row_cost = np.zeros((n, n_actions))
    explicit = np.frombuffer(explicit, dtype=np.intc)
    row_len[explicit] = np.frombuffer(lens, dtype=np.intc).reshape(-1, n_actions)
    row_cost[explicit] = np.frombuffer(cost, dtype=float).reshape(-1, n_actions)
    plain = np.frombuffer(plain, dtype=np.intc)
    if plain.size:
        b_ptr, b_succ, b_prob, b_cost, ids_of, sids, kids = ssp.base_tables()
        psid = sids[plain]
        row_len[plain] = np.diff(b_ptr).reshape(-1, n_actions)[psid]
        row_cost[plain] = b_cost.reshape(-1, n_actions)[psid]
    indptr = np.zeros(n * n_actions + 1, dtype=np.intc)
    np.cumsum(row_len.ravel(), dtype=np.intc, out=indptr[1:])
    del row_len
    starts = indptr[::n_actions]  # state i's entries: starts[i]:starts[i + 1]
    out_indices = np.empty(indptr[-1], dtype=np.intc)
    out_data = np.empty(indptr[-1])

    e_len = starts[explicit + 1] - starts[explicit]
    e_start = np.cumsum(e_len, dtype=np.intc) - e_len
    indices, data = np.frombuffer(indices, dtype=np.intc), np.frombuffer(data, dtype=float)
    for _blocks, dst, src in _block_copies(starts[explicit], e_start, e_len):
        out_indices[dst] = indices[src]
        out_data[dst] = data[src]
    if plain.size:
        pkid = kids[plain]
        p_len = starts[plain + 1] - starts[plain]
        p_start = b_ptr[psid * n_actions]
        for blocks, dst, src in _block_copies(starts[plain], p_start, p_len):
            out_indices[dst] = ids_of[np.repeat(pkid[blocks], p_len[blocks]), b_succ[src]]
            out_data[dst] = b_prob[src]

    goal_mask = np.frombuffer(goal, dtype=bool)
    transitions = sparse.csr_matrix(
        (out_data, out_indices, indptr), shape=(n * n_actions, n)
    )

    if require_proper:
        dead = _dead_states(transitions, goal_mask, n_actions)
        if dead.size:
            raise ImproperModel(
                f"{dead.size} reachable states cannot reach a goal, "
                f"e.g. {ssp.state(int(dead[0]))}"
            )

    return Reachable(goal=goal_mask, cost=row_cost.ravel(), transitions=transitions)


_GATHER_CHUNK = 1 << 15  # blocks per step of _block_copies


def _block_copies(dst_start: "np.ndarray", src_start: "np.ndarray", lens: "np.ndarray"):
    """Block ``b`` copies ``lens[b]`` entries from ``src_start[b]`` on to
    ``dst_start[b]`` on.  Yields ``(blocks, dst, src)``: a slice of blocks
    and the ``np.intc`` positions they copy, a bounded number of blocks at a
    time."""
    for lo in range(0, len(lens), _GATHER_CHUNK):
        blocks = slice(lo, lo + _GATHER_CHUNK)
        ln = lens[blocks]
        yield blocks, _positions(dst_start[blocks], ln), _positions(src_start[blocks], ln)


def _positions(starts: "np.ndarray", lens: "np.ndarray") -> "np.ndarray":
    """``starts[b]:starts[b] + lens[b]`` for every block ``b`` (at least
    one), concatenated, as ``np.intc``."""
    import numpy as np

    first = np.cumsum(lens, dtype=np.intc) - lens  # each block's offset in the result
    return np.repeat(starts - first, lens) + np.arange(int(first[-1] + lens[-1]), dtype=np.intc)


def _dead_states(transitions: "sparse.csr_matrix", goal: "np.ndarray", n_actions: int):
    """Sorted ids of the states that cannot reach a goal: a level-by-level
    numpy walk back from the goals over the transposed matrix, whose row
    ``j`` holds the rows ``r * n_actions + a`` that can move to ``j``.  Each
    level reads only the frontier's slices of the transposed matrix and
    touches only the states it finds, so a deep graph costs its edges, not
    its number of states per level."""
    import numpy as np

    back = transitions.T.tocsr()
    ptr, into = back.indptr, back.indices
    can_finish = goal.copy()
    last = np.empty(len(goal), dtype=np.intc)  # per state, where it last sits in ``rows``
    frontier = np.flatnonzero(can_finish)
    while frontier.size:
        lo = ptr[frontier]
        rows = into[_positions(lo, ptr[frontier + 1] - lo)] // n_actions
        rows = rows[~can_finish[rows]]
        can_finish[rows] = True
        at = np.arange(len(rows), dtype=np.intc)
        last[rows] = at
        frontier = rows[last[rows] == at]  # each new state once, without a sort
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
