"""Compilation of a goal-uncertain model into a finite SSP.

A compiled state pairs a base state with a knowledge vector.  Revelation is
folded into the transition itself: each base outcome is split by the
observation pattern its arrival produces, weighted by the posterior
probability of that pattern given the current knowledge.  Goal states are
absorbing with zero cost; a one-time terminal cost (if the model defines
one) is folded into the expected cost of actions that can terminate.  The
determinization's single-target plans are this problem too, started from a
knowledge vector with nothing unknown (``CompiledSsp(model, k, target)``).

:class:`CompiledSsp` generates the problem lazily, one whole state at a
time, so heuristic-search solvers can work on instances far too large to
enumerate; every SSP and plan of a model reads the base rows and costs
from the model's one :class:`~gussp.model.BaseTable`, and asks the
knowledge hooks only at the model's hook sites.
:func:`enumerate_reachable` is the eager path used by value iteration,
oracles and debug dumps: a breadth-first walk, one numpy block per level,
into the CSR arrays of :class:`Reachable`, whose rows are the compiled ids.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from .errors import ImproperModel, ModelError, StateBudgetExceeded
from .heuristics import INF, DistanceOracle, build_distance_oracle
from .model import Action, GusspModel, KnowledgeVector, Row, State, checked_cost, submasks

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


QRows = Tuple[Tuple[Action, float, Row], ...]
# per action: what knowledge_effects and knowledge_step_cost answered
Answers = List[Tuple[Optional[Sequence[Tuple[State, float]]], Optional[float]]]


class CompiledSsp:
    """Lazy finite SSP over (base state, knowledge vector) pairs.

    The start is ``model.start_state`` under ``k`` (default: every goal
    unknown).  A state is a goal where the model terminates or, given a
    determinized ``target``, where the table's ``done`` mask holds it; a
    terminal cost is charged only where the model terminates.

    Base states are numbered by the model's base table (``sid``), and
    knowledge vectors as they are first met (``kid``).  Compiled states get
    dense ids in discovery order; ``_ids``, one ``array('i')`` over
    knowledge vectors × base states, holds at ``kid * len(base) + sid`` the
    id of ``(sid, kid)``, or -1 before it is met.  A row holds id ``i`` as
    ``_shared[i]``, one int object per id, as fresh ints read from the
    array would cost memory and slow every dict keyed by ids.

    ``expand(i)`` returns one ``(action, cost, row)`` per action, in action
    order; ``q_rows(i)``, the SSP's one row cache, memoises it, and
    ``successors`` and ``cost`` index it.  The knowledge hooks are asked once
    per (state, action) expansion at a hook site (``_answers``) and win
    when they answer; otherwise the row and cost come from the model's base
    table, read and checked when the model was built and shared by every
    SSP and plan of the model.  Instances are not thread-safe: every solve
    compiles its own ids and row cache over the model's one table.
    """

    def __init__(
        self,
        model: GusspModel,
        k: Optional[KnowledgeVector] = None,
        target: Optional[int] = None,
    ):
        self.model = model
        self.actions = model.actions
        self.goal_flags: List[bool] = []
        self.table = table = model.base_table
        self._q_rows: Dict[int, QRows] = {}
        self._target_bit = 0 if target is None else 1 << target
        self._base, self._sid, self._reveal = table.states, table.sid, table.reveal
        self._nb = len(self._base)
        self._kid: Dict[int, int] = {}
        self._kvs: List[KnowledgeVector] = []
        self._yes = array("q")  # per kid, its confirmed goals
        self._ids = array("i")
        self._shared: List[int] = []
        self._unmet = array("i", [-1]) * self._nb  # one knowledge vector's ids, none met
        self._sids, self._kids = array("i"), array("i")  # per id: its sid and kid
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
            self._yes.append(k.yes)
            self._ids += self._unmet  # a BufferError while a numpy view of it lives
        return kid

    def _add(self, sid: int, kid: int) -> int:
        i = self._ids[kid * self._nb + sid] = len(self._sids)
        self._shared.append(i)
        self._sids.append(sid)
        self._kids.append(kid)
        t, yes = self.table, self._yes[kid]
        goal = t.terminal[sid] or yes & t.goal_bit[sid] or t.done[sid] & self._target_bit
        self.goal_flags.append(bool(goal))
        return i

    def _add_all(self, keys: "np.ndarray") -> None:
        """``_add`` for each ``kid * len(base) + sid`` of ``keys``, in order:
        all unmet, and distinct."""
        import numpy as np

        n = len(self._sids)
        np.frombuffer(self._ids, dtype=np.intc)[keys] = np.arange(n, n + len(keys), dtype=np.intc)
        self._shared.extend(range(n, n + len(keys)))
        sids, kids = keys % self._nb, keys // self._nb
        self._sids.extend(sids.tolist())
        self._kids.extend(kids.tolist())
        terminal, goal_bit, done = self.table.goal_arrays
        yes = np.frombuffer(self._yes, dtype=np.int64)[kids]
        goal = terminal[sids] | (yes & goal_bit[sids] | done[sids] & self._target_bit != 0)
        self.goal_flags += goal.tolist()

    def intern(self, s: State, k: KnowledgeVector) -> int:
        sid = self._sid.get(s)
        if sid is None:
            raise ModelError(f"{s!r} is not a base state")
        kid = self._kid_of(k)
        i = self._ids[kid * self._nb + sid]
        return self._add(sid, kid) if i < 0 else self._shared[i]

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
        return self.q_rows(i)[self.table.action_index[a]][2]

    def cost(self, i: int, a: Action) -> float:
        return self.q_rows(i)[self.table.action_index[a]][1]

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

    def _fold(self, kid: int, unknown: int, row: Row) -> Row:
        """The compiled successors of base ``row`` under ``kid``: each
        outcome split by what its arrival reveals, repeated ids merged in
        first-seen order."""
        ids, shared, add, nb = self._ids, self._shared, self._add, self._nb
        reveal, here = self._reveal, kid * nb
        acc: Dict[int, float] = {}
        for sid2, p in row:
            revealed = reveal[sid2] & unknown
            if not revealed:  # p * 1.0 == p: the knowledge vector stays put
                j = ids[here + sid2]
                j = add(sid2, kid) if j < 0 else shared[j]
                acc[j] = acc.get(j, 0.0) + p
                continue
            for kid2, q in self._revelation_branches(kid, revealed):
                j = ids[kid2 * nb + sid2]
                j = add(sid2, kid2) if j < 0 else shared[j]
                acc[j] = acc.get(j, 0.0) + p * q
        return tuple(acc.items())

    def _answers(self, sid: int, s: State, k: KnowledgeVector) -> Optional[Answers]:
        """Each action's ``(knowledge_effects, knowledge_step_cost)`` answer
        at ``(s, k)``, in action order, or ``None`` off the hook sites and
        when neither hook answers for any action.  The only place the hooks
        are asked."""
        if not self.table.hook_site[sid]:
            return None
        model = self.model
        effects, step_cost = model.knowledge_effects, model.knowledge_step_cost
        answers = None
        for n, a in enumerate(self.actions):
            rows = None if effects is None else effects(s, a, k)
            c = None if step_cost is None else step_cost(s, a, k)
            if rows is not None or c is not None:
                if answers is None:
                    answers = [(None, None)] * len(self.actions)
                answers[n] = (rows, c)
        return answers

    def expand(self, i: int) -> QRows:
        if self.goal_flags[i]:  # every action stays put at zero cost
            stay = ((i, 1.0),)
            return tuple((a, 0.0, stay) for a in self.actions)
        sid, kid = self._sids[i], self._kids[i]
        s, k = self._base[sid], self._kvs[kid]
        return self._rows(sid, kid, s, k, self._answers(sid, s, k))

    def _rows(
        self, sid: int, kid: int, s: State, k: KnowledgeVector, answers: Optional[Answers]
    ) -> QRows:
        """Every action's ``(action, cost, row)`` at non-goal ``(sid, kid)``,
        given the hooks' ``answers`` there."""
        unknown = self.model.full_mask & ~(k.yes | k.no)
        ids, shared, here = self._ids, self._shared, kid * self._nb
        add, table = self._add, self.table
        base_rows, base_costs = table.rows, table.costs
        pair = first = sid * len(self.actions)
        out = []
        for a in self.actions:
            rows, c = (None, None) if answers is None else answers[pair - first]
            if rows is not None:
                succ = self._fold(kid, unknown, table.checked(rows, s, a, k))
            else:
                row, merged, mask = base_rows[pair]
                if mask & unknown:
                    succ = self._fold(kid, unknown, row)
                else:  # nothing still unknown revealed: the merged row's ids
                    succ = []
                    for sid2, p in merged:
                        j = ids[here + sid2]
                        succ.append((add(sid2, kid) if j < 0 else shared[j], p))
                    succ = tuple(succ)
            c = base_costs[pair] if c is None else checked_cost(c, s, a, k)
            if table.exit_cost is not None:  # charged where the model terminates
                for j, p in succ:
                    sid2 = self._sids[j]
                    if table.terminal[sid2] or self._yes[self._kids[j]] & table.goal_bit[sid2]:
                        c += p * table.exit_cost[sid2]
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

    Value iteration sums each row in this stored order, where summing it
    with columns sorted and repeats merged would give the same bits: a row
    of at most two distinct columns adds up the same in either order.  The
    rows where the order can matter, those of three or more entries with
    columns out of order and those with a repeated column, it sums again
    from a sorted copy of just those rows (``solvers._sorted_rows``).
    """

    goal: "np.ndarray" = field(repr=False)
    cost: "np.ndarray" = field(repr=False)
    transitions: "sparse.csr_matrix" = field(repr=False)

    def __len__(self) -> int:
        return len(self.goal)


def compile_gussp(model: GusspModel) -> CompiledSsp:
    """Compile a model, rejecting obviously improper ones up front.

    For models whose goals are literal base states with the default
    termination rule and no knowledge hooks, every base state reachable from
    the start must reach every potential goal with positive prior mass;
    otherwise some knowledge vector would strand the agent.  The check runs
    once per model; every call returns its oracle or raises its
    :class:`ImproperModel` again.  The eager :func:`enumerate_reachable`
    re-checks properness exactly.  Build ``CompiledSsp(model)`` directly to
    skip the up-front check."""
    ssp = CompiledSsp(model)
    if (
        model.terminal_test is None
        and model.knowledge_effects is None
        and model.goal_membership is None
    ):
        # only meaningful when goals are literal places on the base graph; projected
        # goals (time labels, factored cells) need not stay mutually reachable
        table = model.base_table
        checked = table.properness
        if checked is None:
            checked = table.properness = _check_base_properness(model)
        if isinstance(checked, str):
            raise ImproperModel(checked)
        ssp.distance_oracle = checked
    return ssp


def _check_base_properness(model: GusspModel) -> Union[DistanceOracle, str]:
    """A forward walk over the base table's successor unions, then one
    distance-oracle build: a base state reaches goal ``i`` exactly when its
    oracle distance to ``i`` is finite, as the oracle searches backward over
    the same ``p > 0`` outcomes.  Returns the message naming the first
    stranded state in walk order, or the oracle."""
    table = model.base_table
    walk = [table.sid[model.start_state]]
    seen = set(walk)
    for sid in walk:  # breadth first: the list grows as the loop reads it
        for sid2 in table.unions[sid][0]:
            if sid2 not in seen:
                seen.add(sid2)
                walk.append(sid2)

    oracle = build_distance_oracle(model)
    all_unknown = model.knowledge_all_unknown()
    goals = [i for i in range(model.n_goals) if model.prior.marginal(all_unknown, i) > 0.0]
    for sid in walk:
        s = table.states[sid]
        for i in goals:
            if oracle.dist(s, i) == INF:
                return f"state {s!r} cannot reach potential goal {model.potential_goals[i]!r}"
    return oracle


def enumerate_reachable(
    ssp: CompiledSsp,
    state_budget: int = DEFAULT_STATE_BUDGET,
    require_proper: bool = True,
) -> Reachable:
    """Breadth-first closure from the start state, written into CSR arrays.

    Every non-goal state is expanded once, and its rows go into the arrays
    of :class:`Reachable`; the lazy row cache is left alone.  Goal states
    are absorbing and not expanded.  The walk numbers new states in the
    order it meets them, so on an SSP no lazy solver has touched the start
    is id 0, and each breadth-first level is a run of ids, handled as one
    block.  A plain state (not a goal, no hook answers, no base row of its
    ``sid`` reveals a goal still unknown, no exit costs) has the
    merged base rows of its ``sid`` as rows and its ``sid``'s union as
    successors: one gather over the unions' CSR lists those of the whole
    level, and the ones not found yet are numbered in bulk, in order of
    first occurrence.  The level's other states go through ``ssp._rows`` in
    id order, each once the plain states before it are numbered, so every
    id is a state-by-state walk's.  Once the walk ends, one gather over the
    base table's CSR writes all plain rows; the others are written edge by
    edge as the walk expands them.

    Raises :class:`ValueError` if the SSP was numbered otherwise,
    :class:`StateBudgetExceeded` past ``state_budget`` states and, when
    ``require_proper``, :class:`ImproperModel` if some reachable state cannot
    reach a goal (:func:`_dead_states`, a numpy walk back from the goals).
    """
    import numpy as np
    from scipy import sparse

    if ssp.start_id != 0:
        raise ValueError(_OUT_OF_ORDER)
    model, n_actions, nb = ssp.model, len(ssp.actions), ssp._nb
    u_ptr, u_succ, u_mask = ssp.table.union_csr
    u_len = np.diff(u_ptr)
    site = np.frombuffer(ssp.table.hook_site, dtype=bool)
    unknown = array("q")  # per kid, the goals it leaves unknown
    plains = []  # per level: its plain ids, their sids and their kids
    # the explicitly written states: ids, then per row its length and cost,
    # then the entries of all their rows in order
    explicit, lens, cost = array("i"), array("i"), array("d")
    indices, data = array("i"), array("d")
    lo, n = 0, 1  # the level is lo:n as it starts; n: states found so far
    while lo < n:
        hi = n
        # views of slices, which are copies; kid * nb may pass 2**31
        sids = np.frombuffer(ssp._sids[lo:hi], dtype=np.intc)
        kids = np.frombuffer(ssp._kids[lo:hi], dtype=np.intc).astype(np.intp)
        open_ = ~np.array(ssp.goal_flags[lo:hi], dtype=bool)
        answers = {}
        for at in np.flatnonzero(open_ & site[sids]).tolist():
            sid, kid = ssp._sids[lo + at], ssp._kids[lo + at]
            got = ssp._answers(sid, ssp._base[sid], ssp._kvs[kid])
            if got is not None:
                answers[at] = got
        if ssp.table.exit_cost is None:
            unknown.extend(model.full_mask & ~(k.yes | k.no) for k in ssp._kvs[len(unknown):])
            plain = open_ & ((u_mask[sids] & np.frombuffer(unknown, dtype=np.int64)[kids]) == 0)
            if answers:
                plain[list(answers)] = False
        else:
            plain = np.zeros_like(open_)
        at_plain = np.flatnonzero(plain)
        psid, pkid = sids[at_plain], kids[at_plain]
        plains.append((at_plain + lo, psid, pkid))
        keys = owner = at_plain[:0]
        if at_plain.size:
            # the plain states' successors as kid * nb + sid, in walk order;
            # kept: those the walk has not found yet, at their first occurrence
            ln = u_len[psid]
            keys = np.repeat(pkid * nb, ln) + u_succ[_positions(u_ptr[psid], ln)]
            got = np.frombuffer(ssp._ids, dtype=np.intc)[keys]
            unfound = np.flatnonzero((got < 0) | (got >= hi))
            keys, owner = keys[unfound], np.repeat(at_plain, ln)[unfound]
            if keys.size:
                first, pos = np.empty(len(ssp._ids), dtype=np.intc), np.arange(len(keys))
                first[keys] = len(keys)
                np.minimum.at(first, keys, pos)
                once = first[keys] == pos
                keys, owner = keys[once], owner[once]

        rest = np.flatnonzero(open_ & ~plain)
        done = 0  # keys numbered so far
        for at, cut in zip(rest.tolist(), np.searchsorted(owner, rest).tolist()):
            if cut > done:
                n, done = _number(ssp, keys[done:cut], n, state_budget), cut
            i = lo + at
            sid, kid = ssp._sids[i], ssp._kids[i]
            explicit.append(i)
            ids = []
            for _a, c, succ in ssp._rows(sid, kid, ssp._base[sid], ssp._kvs[kid], answers.get(at)):
                cost.append(c)
                lens.append(len(succ))
                for j, p in succ:
                    ids.append(j)
                    data.append(p)
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
        if done < len(keys):
            n = _number(ssp, keys[done:], n, state_budget)
        lo = hi

    row_len = np.zeros((n, n_actions), dtype=np.intc)
    row_cost = np.zeros((n, n_actions))
    explicit = np.frombuffer(explicit, dtype=np.intc)
    row_len[explicit] = np.frombuffer(lens, dtype=np.intc).reshape(-1, n_actions)
    row_cost[explicit] = np.frombuffer(cost, dtype=float).reshape(-1, n_actions)
    plain, psid, pkid = (np.concatenate(part) for part in zip(*plains))
    b_ptr, b_succ, b_prob, b_cost = ssp.table.csr
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
    p_len = starts[plain + 1] - starts[plain]
    for blocks, dst, src in _block_copies(starts[plain], b_ptr[psid * n_actions], p_len):
        # the table view is made per chunk, so none outlives the walk
        out_indices[dst] = np.frombuffer(ssp._ids, dtype=np.intc)[
            np.repeat(pkid[blocks] * nb, p_len[blocks]) + b_succ[src]
        ]
        out_data[dst] = b_prob[src]

    goal_mask = np.array(ssp.goal_flags[:n], dtype=bool)
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


def _number(ssp: CompiledSsp, keys: "np.ndarray", n: int, state_budget: int) -> int:
    """Number the states of ``keys`` (distinct ``kid * len(base) + sid``)
    that the walk has not found among its first ``n``, in order, as the
    next ids, and return the new count.  States interned ahead of the walk
    must come first, in the order the walk finds them; each error is
    raised where a state-by-state walk would raise it."""
    import numpy as np

    got = np.frombuffer(ssp._ids, dtype=np.intc)[keys]
    unfound = (got < 0) | (got >= n)
    keys, got = keys[unfound], got[unfound]
    m, early = len(keys), len(ssp) - n
    if early:
        want = np.arange(n, n + m)
        want[early:] = -1
        bad = np.flatnonzero(got != want)
        if bad.size and bad[0] <= state_budget - n:
            raise ValueError(_OUT_OF_ORDER)
    if n + m > state_budget:
        raise StateBudgetExceeded(f"more than {state_budget} reachable compiled states")
    ssp._add_all(keys[early:])
    return n + m


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
    """``starts[b]:starts[b] + lens[b]`` for every block ``b``,
    concatenated, as ``np.intc``."""
    import numpy as np

    first = np.cumsum(lens, dtype=np.intc) - lens  # each block's offset in the result
    total = int(first[-1] + lens[-1]) if len(lens) else 0
    return np.repeat(starts - first, lens) + np.arange(total, dtype=np.intc)


def _dead_states(transitions: "sparse.csr_matrix", goal: "np.ndarray", n_actions: int):
    """Sorted ids of the states that cannot reach a goal: a level-by-level
    numpy walk back from the goals over the transposed pattern of the
    matrix, whose row ``j`` holds the states ``r`` with an action that can
    move to ``j``.  State ``r``'s entries are those of its rows, so the
    pattern is the matrix's indices over every ``n_actions``-th ``indptr``,
    with ``bool`` data.  Each level reads only the frontier's slices of the
    transposed pattern and touches only the states it finds, so a deep
    graph costs its edges, not its number of states per level."""
    import numpy as np
    from scipy import sparse

    n = len(goal)
    pattern = sparse.csr_matrix(
        (np.ones(transitions.nnz, dtype=bool), transitions.indices,
         transitions.indptr[::n_actions]), shape=(n, n))
    back = pattern.T.tocsr()
    del pattern
    ptr, into = back.indptr, back.indices
    can_finish = goal.copy()
    last = np.empty(n, dtype=np.intc)  # per state, where it last sits in ``rows``
    frontier = np.flatnonzero(can_finish)
    while frontier.size:
        lo = ptr[frontier]
        rows = into[_positions(lo, ptr[frontier + 1] - lo)]
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
