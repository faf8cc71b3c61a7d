"""Compilation of a goal-uncertain model into a finite SSP.

A compiled state pairs a base state with a knowledge vector.  Revelation is
folded into the transition itself: each base outcome is split by the
observation pattern its arrival produces, weighted by the posterior
probability of that pattern given the current knowledge.  Goal states are
absorbing with zero cost; a one-time terminal cost (if the model defines
one) is folded into the expected cost of actions that can terminate.

The compiled problem is generated lazily so heuristic-search solvers can
work on instances far too large to enumerate.  :func:`enumerate_reachable`
is the eager path used by value iteration, oracles, and debug dumps: its
breadth-first walk writes a CSR transition matrix over (state, action)
rows, a cost array and a goal mask straight into :class:`Reachable`,
without filling the lazy caches.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, TextIO, Tuple

from .errors import ImproperModel, ModelError, StateBudgetExceeded
from .model import Action, GusspModel, KnowledgeVector, State, PROB_TOL

if TYPE_CHECKING:
    import numpy as np
    from scipy import sparse

DEFAULT_STATE_BUDGET = 10_000_000


@dataclass(frozen=True, slots=True)
class CompiledState:
    s: State
    k: KnowledgeVector

    def __str__(self) -> str:
        return f"({self.s!r}, {self.k})"


Row = Tuple[Tuple[int, float], ...]


class LazySsp:
    """Memoised ``successors``/``cost`` over a subclass's uncached ``expand``.

    ``expand(i, a)`` returns the successor row and the expected cost of
    ``a`` at ``i`` in one pass; both are cached on the first request for
    either.  :func:`enumerate_reachable` calls ``expand`` directly.
    """

    def __init__(self, actions: Tuple[Action, ...]):
        self.actions = actions
        self._goal_flags: List[bool] = []
        self._succ_cache: Dict[Tuple[int, Action], Row] = {}
        self._cost_cache: Dict[Tuple[int, Action], float] = {}

    def expand(self, i: int, a: Action) -> Tuple[Row, float]:
        raise NotImplementedError

    def is_goal(self, i: int) -> bool:
        return self._goal_flags[i]

    def successors(self, i: int, a: Action) -> Row:
        key = (i, a)
        cached = self._succ_cache.get(key)
        if cached is not None:
            return cached
        out, self._cost_cache[key] = self.expand(i, a)
        self._succ_cache[key] = out
        return out

    def cost(self, i: int, a: Action) -> float:
        key = (i, a)
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        self._succ_cache[key], c = self.expand(i, a)
        self._cost_cache[key] = c
        return c


class CompiledSsp(LazySsp):
    """Lazy finite SSP over (base state, knowledge vector) pairs.

    Base states are numbered once, in ``model.base_states`` order (``sid``),
    and knowledge vectors as they are first met (``kid``, keyed on their
    ``yes`` and ``no`` masks).  A compiled state is keyed by the single int
    ``sid + n_base * kid`` and interned to a dense id in discovery order.
    Base rows ``model.transition(s, a)`` are memoised per ``(sid, a)`` and
    shared by every knowledge vector; the ``knowledge_effects`` hook is
    still called on every expansion and wins when it answers.  Instances
    are not thread-safe: every solve compiles its own.
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
        self._ids: Dict[int, int] = {}
        self._sids: List[int] = []
        self._kids: List[int] = []
        # per action, per sid: the base row as ((sid', p), ...), once met
        self._rows = {a: [None] * self._n_base for a in self.actions}
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
        return kid

    def _add(self, sid: int, kid: int) -> int:
        i = self._ids[sid + self._n_base * kid] = len(self._sids)
        self._sids.append(sid)
        self._kids.append(kid)
        self._goal_flags.append(self.model.is_terminal(self._base[sid], self._kvs[kid]))
        return i

    def intern(self, s: State, k: KnowledgeVector) -> int:
        sid = self._sid.get(s)
        if sid is None:
            raise ModelError(f"{s!r} is not a base state")
        kid = self._kid_of(k)
        i = self._ids.get(sid + self._n_base * kid)
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
        for mask, p in self.model.prior.posterior(k).items():
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

    def expand(self, i: int, a: Action) -> Tuple[Row, float]:
        goal_flags = self._goal_flags
        if goal_flags[i]:
            return ((i, 1.0),), 0.0
        sid, kid = self._sids[i], self._kids[i]
        s, k = self._base[sid], self._kvs[kid]
        model = self.model
        rows = None
        if model.knowledge_effects is not None:
            rows = model.knowledge_effects(s, a, k)
        if rows is None:
            memo = self._rows[a]
            row = memo[sid]
            if row is None:
                row = memo[sid] = self._sid_row(model.transition(s, a), s, k, a)
        else:
            row = self._sid_row(rows, s, k, a)
        ids, add, branches = self._ids, self._add, self._revelation_branches
        n, reveal, unknown = self._n_base, self._reveal, model.full_mask & ~(k.yes | k.no)
        here = n * kid
        acc: Dict[int, float] = {}
        for sid2, p in row:
            revealed = reveal[sid2] & unknown
            if not revealed:  # p * 1.0 == p: the knowledge vector stays put
                j = ids.get(sid2 + here)
                if j is None:
                    j = add(sid2, kid)
                acc[j] = acc.get(j, 0.0) + p
                continue
            for kid2, q in branches(kid, revealed):
                j = ids.get(sid2 + n * kid2)
                if j is None:
                    j = add(sid2, kid2)
                acc[j] = acc.get(j, 0.0) + p * q
        out = tuple(acc.items())
        c = model.step_cost(s, a, k)
        if model.terminal_cost is not None:
            for j, p in out:
                if goal_flags[j]:
                    c += p * model.exit_cost(self._base[self._sids[j]])
        return out, c


@dataclass
class Reachable:
    """Closed reachable set of a compiled problem, as arrays over its rows.

    Row ``r`` is state ``ids[r]``; rows are in breadth-first discovery order.
    With ``A = len(ssp.actions)``, row ``r * A + a`` of the CSR matrix
    ``transitions`` (shape ``(n * A, n)``) and of ``cost`` is the ``a``-th
    action at row ``r``: its successors as rows, in ``ssp.successors``
    order (so indices are not sorted), and ``ssp.cost``.  Goal rows have no
    successors and cost zero; ``goal`` marks them.
    """

    ids: List[int]
    goal_ids: FrozenSet[int]
    goal: "np.ndarray" = field(repr=False)
    cost: "np.ndarray" = field(repr=False)
    transitions: "sparse.csr_matrix" = field(repr=False)

    def __len__(self) -> int:
        return len(self.ids)


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

    Every non-goal (state, action) pair is expanded once through
    ``ssp.expand``, and its row goes straight into the arrays of
    :class:`Reachable`; the lazy caches are left alone.  Goal states are
    absorbing and not expanded.  Raises :class:`StateBudgetExceeded` past
    ``state_budget`` states and, when ``require_proper``,
    :class:`ImproperModel` if some reachable state cannot reach a goal.
    """
    import numpy as np
    from scipy import sparse

    actions = ssp.actions
    ids = [ssp.start_id]
    row_of = {ssp.start_id: 0}
    goal = bytearray()
    indptr, indices, data, cost = array("i", [0]), array("i"), array("d"), array("d")
    expand, is_goal, row = ssp.expand, ssp.is_goal, row_of.get
    add_r, add_p = indices.append, data.append
    for i in ids:  # ids grows while it is walked: it is the BFS queue
        g = is_goal(i)
        goal.append(g)
        for a in actions:
            succ, c = ((), 0.0) if g else expand(i, a)
            cost.append(c)
            for j, p in succ:
                r = row(j)
                if r is None:
                    r = row_of[j] = len(ids)
                    ids.append(j)
                    if r >= state_budget:
                        raise StateBudgetExceeded(
                            f"more than {state_budget} reachable compiled states"
                        )
                add_r(r)
                add_p(p)
            indptr.append(len(indices))

    n = len(ids)
    goal_mask = np.frombuffer(goal, dtype=bool)
    transitions = sparse.csr_matrix(
        (np.frombuffer(data, dtype=float), np.frombuffer(indices, dtype=np.intc),
         np.frombuffer(indptr, dtype=np.intc)),
        shape=(n * len(actions), n),
    )

    if require_proper:
        # walk back from the goals; column c of the transpose is the pair
        # (row c // A, action c % A)
        back = transitions.T.tocsr()
        ptr, nbr = back.indptr.tolist(), (back.indices // len(actions)).tolist()
        can_finish = goal_mask.tolist()
        stack = [r for r in range(n) if can_finish[r]]
        while stack:
            j = stack.pop()
            for r in nbr[ptr[j]:ptr[j + 1]]:
                if not can_finish[r]:
                    can_finish[r] = True
                    stack.append(r)
        dead = [ids[r] for r in range(n) if not can_finish[r]]
        if dead:
            raise ImproperModel(
                f"{len(dead)} reachable states cannot reach a goal, "
                f"e.g. {ssp.state(dead[0])}"
            )

    return Reachable(
        ids=ids,
        goal_ids=frozenset(i for i, g in zip(ids, goal) if g),
        goal=goal_mask,
        cost=np.frombuffer(cost, dtype=float),
        transitions=transitions,
    )


def dump_compiled(
    ssp: CompiledSsp,
    stream: TextIO,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> None:
    """Write the reachable compiled graph, one state per line.

    Format: ``state_id  s  k  [a->(state_id,p),...]`` with actions in model
    order, omitted for goal states.
    """
    for i in enumerate_reachable(ssp, state_budget=state_budget).ids:
        x = ssp.state(i)
        if ssp.is_goal(i):
            stream.write(f"{i}  {x.s!r}  {x.k}  goal\n")
            continue
        parts = []
        for a in ssp.actions:
            succ = ",".join(f"({j},{p:.9g})" for j, p in ssp.successors(i, a))
            parts.append(f"{a}->{succ}")
        stream.write(f"{i}  {x.s!r}  {x.k}  [{'; '.join(parts)}]\n")
