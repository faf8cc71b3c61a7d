"""Independent reference implementations used only by the tests.

These deliberately avoid the library's knowledge-vector compilation and
graph algorithms: beliefs are raw probability vectors over configuration
masks updated by Bayes' rule, and the arborescence oracle enumerates parent
assignments.  Agreement between these and the production code is the core
correctness evidence.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Tuple

from gussp.compiler import _OUT_OF_ORDER, DEFAULT_STATE_BUDGET, Reachable
from gussp.determinize import select_goal_cg, select_goal_mlg
from gussp.errors import NoEligibleGoal, StateBudgetExceeded
from gussp.harness_types import Episode, TraceRow
from gussp.model import (
    GusspModel, KnowledgeVector, Observation, Status, apply_observation, bits_of, observe,
)
from gussp.rng import derive_seed, sample_row

Belief = Tuple[Tuple[int, float], ...]  # ((config_mask, prob), ...), sorted

_ROUND = 12


def _normalize(masses: Dict[int, float]) -> Belief:
    total = sum(masses.values())
    assert total > 0, "belief update produced an impossible branch"
    items = [
        (g, round(p / total, _ROUND))
        for g, p in sorted(masses.items())
        if p / total > 10 ** (-_ROUND)
    ]
    return tuple(items)


def initial_belief(model: GusspModel) -> Belief:
    return _normalize(dict(model.prior.config_probs()))


def knowledge_from_belief(model: GusspModel, b: Belief) -> KnowledgeVector:
    """Reconstruct confirmed/unknown statuses from 0/1 belief marginals."""
    yes = no = 0
    for i in range(model.n_goals):
        bit = 1 << i
        m = sum(p for g, p in b if g & bit)
        if m >= 1.0 - 1e-9:
            yes |= bit
        elif m <= 1e-9:
            no |= bit
    return KnowledgeVector(model.n_goals, yes, no)


# -- the model read straight off its hooks ----------------------------------
#
# The library reads each hook once, into the model's base table.  These read
# the hooks on every call, so the oracles below check the table, not share it.


def transition_rows(model: GusspModel, s, a, k: Optional[KnowledgeVector] = None):
    """The row of ``(s, a)``: the ``knowledge_effects`` hook's answer at
    ``k``, or where it does not answer the base ``transition``."""
    if k is not None and model.knowledge_effects is not None:
        rows = model.knowledge_effects(s, a, k)
        if rows is not None:
            return rows
    return model.transition(s, a)


def step_cost(model: GusspModel, s, a, k: Optional[KnowledgeVector] = None) -> float:
    """The cost of ``(s, a)``: the ``knowledge_step_cost`` hook's answer at
    ``k``, or where it does not answer the base ``cost``."""
    if k is not None and model.knowledge_step_cost is not None:
        c = model.knowledge_step_cost(s, a, k)
        if c is not None:
            return c
    return model.cost(s, a)


def goal_index(model: GusspModel, s) -> Optional[int]:
    """The potential goal ``s`` instantiates: ``goal_membership(s)``, or by
    default the goal labelled ``s``."""
    if model.goal_membership is not None:
        return model.goal_membership(s)
    return model.potential_goals.index(s) if s in model.potential_goals else None


def is_terminal(model: GusspModel, s, k: KnowledgeVector) -> bool:
    """``terminal_test(s)``, or by default: ``s`` is a site of a goal
    confirmed true in ``k``."""
    if model.terminal_test is not None:
        return bool(model.terminal_test(s))
    i = goal_index(model, s)
    return i is not None and k.status_of(i) is Status.CONFIRMED_GOAL


def target_done(model: GusspModel, s, target: int) -> bool:
    """``det_target_done(s, target)``, or by default: ``s`` is a site of
    ``target``."""
    if model.det_target_done is not None:
        return bool(model.det_target_done(s, target))
    return goal_index(model, s) == target


def exit_cost(model: GusspModel, s) -> float:
    return 0.0 if model.terminal_cost is None else model.terminal_cost(s)


# -- raw-belief value iteration ----------------------------------------------


def _is_terminal(model: GusspModel, s, b: Belief) -> bool:
    return is_terminal(model, s, knowledge_from_belief(model, b))


def _expected_cost(model: GusspModel, s, a, b: Belief) -> float:
    return sum(
        p * step_cost(model, s, a, model.collapsed_knowledge(g)) for g, p in b
    )


def _successors(model: GusspModel, s, a, b: Belief):
    """Joint Bayes step: outcome likelihoods and arrival observations both
    condition the next belief.  Returns {(s2, b2): probability}."""
    joint: Dict[Tuple[object, int], Dict[int, float]] = {}
    for g, pb in b:
        k_true = model.collapsed_knowledge(g)
        for s2, p in transition_rows(model, s, a, k_true):
            if p <= 0.0:
                continue
            pattern = g & model.reveal_indices(s2)
            masses = joint.setdefault((s2, pattern), {})
            masses[g] = masses.get(g, 0.0) + pb * p
    out: Dict[Tuple[object, Belief], float] = {}
    for (s2, _pattern), masses in joint.items():
        z = sum(masses.values())
        b2 = _normalize(masses)
        key = (s2, b2)
        out[key] = out.get(key, 0.0) + z
    return out


def belief_space_values(
    model: GusspModel, *, epsilon: float = 1e-10, max_sweeps: int = 1_000_000
) -> Tuple[Dict[Tuple[object, Belief], float], float]:
    """Exact expected cost-to-go over the reachable raw-belief space.

    Enumerates (state, belief) pairs breadth-first, then runs Gauss-Seidel
    sweeps to convergence.  Returns the value map and the start value.
    """
    b0 = initial_belief(model)
    start = (model.start_state, b0)
    states: List[Tuple[object, Belief]] = []
    succ_rows: Dict[Tuple[object, Belief], List[Tuple[float, Dict]]] = {}
    terminal: Dict[Tuple[object, Belief], float] = {}
    seen = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        states.append(node)
        s, b = node
        if _is_terminal(model, s, b):
            terminal[node] = exit_cost(model, s)
            continue
        rows = []
        for a in model.actions:
            cost = _expected_cost(model, s, a, b)
            succ = _successors(model, s, a, b)
            rows.append((cost, succ))
            for nxt in succ:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        succ_rows[node] = rows

    values: Dict[Tuple[object, Belief], float] = {
        node: terminal.get(node, 0.0) for node in states
    }
    for _sweep in range(max_sweeps):
        residual = 0.0
        for node in reversed(states):
            if node in terminal:
                continue
            best = math.inf
            for cost, succ in succ_rows[node]:
                q = cost + sum(p * values[nxt] for nxt, p in succ.items())
                if q < best:
                    best = q
            residual = max(residual, abs(best - values[node]))
            values[node] = best
        if residual < epsilon:
            return values, values[start]
    raise AssertionError("belief-space value iteration did not converge")


def belief_space_start_value(model: GusspModel, **kw) -> float:
    return belief_space_values(model, **kw)[1]


# -- world step reference -----------------------------------------------------


def step_world_reference(model: GusspModel, s, a, g_mask: int, k_true: KnowledgeVector, rng):
    """One environment step read straight off the model: the cost and the
    row through ``step_cost`` and ``transition_rows`` at ``k_true``, one
    draw over the raw row, and the arrival observation."""
    paid = step_cost(model, s, a, k_true)
    rows = transition_rows(model, s, a, k_true)
    s2 = sample_row(list(rows), rng)
    return s2, paid, observe(model, s2, g_mask)


def run_episode_reference(model: GusspModel, g_mask: int, rng, act, *, step_budget: int,
                          collect_trace: bool) -> Episode:
    """The episode loop as one ``step_world_reference`` call, one
    ``Observation`` and one ``apply_observation`` fold per step."""
    s = model.start_state
    k = model.knowledge_all_unknown()
    k_true = model.collapsed_knowledge(g_mask)
    cost = 0.0
    steps = 0
    trace = [] if collect_trace else None
    while not is_terminal(model, s, k):
        if steps >= step_budget:
            return Episode(cost, steps, True, trace)
        a = act(s, k)
        s2, paid, obs = step_world_reference(model, s, a, g_mask, k_true, rng)
        if trace is not None:
            trace.append(TraceRow(steps, s, str(k), a, cost, str(obs)))
        cost += paid
        s, k = s2, apply_observation(k, obs)
        steps += 1
    cost += exit_cost(model, s)
    if trace is not None:
        trace.append(TraceRow(steps, s, str(k), None, cost, "-"))
    return Episode(cost, steps, False, trace)


def execute_determinized_reference(model: GusspModel, selector: str, g_mask: int, *,
                                   plan_cache, seed: int = 0, oracle=None,
                                   step_budget: int = 100_000) -> Episode:
    """The determinize-and-replan trial without a tie memo: the actor runs
    ``select_goal_mlg`` or ``select_goal_cg`` at every retarget and reads
    its plan by base state, through ``plan.policy``, inside
    ``run_episode_reference``."""
    rng = random.Random(derive_seed("det", selector, seed))
    plan = policy = None
    targets = 0

    def act(s, k):
        nonlocal plan, policy, targets
        if plan is None or k.no >> plan.target & 1 or target_done(model, s, plan.target):
            if selector == "mlg":
                target = select_goal_mlg(model, s, k, rng)
            else:
                target = select_goal_cg(model, s, k, oracle, rng)
            targets += 1
        else:
            a = policy.get(s)
            if a is not None:
                return a
            target = plan.target
        plan, _elapsed = plan_cache.plan_for(target, k)
        policy = plan.policy
        a = policy.get(s)
        if a is None:
            raise NoEligibleGoal(f"plan for target {target} has no action at {s!r}")
        return a

    episode = run_episode_reference(model, g_mask, rng, act, step_budget=step_budget,
                                    collect_trace=False)
    episode.replans = max(0, targets - 1)
    return episode


# -- arborescence reference ---------------------------------------------------

def brute_force_arborescence(
    n_vertices: int, weights: Dict[Tuple[int, int], float], root: int = 0
) -> Tuple[float, Dict[int, int]]:
    """Minimum spanning arborescence by enumerating parent assignments."""
    others = [v for v in range(n_vertices) if v != root]
    best_w = math.inf
    best_parent: Dict[int, int] = {}
    for parents in itertools.product(range(n_vertices), repeat=len(others)):
        parent = dict(zip(others, parents))
        if any((parent[v], v) not in weights for v in others):
            continue
        ok = True
        for v in others:
            hops = 0
            x = v
            while x != root:
                x = parent[x]
                hops += 1
                if hops > n_vertices:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        w = sum(weights[(parent[v], v)] for v in others)
        if w < best_w:
            best_w = w
            best_parent = dict(parent)
    return best_w, best_parent


# -- goal-prior queries, as loops over every configuration -------------------
#
# The library answers these by walking only the configurations consistent
# with a knowledge vector.  These are the plain loops it replaced; the tests
# require exactly equal floats, so each keeps the original order of every sum.


def bernoulli_reference(marginals) -> Dict[int, float]:
    """Independent goals conditioned on a nonempty set: each mask's product
    of ``p_i`` or ``1 - p_i`` over i = 0, 1, ..., divided by the chance of a
    nonempty set; masks of zero product are left out."""
    n = len(marginals)
    none = 1.0
    for p in marginals:
        none *= 1.0 - p
    norm = 1.0 - none
    probs = {}
    for mask in range(1, 1 << n):
        w = 1.0
        for i in range(n):
            w *= marginals[i] if mask & (1 << i) else 1.0 - marginals[i]
        if w > 0:
            probs[mask] = w / norm
    return probs


def posterior_reference(prior, k: KnowledgeVector) -> Dict[int, float]:
    """Filter all configurations, then divide by their mass (insertion order
    is mask order)."""
    sel = {
        m: p
        for m, p in prior.config_probs().items()
        if (m & k.yes) == k.yes and not (m & k.no)
    }
    total = sum(sel.values())
    return {m: p / total for m, p in sel.items()}


def hpg_multipliers_reference(prior, k: KnowledgeVector) -> List[float]:
    """``m_i = min over consistent g holding i of (1 - b(g))``, ``inf`` when
    no consistent configuration holds goal ``i``."""
    mult = [math.inf] * prior.n
    for mask, p in posterior_reference(prior, k).items():
        weight = 1.0 - p
        for i in range(prior.n):
            if mask >> i & 1 and weight < mult[i]:
                mult[i] = weight
    return mult


def revelation_reference(
    prior, k: KnowledgeVector, revealed: int
) -> List[Tuple[KnowledgeVector, float]]:
    """Posterior mass of each pattern the goals in ``revealed`` can show,
    by pattern, as (updated knowledge vector, probability)."""
    patterns: Dict[int, float] = {}
    for mask, p in posterior_reference(prior, k).items():
        pat = mask & revealed
        patterns[pat] = patterns.get(pat, 0.0) + p
    return [
        (k.confirm(yes=pat, no=revealed & ~pat), prob)
        for pat, prob in sorted(patterns.items())
        if prob > 0.0
    ]


def marginal_reference(prior, k: KnowledgeVector, i: int) -> float:
    bit = 1 << i
    if k.yes & bit:
        return 1.0
    if k.no & bit:
        return 0.0
    return sum(p for m, p in posterior_reference(prior, k).items() if m & bit)


def sample_config_reference(prior, u: float) -> int:
    """The first configuration whose running mass exceeds ``u``, else the last."""
    acc = 0.0
    items = prior.config_probs()
    for mask, p in items.items():
        acc += p
        if u < acc:
            return mask
    return next(reversed(items))


# -- knowledge-vector and observation helpers --------------------------------
#
# Spelled-out forms of the bitmask tests the library inlines, kept for the
# model tests' readability.


def statuses(k: KnowledgeVector) -> Tuple[Status, ...]:
    return tuple(k.status_of(i) for i in range(k.n))


def is_consistent_with(k: KnowledgeVector, config_mask: int) -> bool:
    """Could ``config_mask`` be the true configuration given ``k``?"""
    return (config_mask & k.yes) == k.yes and not (config_mask & k.no)


def observation_from_pairs(revealed: Dict[int, bool]) -> Observation:
    yes = no = 0
    for i, truth in revealed.items():
        if truth:
            yes |= 1 << i
        else:
            no |= 1 << i
    return Observation(yes, no)


def config_labels(model: GusspModel, mask: int) -> FrozenSet:
    return frozenset(model.potential_goals[i] for i in bits_of(mask))


# -- properness: the Python list walk the compiler replaced ------------------


def dead_states_reference(transitions, goal, n_actions: int) -> List[int]:
    """Ids of the states that cannot reach a goal, by a depth-first walk
    back from the goals over Python lists of the transposed matrix; column
    ``c`` of the transpose is the pair (state ``c // n_actions``, action
    ``c % n_actions``)."""
    back = transitions.T.tocsr()
    ptr, nbr = back.indptr.tolist(), (back.indices // n_actions).tolist()
    can_finish = goal.tolist()
    stack = [r for r in range(len(can_finish)) if can_finish[r]]
    while stack:
        j = stack.pop()
        for r in nbr[ptr[j]:ptr[j + 1]]:
            if not can_finish[r]:
                can_finish[r] = True
                stack.append(r)
    return [r for r in range(len(can_finish)) if not can_finish[r]]


# -- value iteration: the sweep over an action-major, column-sorted copy -----


def vi_sweeps_reference(reachable: Reachable, epsilon: float = 1e-6,
                        max_sweeps: int = 100_000):
    """Value iteration's sweeps and greedy rows as they were before the
    sweeps read the matrix in place: each sweep multiplies an action-major
    copy of the matrix whose rows ``sum_duplicates`` sorted and merged, and
    the greedy fold runs over every row at once.  Returns the values, the
    sweep count and the argmin action of every state, goals included."""
    import numpy as np

    n = len(reachable)
    order = np.arange(len(reachable.cost)).reshape(n, -1).T.ravel()
    m = reachable.transitions[order]
    m.sum_duplicates()
    c = reachable.cost[order]
    v = np.zeros(n)
    for sweeps in range(1, max_sweeps + 1):
        q = m.dot(v)
        q += c
        q = q.reshape(-1, n).min(axis=0)
        q[reachable.goal] = 0.0
        residual = float(np.max(np.abs(q - v)))
        v = q
        if residual < epsilon:
            break
    else:
        raise AssertionError(f"no convergence to {epsilon} in {max_sweeps} sweeps")

    t = reachable.transitions
    q = reachable.cost.copy()
    starts, lengths = t.indptr[:-1], np.diff(t.indptr)
    for pos in range(int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > pos)
        at = starts[rows] + pos
        q[rows] += t.data[at] * v[t.indices[at]]
    return v, sweeps, q.reshape(n, -1).argmin(axis=1)


# -- enumeration: the state-by-state walk the level walk replaced ------------


def enumerate_reachable_reference(ssp, state_budget: int = DEFAULT_STATE_BUDGET) -> Reachable:
    """``enumerate_reachable`` one state at a time, without its properness
    check: a breadth-first walk that takes ids ``0, 1, 2, ...`` as its queue,
    expands each non-goal state through ``ssp.expand`` and writes its rows
    edge by edge, raising the same errors at the same ids."""
    import numpy as np
    from scipy import sparse

    if ssp.start_id != 0:
        raise ValueError(_OUT_OF_ORDER)
    n_actions = len(ssp.actions)
    lens, costs, indices, data = [], [], [], []
    i, n = 0, 1  # n: states found so far
    while i < n:
        if ssp.is_goal(i):
            lens += [0] * n_actions
            costs += [0.0] * n_actions
        else:
            for _a, c, succ in ssp.expand(i):
                lens.append(len(succ))
                costs.append(c)
                for j, p in succ:
                    indices.append(j)
                    data.append(p)
                    if j < n:
                        continue
                    if j != n:
                        raise ValueError(_OUT_OF_ORDER)
                    if n >= state_budget:
                        raise StateBudgetExceeded(
                            f"more than {state_budget} reachable compiled states")
                    n += 1
        i += 1
    indptr = np.zeros(len(lens) + 1, dtype=np.intc)
    np.cumsum(lens, dtype=np.intc, out=indptr[1:])
    transitions = sparse.csr_matrix(
        (np.array(data, dtype=float), np.array(indices, dtype=np.intc), indptr),
        shape=(n * n_actions, n),
    )
    goal = np.array([ssp.is_goal(j) for j in range(n)], dtype=bool)
    return Reachable(goal=goal, cost=np.array(costs, dtype=float), transitions=transitions)


# -- exact policy evaluation --------------------------------------------------


def policy_value(ssp, policy) -> Dict[int, float]:
    """The exact expected cost of following ``policy`` from the start: the
    non-goal states of its closure over ``ssp.successors``, each with its
    value ``V^pi``, solving ``(I - P_pi) V = c_pi`` with ``spsolve``.  Goal
    states are worth zero and left out; a closure state without an action
    is an ``AssertionError``."""
    import numpy as np
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    order: List[int] = []
    at: Dict[int, int] = {}
    stack = [ssp.start_id]
    while stack:
        i = stack.pop()
        if i in at or ssp.is_goal(i):
            continue
        assert i in policy, f"state {i} of the policy's closure has no action"
        at[i] = len(order)
        order.append(i)
        stack.extend(j for j, _p in ssp.successors(i, policy[i]))
    n = len(order)
    if not n:
        return {}
    rows, cols, data = list(range(n)), list(range(n)), [1.0] * n
    cost = np.empty(n)
    for r, i in enumerate(order):
        cost[r] = ssp.cost(i, policy[i])
        for j, p in ssp.successors(i, policy[i]):
            if j in at:
                rows.append(r)
                cols.append(at[j])
                data.append(-p)
    system = sparse.csc_matrix((data, (rows, cols)), shape=(n, n))
    v = np.atleast_1d(spsolve(system, cost))
    return dict(zip(order, v.tolist()))
