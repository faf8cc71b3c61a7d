"""Determinize-and-replan executors.

Instead of planning in the compiled belief space, these baselines commit to
a single target goal, plan for it as if it were certainly true, and execute
that plan until the target is disconfirmed (or achieved without finishing
the task).  Two selection rules are provided: ``mlg`` picks the target with
the maximum posterior marginal, ``cg`` the closest target by base-model
distance.  Replanning is triggered only by disconfirmation of the current
target; observations gathered en route simply sharpen the next selection.
Each plan is the compiled problem itself, ``CompiledSsp(model, k_assumed,
target)``, solved exactly and kept as tables indexed by the base table's
``sid``; all plans read the model's one base table, so only the first reads
base rows.  ``execute_determinized`` is an ``act(s, k)`` closure over
``harness_types.run_episode``, the loop that also runs solved policies: it
reads ``sid`` once per step, indexes its plan's actions and the table's
``done`` masks by it, and at a retarget draws from the tie list its
``PlanCache`` keeps per selector and ``(k.yes, k.no, sid)``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .compiler import CompiledSsp, enumerate_reachable
from .errors import ContradictoryObservation, NoEligibleGoal
# build_distance_oracle and lao_star go unused: perfbench/spans.py patches them here
from .heuristics import DistanceOracle, build_distance_oracle  # noqa: F401
from .model import Action, GusspModel, KnowledgeVector, State
from .rng import derive_seed
from .solvers import lao_star, value_iteration  # noqa: F401
from .harness_types import Episode, run_episode


def _target_ties(
    model: GusspModel, s: State, k: KnowledgeVector, oracle: Optional[DistanceOracle],
) -> Tuple[int, ...]:
    """The goals tied for the target at ``(s, k)``, in goal order, among those
    still possibly true (a ruled-out goal's marginal is 0.0) and not yet
    achieved at ``s``: by maximum marginal without ``oracle`` (mlg), by
    minimum finite distance with it (cg).  Raises :class:`NoEligibleGoal`
    when there is none."""
    marginal, done = model.prior.marginal, model.base_table.done[model.base_table.sid[s]]
    scored = []
    for i in range(model.n_goals):
        m = marginal(k, i)
        if m > 0.0 and not done >> i & 1:
            v = m if oracle is None else oracle.dist(s, i)
            if v < math.inf:
                scored.append((v, i))
    if not scored:
        reachable = "" if oracle is None else "reachable "
        raise NoEligibleGoal(f"no {reachable}eligible target at knowledge {k}")
    best = (max if oracle is None else min)(v for v, _ in scored)
    return tuple(i for v, i in scored if abs(v - best) <= 1e-12 * max(1.0, abs(best)))


def _draw(ties: Tuple[int, ...], rng: random.Random) -> int:
    """The one tie, or a uniform draw from ``rng`` among two or more."""
    return ties[0] if len(ties) == 1 else rng.choice(ties)


def select_goal_mlg(
    model: GusspModel,
    s: State,
    k: KnowledgeVector,
    rng: random.Random,
) -> int:
    """Most-likely-goal target: maximum posterior marginal, random on ties."""
    return _draw(_target_ties(model, s, k, None), rng)


def select_goal_cg(
    model: GusspModel,
    s: State,
    k: KnowledgeVector,
    oracle: DistanceOracle,
    rng: random.Random,
) -> int:
    """Closest-goal target: minimum base distance among still-possible goals."""
    return _draw(_target_ties(model, s, k, oracle), rng)


@dataclass
class DeterminizedPlan:
    """A solved single-target plan, reusable across replans and trials.

    ``actions`` and ``values`` are indexed by ``sid``, the base table's
    state number: the plan's knowledge never changes, so each of its
    compiled states is one base state.  ``actions[sid]`` is None at the
    plan's goals and at states it never reaches; every other state
    reachable from the base start has an action, so a walk that stays on
    the assumption never leaves the plan.  ``policy`` and ``value`` are the
    same tables keyed by base state, built on each read."""

    target: int
    actions: List[Optional[Action]]
    values: List[Optional[float]]
    states: Sequence[State] = field(repr=False)

    @property
    def policy(self) -> Dict[State, Action]:
        return {self.states[sid]: a for sid, a in enumerate(self.actions) if a is not None}

    @property
    def value(self) -> Dict[State, float]:
        return {self.states[sid]: v for sid, v in enumerate(self.values) if v is not None}


class PlanCache:
    """Plans keyed by the assumed goal set, and target ties, shared within a
    trial batch.

    Inside a determinized plan every unresolved site is already treated as
    a non-goal (that is the point of assuming one target), so two knowledge
    vectors that confirm the same set of true sites produce the same
    planning problem.  The assumed vector is therefore canonicalized to
    "target plus confirmed sites true, everything else false", which lets
    runs that merely ruled out different decoys share one plan.

    Each plan is one exact solve of ``CompiledSsp(model, k_assumed,
    target)``: ``enumerate_reachable``, then value iteration.  An assumed
    problem with a reachable state that cannot finish raises
    ``ImproperModel``, naming that ``(s, k)`` pair, and no plan is cached
    for it.  The cached plan keeps only its ``sid``-indexed tables; the
    base rows stay in the model's table, shared with every other plan.

    A target choice depends only on the selector, ``k`` and the base
    state, so ``ties`` keeps each selector's tie list per ``(k.yes, k.no,
    sid)``; a retarget then draws from it as ``select_goal_mlg`` and
    ``select_goal_cg`` do.  Closest-goal ties hold for one distance oracle,
    the first one given."""

    def __init__(self, model: GusspModel, epsilon: float = 1e-6):
        self.model = model
        self.epsilon = epsilon
        self._plans: Dict[Tuple[int, int], DeterminizedPlan] = {}
        self._ties: Dict[str, Dict[Tuple[int, int, int], Tuple[int, ...]]] = {"mlg": {}, "cg": {}}
        self._oracle: Optional[DistanceOracle] = None

    def __len__(self) -> int:
        """The number of plans built so far."""
        return len(self._plans)

    def ties(
        self, selector: str, sid: int, k: KnowledgeVector,
        oracle: Optional[DistanceOracle] = None,
    ) -> Tuple[int, ...]:
        """The goals ``select_goal_<selector>`` draws its target from at base
        state ``sid`` under ``k``, found on first use.  A case with no
        eligible goal raises :class:`NoEligibleGoal` on every call; nothing
        is kept for it.  ``"cg"`` needs ``oracle``, equal on every call."""
        memo = self._ties[selector]
        if selector == "mlg":
            oracle = None
        elif oracle is None or self._oracle not in (None, oracle):
            raise ValueError("closest-goal ties need this cache's one distance oracle")
        else:
            self._oracle = oracle
        key = (k.yes, k.no, sid)
        ties = memo.get(key)
        if ties is None:
            ties = memo[key] = _target_ties(
                self.model, self.model.base_table.states[sid], k, oracle)
        return ties

    def plan_for(self, target: int, k: KnowledgeVector) -> Tuple[DeterminizedPlan, float]:
        """Return the plan for ``target`` under ``k``, solving it on first use.

        Raises :class:`ContradictoryObservation` when ``k`` rules ``target``
        out."""
        if k.no >> target & 1:
            raise ContradictoryObservation(f"target {target} is ruled out by {k}")
        yes = k.yes | 1 << target
        key = (target, yes)
        plan = self._plans.get(key)
        t0 = time.perf_counter()
        if plan is None:
            ssp = CompiledSsp(self.model, KnowledgeVector.collapsed(k.n, yes), target)
            result = value_iteration(
                ssp, reachable=enumerate_reachable(ssp), epsilon=self.epsilon
            )
            states, acts = self.model.base_table.states, ssp.actions
            actions: List[Optional[Action]] = [None] * len(states)
            values: List[Optional[float]] = [None] * len(states)
            # VI's arrays are indexed by compiled id, and ssp._sids holds each id's sid
            index, v = result.policy.index.tolist(), result.table.values.array.tolist()
            for sid, b, x in zip(ssp._sids, index, v):
                values[sid] = x
                if b >= 0:
                    actions[sid] = acts[b]
            plan = self._plans[key] = DeterminizedPlan(target, actions, values, states)
        return plan, time.perf_counter() - t0


def execute_determinized(
    model: GusspModel,
    selector: str,
    g_mask: int,
    *,
    plan_cache: PlanCache,
    seed: int = 0,
    oracle: Optional[DistanceOracle] = None,
    step_budget: int = 100_000,
    collect_trace: bool = False,
) -> Episode:
    """Run one determinize-and-replan trial under true configuration ``g_mask``.

    ``run_episode`` with an actor that keeps one target and its plan from
    ``plan_cache``, drawing target ties and world outcomes from one rng.
    ``selector`` is ``"mlg"`` or ``"cg"``; ``cg`` needs the distance
    ``oracle``.  Planning effort is timed separately from execution.
    """
    if selector not in ("mlg", "cg"):
        raise ValueError(f"unknown selector {selector!r}")
    if selector == "cg" and oracle is None:
        raise ValueError("selector 'cg' needs a distance oracle")
    rng = random.Random(derive_seed("det", selector, seed))
    plan: Optional[DeterminizedPlan] = None
    targets = 0
    plan_time = 0.0
    sid_of, done, ties = model.base_table.sid, model.base_table.done, plan_cache.ties

    def act(s: State, k: KnowledgeVector) -> Action:
        nonlocal plan, targets, plan_time
        sid = sid_of[s]
        if plan is None or k.no >> plan.target & 1 or done[sid] >> plan.target & 1:
            target = _draw(ties(selector, sid, k, oracle), rng)
            targets += 1
        else:
            a = plan.actions[sid]
            if a is not None:
                return a
            # off the plan: re-plan this target under the current knowledge;
            # if that plan has no action here either, NoEligibleGoal below
            target = plan.target
        plan, elapsed = plan_cache.plan_for(target, k)
        plan_time += elapsed
        a = plan.actions[sid]
        if a is None:
            raise NoEligibleGoal(f"plan for target {target} has no action at {s!r}")
        return a

    episode = run_episode(
        model, g_mask, rng, act, step_budget=step_budget, collect_trace=collect_trace,
    )
    episode.replans = max(0, targets - 1)
    episode.plan_time = plan_time
    return episode
