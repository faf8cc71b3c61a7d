"""Determinize-and-replan executors.

Instead of planning in the compiled belief space, these baselines commit to
a single target goal, plan for it as if it were certainly true, and execute
that plan until the target is disconfirmed (or achieved without finishing
the task).  Two selection rules are provided: ``mlg`` picks the target with
the maximum posterior marginal, ``cg`` the closest target by base-model
distance.  Replanning is triggered only by disconfirmation of the current
target; observations gathered en route simply sharpen the next selection.
Each plan is the compiled problem itself, ``CompiledSsp(model, k_assumed,
target)``, solved exactly and kept as base-state-keyed tables.
``execute_determinized`` is an ``act(s, k)`` closure over
``harness_types.run_episode``, the loop that also runs solved policies.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .compiler import CompiledSsp, enumerate_reachable
from .errors import ContradictoryObservation, NoEligibleGoal
# build_distance_oracle and lao_star go unused: perfbench/spans.py patches them here
from .heuristics import DistanceOracle, build_distance_oracle  # noqa: F401
from .model import Action, GusspModel, KnowledgeVector, State, Status
from .rng import derive_seed
from .solvers import lao_star, value_iteration  # noqa: F401
from .harness_types import Episode, run_episode


def _eligible(model: GusspModel, s: State, k: KnowledgeVector) -> List[Tuple[float, int]]:
    """``(marginal, i)`` for each goal ``i`` still possibly true (a ruled-out
    goal's marginal is 0.0) and not yet achieved at ``s``, in goal order."""
    marginal, done = model.prior.marginal, model.target_done
    out = []
    for i in range(model.n_goals):
        m = marginal(k, i)
        if m > 0.0 and not done(s, i):
            out.append((m, i))
    return out


def _tied_choice(candidates: List[Tuple[float, int]], rng: random.Random, best: float) -> int:
    ties = [i for v, i in candidates if abs(v - best) <= 1e-12 * max(1.0, abs(best))]
    if len(ties) == 1:
        return ties[0]
    return rng.choice(ties)


def select_goal_mlg(
    model: GusspModel,
    s: State,
    k: KnowledgeVector,
    rng: random.Random,
) -> int:
    """Most-likely-goal target: maximum posterior marginal, random on ties."""
    scored = _eligible(model, s, k)
    if not scored:
        raise NoEligibleGoal(f"no eligible target at knowledge {k}")
    best = max(v for v, _ in scored)
    return _tied_choice(scored, rng, best)


def select_goal_cg(
    model: GusspModel,
    s: State,
    k: KnowledgeVector,
    oracle: DistanceOracle,
    rng: random.Random,
) -> int:
    """Closest-goal target: minimum base distance among still-possible goals."""
    dist = [(oracle.dist(s, i), i) for _m, i in _eligible(model, s, k)]
    scored = [(d, i) for d, i in dist if d < math.inf]
    if not scored:
        raise NoEligibleGoal(f"no reachable eligible target at knowledge {k}")
    best = min(v for v, _ in scored)
    return _tied_choice(scored, rng, best)


@dataclass
class DeterminizedPlan:
    """A solved single-target plan, reusable across replans and trials.

    ``policy`` and ``value`` are keyed by base state: the plan's knowledge
    never changes, so each of its compiled states is one base state.
    ``policy`` covers every non-goal state reachable from the base start,
    so a walk that stays on the assumption never leaves it."""

    target: int
    policy: Dict[State, Action]
    value: Dict[State, float]


class PlanCache:
    """Plans keyed by the assumed goal set, shared within a trial batch.

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
    for it.  The cached plan keeps only its base-keyed tables."""

    def __init__(self, model: GusspModel, epsilon: float = 1e-6):
        self.model = model
        self.epsilon = epsilon
        self._plans: Dict[Tuple[int, int], DeterminizedPlan] = {}

    def __len__(self) -> int:
        """The number of plans built so far."""
        return len(self._plans)

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
            states = [ssp.state(i).s for i in range(len(ssp))]
            plan = self._plans[key] = DeterminizedPlan(
                target,
                policy={states[i]: a for i, a in result.policy.items()},
                value={states[i]: v for i, v in result.table.values.items()},
            )
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

    def act(s: State, k: KnowledgeVector) -> Action:
        nonlocal plan, targets, plan_time
        if plan is None or (
            k.status_of(plan.target) is Status.CONFIRMED_NOT_GOAL
            or model.target_done(s, plan.target)
        ):
            if selector == "mlg":
                target = select_goal_mlg(model, s, k, rng)
            else:
                target = select_goal_cg(model, s, k, oracle, rng)
            targets += 1
        else:
            a = plan.policy.get(s)
            if a is not None:
                return a
            # off the plan: re-plan this target under the current knowledge;
            # if that plan has no action here either, NoEligibleGoal below
            target = plan.target
        plan, elapsed = plan_cache.plan_for(target, k)
        plan_time += elapsed
        a = plan.policy.get(s)
        if a is None:
            raise NoEligibleGoal(f"plan for target {target} has no action at {s!r}")
        return a

    episode = run_episode(
        model, g_mask, rng, act, step_budget=step_budget, collect_trace=collect_trace,
    )
    episode.replans = max(0, targets - 1)
    episode.plan_time = plan_time
    return episode
