"""Determinize-and-replan executors.

Instead of planning in the compiled belief space, these baselines commit to
a single target goal, plan for it as if it were certainly true, and execute
that plan until the target is disconfirmed (or achieved without finishing
the task).  Two selection rules are provided: ``mlg`` picks the target with
the maximum posterior marginal, ``cg`` the closest target by base-model
distance.  Replanning is triggered only by disconfirmation of the current
target; observations gathered en route simply sharpen the next selection.
``execute_determinized`` is an ``act(s, k)`` closure over
``harness_types.run_episode``, the loop that also runs solved policies.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .compiler import LazySsp, QRows, enumerate_reachable
from .errors import NoEligibleGoal
# build_distance_oracle and lao_star go unused: perfbench/spans.py patches them here
from .heuristics import DistanceOracle, build_distance_oracle  # noqa: F401
from .model import Action, GusspModel, KnowledgeVector, State, Status
from .rng import derive_seed
from .solvers import ValueTable, lao_star, value_iteration  # noqa: F401
from .harness_types import Episode, run_episode


def _eligible(model: GusspModel, s: State, k: KnowledgeVector) -> List[int]:
    prior = model.prior
    out = []
    for i in range(model.n_goals):
        if k.status_of(i) is Status.CONFIRMED_NOT_GOAL:
            continue
        if model.target_done(s, i):
            continue
        if prior.marginal(k, i) <= 0.0:
            continue
        out.append(i)
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
    eligible = _eligible(model, s, k)
    if not eligible:
        raise NoEligibleGoal(f"no eligible target at knowledge {k}")
    scored = [(model.prior.marginal(k, i), i) for i in eligible]
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
    eligible = [
        i for i in _eligible(model, s, k) if oracle.dist(s, i) < math.inf
    ]
    if not eligible:
        raise NoEligibleGoal(f"no reachable eligible target at knowledge {k}")
    scored = [(oracle.dist(s, i), i) for i in eligible]
    best = min(v for v, _ in scored)
    return _tied_choice(scored, rng, best)


class AssumedTargetSsp(LazySsp):
    """Single-target planning problem with goal uncertainty frozen out.

    Base states are planned over directly, with the knowledge vector pinned
    at the current knowledge plus "the target is a true goal".  No
    revelation happens inside the plan; the plan ends where the model would
    terminate under the assumption or where the target counts as achieved.
    """

    def __init__(self, model: GusspModel, k_assumed: KnowledgeVector, target: int):
        super().__init__(model.actions)
        self.model = model
        self.k = k_assumed
        self.target = target
        self._ids: Dict[State, int] = {}
        self._states: List[State] = []
        self.start_id = self.intern(model.start_state)

    def intern(self, s: State) -> int:
        i = self._ids.get(s)
        if i is None:
            i = len(self._states)
            self._ids[s] = i
            self._states.append(s)
            self.goal_flags.append(
                self.model.is_terminal(s, self.k) or self.model.target_done(s, self.target)
            )
        return i

    def state(self, i: int) -> State:
        return self._states[i]

    def expand(self, i: int) -> QRows:
        if self.goal_flags[i]:
            return self._goal_rows(i)
        s, model = self._states[i], self.model
        out = []
        for a in self.actions:
            succ = tuple(
                (self.intern(s2), p)
                for s2, p in model.transition_rows(s, a, self.k)
                if p > 0.0
            )
            c = model.step_cost(s, a, self.k)
            if model.terminal_cost is not None:
                for j, p in succ:
                    if self.goal_flags[j] and model.is_terminal(self._states[j], self.k):
                        c += p * model.exit_cost(self._states[j])
            out.append((a, c, succ))
        return tuple(out)


@dataclass
class DeterminizedPlan:
    """A solved single-target plan, reusable across replans and trials.

    ``policy`` covers every non-goal state of ``ssp`` reachable from the
    base start, so a walk that stays on the assumption never leaves it."""

    target: int
    ssp: AssumedTargetSsp
    table: ValueTable
    policy: Dict[int, Action]


class PlanCache:
    """Plans keyed by the assumed goal set, shared within a trial batch.

    Inside a determinized plan every unresolved site is already treated as
    a non-goal (that is the point of assuming one target), so two knowledge
    vectors that confirm the same set of true sites produce the same
    planning problem.  The assumed vector is therefore canonicalized to
    "target plus confirmed sites true, everything else false", which lets
    runs that merely ruled out different decoys share one plan.

    Each plan is one exact solve: ``enumerate_reachable`` over the assumed
    problem's base states, then value iteration.  An assumed problem with a
    reachable state that cannot finish raises ``ImproperModel``, and no plan
    is cached for it."""

    def __init__(self, model: GusspModel, epsilon: float = 1e-6):
        self.model = model
        self.epsilon = epsilon
        self._plans: Dict[Tuple[int, int], DeterminizedPlan] = {}

    def __len__(self) -> int:
        """The number of plans built so far."""
        return len(self._plans)

    def plan_for(self, target: int, k: KnowledgeVector) -> Tuple[DeterminizedPlan, float]:
        """Return the plan for ``target`` under ``k``, solving it on first use."""
        k_assumed = k.confirm(yes=1 << target)
        k_assumed = k_assumed.confirm(no=k_assumed.unknown_mask)
        key = (target, k_assumed.yes)
        plan = self._plans.get(key)
        t0 = time.perf_counter()
        if plan is None:
            ssp = AssumedTargetSsp(self.model, k_assumed, target)
            result = value_iteration(
                ssp, reachable=enumerate_reachable(ssp), epsilon=self.epsilon
            )
            plan = DeterminizedPlan(target, ssp, result.table, result.policy)
            self._plans[key] = plan
        elapsed = time.perf_counter() - t0
        return plan, elapsed


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
            a = plan.policy.get(plan.ssp.intern(s))
            if a is not None:
                return a
            # off the plan: re-plan this target under the current knowledge;
            # if that plan has no action here either, NoEligibleGoal below
            target = plan.target
        plan, elapsed = plan_cache.plan_for(target, k)
        plan_time += elapsed
        a = plan.policy.get(plan.ssp.intern(s))
        if a is None:
            raise NoEligibleGoal(f"plan for target {target} has no action at {s!r}")
        return a

    episode = run_episode(
        model, g_mask, rng, act, step_budget=step_budget, collect_trace=collect_trace,
    )
    episode.replans = max(0, targets - 1)
    episode.plan_time = plan_time
    return episode
