"""Determinize-and-replan executors.

Instead of planning in the compiled belief space, these baselines commit to
a single target goal, plan for it as if it were certainly true, and execute
that plan until the target is disconfirmed (or achieved without finishing
the task).  Two selection rules are provided: ``mlg`` picks the target with
the maximum posterior marginal, ``cg`` the closest target by base-model
distance.  Replanning is triggered only by disconfirmation of the current
target; observations gathered en route simply sharpen the next selection.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .compiler import ImproperModel, LazySsp, Row, StateBudgetExceeded, enumerate_reachable
from .errors import NoEligibleGoal
from .heuristics import DistanceOracle, build_distance_oracle
from .model import (
    Action,
    GusspModel,
    KnowledgeVector,
    State,
    Status,
    observe,
    apply_observation,
)
from .rng import derive_seed, sample_row
from .solvers import ValueTable, lao_star, value_iteration
from .harness_types import TraceRow

# assumed problems beyond this size fall back to lazy per-state solving
_FULL_SOLVE_BUDGET = 200_000


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
            self._goal_flags.append(
                self.model.is_terminal(s, self.k) or self.model.target_done(s, self.target)
            )
        return i

    def state(self, i: int) -> State:
        return self._states[i]

    def expand(self, i: int, a: Action) -> Tuple[Row, float]:
        if self._goal_flags[i]:
            return ((i, 1.0),), 0.0
        s = self._states[i]
        out = tuple(
            (self.intern(s2), p)
            for s2, p in self.model.transition_rows(s, a, self.k)
            if p > 0.0
        )
        c = self.model.step_cost(s, a, self.k)
        if self.model.terminal_cost is not None:
            for j, p in out:
                if self._goal_flags[j] and self.model.is_terminal(self._states[j], self.k):
                    c += p * self.model.exit_cost(self._states[j])
        return out, c


class _AnchorHeuristic:
    """Base distance to the nearest site that can finish the assumed plan.

    Anchors are the assumed target plus every goal already confirmed true;
    completion actions (sampling, saving) only work at such sites, and
    projected-goal domains price the trip at zero, so the minimum anchor
    distance never exceeds the plan cost on the bundled domain family.
    The plans stay proper either way; only their tip ordering depends on
    this estimate."""

    def __init__(self, ssp: AssumedTargetSsp, oracle: DistanceOracle):
        self.ssp = ssp
        self.oracle = oracle
        k = ssp.k
        self.anchors = [
            i for i in range(ssp.model.n_goals)
            if i == ssp.target or k.status_of(i) is Status.CONFIRMED_GOAL
        ]

    def __call__(self, i: int) -> float:
        if self.ssp.is_goal(i):
            return 0.0
        s = self.ssp.state(i)
        return min(self.oracle.dist(s, a) for a in self.anchors)


@dataclass
class DeterminizedPlan:
    """A solved single-target plan, reusable across replans and trials."""

    target: int
    ssp: AssumedTargetSsp
    table: ValueTable
    policy: Dict[int, Action] = field(default_factory=dict)
    heuristic: Optional[_AnchorHeuristic] = None


class PlanCache:
    """Plans keyed by the assumed goal set, shared within a trial batch.

    Inside a determinized plan every unresolved site is already treated as
    a non-goal (that is the point of assuming one target), so two knowledge
    vectors that confirm the same set of true sites produce the same
    planning problem.  The assumed vector is therefore canonicalized to
    "target plus confirmed sites true, everything else false", which lets
    runs that merely ruled out different decoys share one plan."""

    def __init__(
        self,
        model: GusspModel,
        epsilon: float = 1e-6,
        oracle: Optional[DistanceOracle] = None,
    ):
        self.model = model
        self.epsilon = epsilon
        self._oracle = oracle
        self._plans: Dict[Tuple[int, int], DeterminizedPlan] = {}

    def plan_for(self, target: int, k: KnowledgeVector, s: State) -> Tuple[DeterminizedPlan, float]:
        """Return a plan whose policy covers ``s``, solving or extending as needed."""
        k_assumed = k.confirm(yes=1 << target)
        k_assumed = k_assumed.confirm(no=k_assumed.unknown_mask)
        key = (target, k_assumed.yes)
        plan = self._plans.get(key)
        t0 = time.perf_counter()
        if plan is None:
            if self._oracle is None:
                self._oracle = build_distance_oracle(self.model)
            ssp = AssumedTargetSsp(self.model, k_assumed, target)
            h = _AnchorHeuristic(ssp, self._oracle)
            plan = DeterminizedPlan(
                target=target,
                ssp=ssp,
                table=ValueTable(epsilon=self.epsilon, default=h),
                heuristic=h,
            )
            self._plans[key] = plan
            # base spaces are small, so one exact sweep over everything the
            # walk could slip into beats re-solving from each strayed state
            try:
                reach = enumerate_reachable(ssp, _FULL_SOLVE_BUDGET)
            except (ImproperModel, StateBudgetExceeded):
                reach = None
            if reach is not None:
                result = value_iteration(ssp, reachable=reach, epsilon=self.epsilon)
                plan.table = result.table
                plan.policy.update(result.policy.actions)
        sid = plan.ssp.intern(s)
        if sid not in plan.policy and not plan.ssp.is_goal(sid):
            result = lao_star(
                plan.ssp,
                plan.heuristic,
                epsilon=self.epsilon,
                start=sid,
                table=plan.table,
            )
            plan.policy.update(result.policy.actions)
        elapsed = time.perf_counter() - t0
        return plan, elapsed


@dataclass
class DetTrial:
    cost: float
    steps: int
    replans: int
    plan_time: float
    failed: bool
    trace: Optional[List[TraceRow]]


def execute_determinized(
    model: GusspModel,
    selector: str,
    g_true,
    *,
    seed: int = 0,
    oracle: Optional[DistanceOracle] = None,
    plan_cache: Optional[PlanCache] = None,
    step_budget: int = 100_000,
    collect_trace: bool = False,
) -> DetTrial:
    """Run one determinize-and-replan trial under true configuration ``g_true``.

    ``selector`` is ``"mlg"`` or ``"cg"``.  The trial ends when the model's
    termination condition holds; exceeding ``step_budget`` marks the trial
    failed.  Planning effort is timed separately from execution.
    """
    if selector not in ("mlg", "cg"):
        raise ValueError(f"unknown selector {selector!r}")
    if selector == "cg" and oracle is None:
        oracle = build_distance_oracle(model)
    if plan_cache is None:
        plan_cache = PlanCache(model, oracle=oracle)
    g_mask = model.config_mask(g_true)
    k_world = model.collapsed_knowledge(g_mask)
    rng = random.Random(derive_seed("det", selector, seed))

    s = model.start_state
    k = model.knowledge_all_unknown()
    cost = 0.0
    steps = 0
    plan_time = 0.0
    targets: List[int] = []
    trace: Optional[List[TraceRow]] = [] if collect_trace else None
    plan: Optional[DeterminizedPlan] = None

    while not model.is_terminal(s, k):
        if steps >= step_budget:
            return DetTrial(cost, steps, max(0, len(targets) - 1), plan_time, True, trace)
        if plan is not None and (
            k.status_of(plan.target) is Status.CONFIRMED_NOT_GOAL
            or model.target_done(s, plan.target)
        ):
            plan = None
        if plan is None:
            if selector == "mlg":
                target = select_goal_mlg(model, s, k, rng)
            else:
                target = select_goal_cg(model, s, k, oracle, rng)
            targets.append(target)
            plan, elapsed = plan_cache.plan_for(target, k, s)
            plan_time += elapsed
        sid = plan.ssp.intern(s)
        a = plan.policy.get(sid)
        if a is None:
            # stochastic drift off the solved subgraph: extend the same plan
            _, elapsed = plan_cache.plan_for(plan.target, k, s)
            plan_time += elapsed
            a = plan.policy.get(sid)
            if a is None:
                raise NoEligibleGoal(f"plan for target {plan.target} has no action at {s!r}")
        paid = model.step_cost(s, a, k_world)
        rows = model.transition_rows(s, a, k_world)
        s2 = sample_row(list(rows), rng)
        obs = observe(model, s2, g_mask)
        k2 = apply_observation(k, obs)
        if trace is not None:
            trace.append(TraceRow(steps, s, str(k), a, cost, str(obs)))
        cost += paid
        s, k = s2, k2
        steps += 1

    cost += model.exit_cost(s)
    if trace is not None:
        trace.append(TraceRow(steps, s, str(k), None, cost, "-"))
    return DetTrial(cost, steps, max(0, len(targets) - 1), plan_time, False, trace)
