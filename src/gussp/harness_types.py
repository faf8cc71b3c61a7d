"""The one episode loop, ``run_episode``, and the records it returns.

Both executors, ``harness.execute_policy`` and
``determinize.execute_determinized``, are an ``act(s, k)`` closure over it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .model import Action, GusspModel, KnowledgeVector, State, apply_observation, step_world


@dataclass(frozen=True)
class TraceRow:
    """One executed step: state and knowledge before acting, then the action,
    cumulative cost already paid, and the observation string at the arrival
    state.  The final row of a trace carries ``action=None`` and total cost."""

    step: int
    state: State
    knowledge: str
    action: Optional[Action]
    cost_so_far: float
    observation: str

    def format(self) -> str:
        act = "-" if self.action is None else str(self.action)
        return (
            f"{self.step}\t{self.state!r}\t{self.knowledge}\t{act}\t"
            f"{self.cost_so_far:.6f}\t{self.observation}"
        )


@dataclass
class Episode:
    """One executed trial.  ``failed`` means the step budget ran out;
    ``replans`` and ``plan_time`` count the planning done during the trial."""

    cost: float
    steps: int
    failed: bool
    trace: Optional[List[TraceRow]]
    replans: int = 0
    plan_time: float = 0.0


def run_episode(
    model: GusspModel, g_mask: int, rng, act: Callable[[State, KnowledgeVector], Action],
    *, step_budget: int, collect_trace: bool,
) -> Episode:
    """Walk one episode from the start state under true configuration ``g_mask``.

    At every nonterminal step ``act(s, k)`` picks the action from the base
    state and the agent's knowledge; only then does the world draw its
    outcome from ``rng``, so an actor that draws from the same ``rng`` keeps
    its draws in step order.  Exceeding ``step_budget`` marks the episode
    failed; on termination the model's exit cost is added."""
    s = model.start_state
    k = model.knowledge_all_unknown()
    k_true = model.collapsed_knowledge(g_mask)
    cost = 0.0
    steps = 0
    trace: Optional[List[TraceRow]] = [] if collect_trace else None
    while not model.is_terminal(s, k):
        if steps >= step_budget:
            return Episode(cost, steps, True, trace)
        a = act(s, k)
        s2, paid, obs = step_world(model, s, a, g_mask, k_true, rng)
        if trace is not None:
            trace.append(TraceRow(steps, s, str(k), a, cost, str(obs)))
        cost += paid
        s, k = s2, apply_observation(k, obs)
        steps += 1
    cost += model.exit_cost(s)
    if trace is not None:
        trace.append(TraceRow(steps, s, str(k), None, cost, "-"))
    return Episode(cost, steps, False, trace)
