"""The one episode loop, ``run_episode``, and the records it returns.

Both executors, ``harness.execute_policy`` and
``determinize.execute_determinized``, are an ``act(s, k)`` closure over it.
The loop reads the model's base table alone: it takes ``step_world``'s
step inline, so a step that reveals nothing builds no object, and stops on
the table's goal rule; ``step_world`` stays the public one-step API.  An
actor's ``k`` stays one object until an arrival reveals a goal."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .model import Action, GusspModel, KnowledgeVector, Observation, State, checked_cost


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
    its draws in step order.  The world step is ``step_world``'s, read
    inline over the model's base table, so the hooks are asked only at hook
    sites; an arrival is folded into ``k`` only when it reveals a goal still
    unknown, and an ``Observation`` is built only for the trace.  The walk
    ends where ``terminal[sid] or k.yes & goal_bit[sid]``, the table's goal
    rule, and adds its exit cost there.  Exceeding ``step_budget`` marks
    the episode failed."""
    table = model.base_table
    states, rows, costs, reveal = table.states, table.rows, table.costs, table.reveal
    action_index, width = table.action_index, len(table.actions)
    cost_hook, effects_hook = model.knowledge_step_cost, model.knowledge_effects
    site, terminal, goal_bit, draw = table.hook_site, table.terminal, table.goal_bit, rng.random
    s = model.start_state
    sid = table.sid[s]
    k = model.knowledge_all_unknown()
    k_true = model.collapsed_knowledge(g_mask)
    cost, steps = 0.0, 0
    trace: Optional[List[TraceRow]] = [] if collect_trace else None
    while not (terminal[sid] or k.yes & goal_bit[sid]):
        if steps >= step_budget:
            return Episode(cost, steps, True, trace)
        a = act(s, k)
        pair = sid * width + action_index[a]
        # at a hook site the hooks at k_true, cost first, then the table
        # where they do not answer
        paid = row = None
        if site[sid]:
            if cost_hook is not None:
                paid = cost_hook(s, a, k_true)
            if effects_hook is not None:
                row = effects_hook(s, a, k_true)
        row = rows[pair][0] if row is None else table.checked(row, s, a, k_true)
        u, acc = draw(), 0.0
        for sid2, p in row:
            acc += p
            if u < acc:
                break
        # with no break sid2 is the last outcome, sample_row's rounding
        # fallback: a checked row holds only p > 0
        paid = costs[pair] if paid is None else checked_cost(paid, s, a, k_true)
        revealed = reveal[sid2]
        if trace is not None:
            obs = Observation(yes=revealed & g_mask, no=revealed & ~g_mask)
            trace.append(TraceRow(steps, s, str(k), a, cost, str(obs)))
        cost += paid
        if revealed & ~(k.yes | k.no):
            k = k.confirm(yes=revealed & g_mask, no=revealed & ~g_mask)
        s, sid = states[sid2], sid2
        steps += 1
    cost += model.exit_cost(s)
    if trace is not None:
        trace.append(TraceRow(steps, s, str(k), None, cost, "-"))
    return Episode(cost, steps, False, trace)
