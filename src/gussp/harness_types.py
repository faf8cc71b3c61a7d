"""Record types shared by the benchmark harness and the executors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .model import Action, State


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
