"""Rover science domain: find a deposit and collect one sample.

The rover drives a slippery grid where any of several sites may hold the
deposit.  Driving onto a site reveals whether it is real.  Sampling at a
site confirmed real is cheap and ends the mission; sampling anywhere else
burns time and yields nothing.  State is ``(x, y, sampled)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Sequence, Tuple

from ..errors import InvalidInstance
from ..model import GusspModel, KnowledgeVector, Status
from ..rng import make_rng
from .grid import Cell, MOVES, _component_of, checked_layout, random_layout, slippery_moves
from .priors import PriorSpec

RoverState = Tuple[int, int, bool]

SAMPLE = "sample"
ACTIONS = tuple(name for name, _ in MOVES) + (SAMPLE,)


@dataclass(frozen=True)
class RoverParams:
    width: int
    height: int
    start: Cell
    potential_goals: Tuple[Cell, ...]
    obstacles: FrozenSet[Cell] = frozenset()
    landmarks: Tuple[Tuple[Cell, Tuple[Cell, ...]], ...] = ()
    move_success: float = 0.8
    move_cost: float = 1.0
    sample_cost_confirmed: float = 2.0
    sample_cost_blind: float = 10.0
    prior: PriorSpec = field(default_factory=PriorSpec)


def build_rover(params: RoverParams) -> GusspModel:
    if min(params.move_cost, params.sample_cost_confirmed, params.sample_cost_blind) <= 0:
        raise InvalidInstance("rover action costs must be positive")
    free = checked_layout(params, params.potential_goals, "site")
    move = slippery_moves(free, params.move_success)

    states: list = []
    for cell in sorted(free):
        states.append((cell[0], cell[1], False))
        states.append((cell[0], cell[1], True))
    goals: Tuple[RoverState, ...] = tuple(
        (x, y, False) for x, y in params.potential_goals
    )
    site_index = {cell: i for i, cell in enumerate(params.potential_goals)}

    def transition(s: RoverState, a: str) -> Sequence[Tuple[RoverState, float]]:
        if s[2] or a == SAMPLE:
            return ((s, 1.0),)  # done, or blind sampling, which yields nothing
        return move(s, a)

    def cost(s: RoverState, a: str) -> float:
        if s[2]:
            return 0.0
        if a == SAMPLE:
            return params.sample_cost_blind
        return params.move_cost

    def confirmed_here(s: RoverState, k: KnowledgeVector) -> Optional[int]:
        idx = site_index.get((s[0], s[1]))
        if idx is not None and k.status_of(idx) is Status.CONFIRMED_GOAL:
            return idx
        return None

    def knowledge_effects(s, a, k):
        if a == SAMPLE and not s[2] and confirmed_here(s, k) is not None:
            return (((s[0], s[1], True), 1.0),)
        return None

    def knowledge_step_cost(s, a, k):
        if a == SAMPLE and not s[2] and confirmed_here(s, k) is not None:
            return params.sample_cost_confirmed
        return None

    return GusspModel(
        base_states=states,
        actions=ACTIONS,
        transition=transition,
        cost=cost,
        start_state=(params.start[0], params.start[1], False),
        potential_goals=goals,
        prior=params.prior.build(goals),
        landmarks={
            (lm[0], lm[1], False): tuple((x, y, False) for x, y in vic)
            for lm, vic in params.landmarks
        },
        knowledge_effects=knowledge_effects,
        knowledge_step_cost=knowledge_step_cost,
        hook_sites=goals,  # the hooks answer only when sampling at a site
        terminal_test=lambda s: s[2],
        base_terminal=lambda s: s[2],
        det_target_done=lambda s, target: s[2],
    )


def random_rover(
    seed: int,
    *,
    width: int = 20,
    height: int = 20,
    n_goals: int = 6,
    n_landmarks: int = 0,
    obstacle_density: float = 0.1,
    move_success: float = 0.8,
    prior: PriorSpec = PriorSpec(),
) -> RoverParams:
    """Random connected rover instance, same placement scheme as the grids."""
    obstacles, start, goals, landmarks = random_layout(
        make_rng("rover", seed), width, height, n_goals, n_landmarks, obstacle_density
    )
    return RoverParams(
        width=width,
        height=height,
        start=start,
        potential_goals=goals,
        obstacles=obstacles,
        landmarks=landmarks,
        move_success=move_success,
        prior=prior,
    )


def clustered_rover(
    seed: int,
    *,
    width: int = 20,
    n_goals: int = 6,
    move_success: float = 0.8,
) -> RoverParams:
    """Square rover map whose sample sites sit packed in one far region.

    The start is pinned near the opposite corner, so every site is roughly
    the same long trek away and most of the travel cost is shared between
    candidate plans.  Complements ``random_rover``, whose scattered sites
    make plans diverge early."""
    rng = make_rng("trend", seed)
    free = [(x, y) for x in range(width) for y in range(width)]
    obstacles = set(rng.sample(free, int(0.08 * len(free))))
    cx, cy = width - 4, width - 4
    r = 3 if n_goals <= 6 else 4
    box = [
        (x, y)
        for x in range(cx - r, min(cx + r + 1, width))
        for y in range(cy - r, min(cy + r + 1, width))
        if (x, y) not in obstacles
    ]
    if len(box) < n_goals:
        raise InvalidInstance("cluster region too crowded for the requested sites")
    goals = tuple(sorted(rng.sample(box, n_goals)))
    start = (1, 1)
    obstacles.discard(start)
    reachable = _component_of(
        start, frozenset(c for c in free if c not in obstacles)
    )
    if any(g not in reachable for g in goals):
        raise InvalidInstance("cluster sites cut off from the start")
    return RoverParams(
        width=width,
        height=width,
        start=start,
        potential_goals=goals,
        obstacles=frozenset(obstacles),
        move_success=move_success,
    )
