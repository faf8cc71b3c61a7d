"""Grid navigation with uncertain goal locations.

The agent walks a 4-connected grid with optional obstacles and slippery
movement (an unsuccessful move stays put).  Arriving on a potential goal
reveals whether it is a true goal; landmarks reveal the status of a listed
vicinity.  The episode ends on arrival at a confirmed true goal.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import FrozenSet, Sequence, Tuple

from ..errors import InvalidInstance
from ..model import GusspModel
from ..rng import make_rng
from .priors import PriorSpec

Cell = Tuple[int, int]

MOVES: Tuple[Tuple[str, Tuple[int, int]], ...] = (
    ("up", (0, -1)),
    ("down", (0, 1)),
    ("left", (-1, 0)),
    ("right", (1, 0)),
)
ACTIONS = tuple(name for name, _ in MOVES)
_DELTA = dict(MOVES)


@dataclass(frozen=True)
class GridParams:
    width: int
    height: int
    start: Cell
    potential_goals: Tuple[Cell, ...]
    obstacles: FrozenSet[Cell] = frozenset()
    landmarks: Tuple[Tuple[Cell, Tuple[Cell, ...]], ...] = ()
    move_success: float = 1.0
    step_cost: float = 1.0
    prior: PriorSpec = field(default_factory=PriorSpec)


def _component_of(start: Cell, free: FrozenSet[Cell]) -> FrozenSet[Cell]:
    seen = {start}
    frontier = deque([start])
    while frontier:
        x, y = frontier.popleft()
        for _, (dx, dy) in MOVES:
            nxt = (x + dx, y + dy)
            if nxt in free and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def checked_layout(params, goals: Sequence[Cell], what: str) -> FrozenSet[Cell]:
    """Free cells of a grid layout, after checking its size, its
    ``move_success``, and that the start, every goal and every landmark is
    an in-grid free cell connected to the start.  ``params`` is any of the
    grid-shaped parameter classes; ``what`` names the goals in messages."""
    if params.width < 1 or params.height < 1:
        raise InvalidInstance("grid needs positive dimensions")
    if not 0.0 < params.move_success <= 1.0:
        raise InvalidInstance("move_success must be in (0, 1]")
    free = frozenset(
        (x, y)
        for y in range(params.height)
        for x in range(params.width)
        if (x, y) not in params.obstacles
    )

    def require_free(cell: Cell, name: str) -> None:
        x, y = cell
        if not (0 <= x < params.width and 0 <= y < params.height):
            raise InvalidInstance(f"{name} {cell} is outside the grid")
        if cell in params.obstacles:
            raise InvalidInstance(f"{name} {cell} is an obstacle")

    require_free(params.start, "start")
    for g in goals:
        require_free(g, what)
    component = _component_of(params.start, free)
    cut = [g for g in goals if g not in component]
    if cut:
        raise InvalidInstance(f"{what}s {cut} are cut off from the start")
    for lm, _vicinity in params.landmarks:
        require_free(lm, "landmark")
        if lm not in component:
            raise InvalidInstance(f"landmark {lm} is cut off from the start")
    return free


def slippery_moves(free: FrozenSet[Cell], move_success: float):
    """``move(s, a)`` for a state whose first two fields are its cell: a
    move into a free cell succeeds with ``move_success`` and otherwise stays
    put; a blocked move stays put.  Fields after the cell carry over."""

    def move(s, a: str):
        dx, dy = _DELTA[a]
        nxt = (s[0] + dx, s[1] + dy)
        if nxt not in free:
            return ((s, 1.0),)
        nxt += s[2:]
        if move_success >= 1.0:
            return ((nxt, 1.0),)
        return ((nxt, move_success), (s, 1.0 - move_success))

    return move


def random_layout(
    rng: random.Random,
    width: int,
    height: int,
    n_goals: int,
    n_landmarks: int,
    obstacle_density: float,
) -> Tuple[FrozenSet[Cell], Cell, Tuple[Cell, ...], Tuple[Tuple[Cell, Tuple[Cell, ...]], ...]]:
    """``(obstacles, start, goals, landmarks)`` of a random connected layout:
    obstacles are sampled first, then the start, goals, and landmarks are
    placed inside the largest connected component."""
    cells = [(x, y) for y in range(height) for x in range(width)]
    obstacles = frozenset(rng.sample(cells, int(len(cells) * obstacle_density)))
    free = frozenset(cells) - obstacles
    if not free:
        raise InvalidInstance("obstacle density leaves no free cell")
    components = []
    remaining = set(free)
    while remaining:
        comp = _component_of(next(iter(remaining)), free)
        components.append(comp)
        remaining -= comp
    # components are disjoint, so the tie-break on the least cell is unique
    pool = sorted(max(components, key=lambda comp: (len(comp), min(comp))))
    if len(pool) < 1 + n_goals + n_landmarks:
        raise InvalidInstance("not enough connected space for the requested layout")
    picks = rng.sample(pool, 1 + n_goals + n_landmarks)
    goals = tuple(sorted(picks[1:1 + n_goals]))
    landmarks = tuple(
        (lm, tuple(sorted(rng.sample(goals, rng.randint(1, min(3, n_goals))))))
        for lm in picks[1 + n_goals:]
    )
    return obstacles, picks[0], goals, landmarks


def build_grid(params: GridParams) -> GusspModel:
    if params.step_cost <= 0.0:
        raise InvalidInstance("step cost must be positive")
    free = checked_layout(params, params.potential_goals, "potential goal")

    def cost(s: Cell, a: str) -> float:
        return params.step_cost

    return GusspModel(
        base_states=sorted(free),
        actions=ACTIONS,
        transition=slippery_moves(free, params.move_success),
        cost=cost,
        start_state=params.start,
        potential_goals=params.potential_goals,
        prior=params.prior.build(params.potential_goals),
        landmarks={lm: vic for lm, vic in params.landmarks},
    )


def line4() -> GridParams:
    """Four cells in a row, two uncertain goals on the right end."""
    return GridParams(
        width=4,
        height=1,
        start=(0, 0),
        potential_goals=((2, 0), (3, 0)),
    )


def random_grid(
    seed: int,
    *,
    width: int = 8,
    height: int = 8,
    n_goals: int = 3,
    n_landmarks: int = 0,
    obstacle_density: float = 0.15,
    move_success: float = 0.85,
    prior: PriorSpec = PriorSpec(),
) -> GridParams:
    """Random connected instance laid out by :func:`random_layout`."""
    obstacles, start, goals, landmarks = random_layout(
        make_rng("grid", seed), width, height, n_goals, n_landmarks, obstacle_density
    )
    return GridParams(
        width=width,
        height=height,
        start=start,
        potential_goals=goals,
        obstacles=obstacles,
        landmarks=landmarks,
        move_success=move_success,
        prior=prior,
    )
