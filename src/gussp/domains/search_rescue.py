"""Search-and-rescue: save a known number of victims at unknown sites.

A fixed number of victims are distributed among candidate cells; the agent
knows the count but not the places.  Entering a candidate cell reveals
whether a victim is there; a save action at a cell with a confirmed victim
moves them to safety.  The mission ends once every victim is saved.  State
is ``(x, y, saved_mask)`` with one mask bit per candidate cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Sequence, Tuple

from ..errors import InvalidInstance
from ..model import GoalPrior, GusspModel, KnowledgeVector, Status
from .grid import Cell, MOVES, checked_layout, slippery_moves
from .priors import PriorSpec

SearchState = Tuple[int, int, int]

SAVE = "save"
ACTIONS = tuple(name for name, _ in MOVES) + (SAVE,)


@dataclass(frozen=True)
class SearchRescueParams:
    width: int
    height: int
    start: Cell
    candidate_cells: Tuple[Cell, ...]
    n_victims: int = 1
    obstacles: FrozenSet[Cell] = frozenset()
    landmarks: Tuple[Tuple[Cell, Tuple[Cell, ...]], ...] = ()
    move_success: float = 1.0
    move_cost: float = 1.0
    save_cost: float = 2.0
    prior: PriorSpec = field(default_factory=PriorSpec)


def _victim_prior(params: SearchRescueParams) -> GoalPrior:
    """Priors here must put all mass on exactly-``n_victims`` configurations,
    since the stopping rule counts saves; ``uniform`` means uniform over
    those."""
    n = len(params.candidate_cells)
    spec = params.prior
    if spec.kind == "uniform":
        weights = {
            mask: 1.0
            for mask in range(1, 1 << n)
            if bin(mask).count("1") == params.n_victims
        }
        return GoalPrior.explicit(n, weights)
    prior = spec.build(params.candidate_cells)
    bad = [
        mask
        for mask in prior.config_probs()
        if bin(mask).count("1") != params.n_victims
    ]
    if bad:
        raise InvalidInstance(
            f"prior puts mass on configurations without exactly "
            f"{params.n_victims} victims: {bad}"
        )
    return prior


def build_search_rescue(params: SearchRescueParams) -> GusspModel:
    n = len(params.candidate_cells)
    if not 1 <= params.n_victims <= n:
        raise InvalidInstance("victim count must be between 1 and the candidate count")
    if params.move_cost <= 0 or params.save_cost <= 0:
        raise InvalidInstance("action costs must be positive")
    free = checked_layout(params, params.candidate_cells, "candidate cell")
    move = slippery_moves(free, params.move_success)

    site_index = {cell: i for i, cell in enumerate(params.candidate_cells)}
    states = [
        (x, y, mask)
        for (x, y) in sorted(free)
        for mask in range(1 << n)
    ]

    def transition(s: SearchState, a: str) -> Sequence[Tuple[SearchState, float]]:
        if a == SAVE:
            return ((s, 1.0),)  # useless without a confirmed victim here
        return move(s, a)

    def cost(s: SearchState, a: str) -> float:
        return params.save_cost if a == SAVE else params.move_cost

    def savable(s: SearchState, k: KnowledgeVector) -> int:
        idx = site_index.get((s[0], s[1]))
        if (
            idx is not None
            and not s[2] & (1 << idx)
            and k.status_of(idx) is Status.CONFIRMED_GOAL
        ):
            return idx
        return -1

    def knowledge_effects(s, a, k):
        if a == SAVE:
            idx = savable(s, k)
            if idx >= 0:
                return (((s[0], s[1], s[2] | (1 << idx)), 1.0),)
        return None

    def membership(s: SearchState):
        return site_index.get((s[0], s[1]))

    saved_goal = params.n_victims

    return GusspModel(
        base_states=states,
        actions=ACTIONS,
        transition=transition,
        cost=cost,
        start_state=(params.start[0], params.start[1], 0),
        potential_goals=params.candidate_cells,
        prior=_victim_prior(params),
        landmarks={
            (lm[0], lm[1], mask): vic
            for lm, vic in params.landmarks
            for mask in range(1 << n)
        },
        goal_membership=membership,
        knowledge_effects=knowledge_effects,
        # the hook answers only when saving at a site whose victim is not yet saved
        hook_sites=[
            (x, y, mask) for x, y, mask in states
            if (x, y) in site_index and not mask >> site_index[(x, y)] & 1
        ],
        terminal_test=lambda s: bin(s[2]).count("1") >= saved_goal,
        det_target_done=lambda s, target: bool(s[2] & (1 << target)),
    )
