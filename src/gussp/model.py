"""Goal-uncertain shortest-path models.

The core object is :class:`GusspModel`: a goal-directed MDP whose true goal
set is not known at planning time.  The agent holds a prior over *goal
configurations* (nonempty subsets of the potential goals) and refines it
through arrival observations: standing on a potential goal reveals whether
that goal is true, and designated landmark states reveal the status of a
fixed vicinity of potential goals.  Every other state is uninformative, so
a belief either collapses componentwise or stays put.  The set of reachable
beliefs is therefore finite and each one is represented losslessly by a
:class:`KnowledgeVector` holding one ternary status per potential goal.

Configurations are encoded as bitmasks over potential-goal indices: bit i
set means ``potential_goals[i]`` is a true goal.  The empty configuration
is excluded; at least one potential goal is always true.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    ContradictoryObservation,
    InconsistentKnowledge,
    InvalidInstance,
    ModelError,
    TooManyGoals,
)

State = Hashable
Action = Hashable

MAX_POTENTIAL_GOALS = 16
PROB_TOL = 1e-9


def bits_of(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, in increasing order."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


class Status(enum.Enum):
    UNKNOWN = "U"
    CONFIRMED_GOAL = "G"
    CONFIRMED_NOT_GOAL = "N"


@dataclass(frozen=True, slots=True)
class KnowledgeVector:
    """Per-potential-goal status, packed as two disjoint bitmasks.

    ``yes`` holds the confirmed-goal bits, ``no`` the confirmed-not-goal
    bits; everything else is unknown.  Instances are immutable and hashable
    so they can key caches and compiled states.
    """

    n: int
    yes: int = 0
    no: int = 0

    def __post_init__(self):
        if self.yes & self.no:
            raise ContradictoryObservation(
                f"status bitmasks overlap: yes={self.yes:b} no={self.no:b}"
            )

    @classmethod
    def all_unknown(cls, n: int) -> "KnowledgeVector":
        return cls(n)

    @classmethod
    def collapsed(cls, n: int, config_mask: int) -> "KnowledgeVector":
        """Fully determined vector matching a concrete configuration."""
        full = (1 << n) - 1
        return cls(n, yes=config_mask & full, no=full & ~config_mask)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def unknown_mask(self) -> int:
        return self.full_mask & ~(self.yes | self.no)

    def status_of(self, i: int) -> Status:
        bit = 1 << i
        if self.yes & bit:
            return Status.CONFIRMED_GOAL
        if self.no & bit:
            return Status.CONFIRMED_NOT_GOAL
        return Status.UNKNOWN

    def statuses(self) -> Tuple[Status, ...]:
        return tuple(self.status_of(i) for i in range(self.n))

    def is_consistent_with(self, config_mask: int) -> bool:
        """Could ``config_mask`` be the true configuration given this knowledge?"""
        return (config_mask & self.yes) == self.yes and not (config_mask & self.no)

    def confirm(self, yes: int = 0, no: int = 0) -> "KnowledgeVector":
        if (yes & self.no) or (no & self.yes):
            raise ContradictoryObservation(
                f"observation yes={yes:b}/no={no:b} conflicts with {self}"
            )
        return KnowledgeVector(self.n, self.yes | yes, self.no | no)

    def __str__(self) -> str:
        return "".join(self.status_of(i).value for i in range(self.n))


@dataclass(frozen=True, slots=True)
class Observation:
    """Result of one arrival: membership bits revealed as true or false."""

    yes: int = 0
    no: int = 0

    @classmethod
    def from_pairs(cls, revealed: Mapping[int, bool]) -> "Observation":
        yes = no = 0
        for i, truth in revealed.items():
            if truth:
                yes |= 1 << i
            else:
                no |= 1 << i
        return cls(yes, no)

    @property
    def revealed(self) -> Dict[int, bool]:
        out = {i: True for i in bits_of(self.yes)}
        out.update({i: False for i in bits_of(self.no)})
        return dict(sorted(out.items()))

    @property
    def is_empty(self) -> bool:
        return self.yes == 0 and self.no == 0

    def __str__(self) -> str:
        if self.is_empty:
            return "-"
        return ",".join(f"{i}:{'T' if t else 'F'}" for i, t in self.revealed.items())


class GoalPrior:
    """Distribution over nonempty goal configurations.

    Three kinds are supported:

    * ``uniform``: every nonempty subset of the potential goals is equally
      likely.
    * ``explicit``: arbitrary weights per configuration mask (normalized).
    * ``bernoulli``: independent per-goal marginals, conditioned on the
      configuration being nonempty.
    """

    def __init__(self, kind: str, n: int, probs: Dict[int, float]):
        self.kind = kind
        self.n = n
        self._probs = probs
        self._posterior_cache: Dict[Tuple[int, int], Dict[int, float]] = {}

    @classmethod
    def uniform(cls, n: int) -> "GoalPrior":
        _check_n(n)
        total = (1 << n) - 1
        p = 1.0 / total
        return cls("uniform", n, {m: p for m in range(1, total + 1)})

    @classmethod
    def explicit(cls, n: int, weights: Mapping[int, float]) -> "GoalPrior":
        _check_n(n)
        full = (1 << n) - 1
        probs: Dict[int, float] = {}
        for mask, w in weights.items():
            if not 0 < mask <= full:
                raise InvalidInstance(f"configuration mask {mask} out of range for n={n}")
            if w < 0:
                raise InvalidInstance("negative configuration weight")
            if w > 0:
                probs[mask] = probs.get(mask, 0.0) + float(w)
        total = sum(probs.values())
        if total <= 0:
            raise InvalidInstance("explicit prior has no positive-weight configuration")
        return cls("explicit", n, {m: w / total for m, w in sorted(probs.items())})

    @classmethod
    def bernoulli(cls, marginals: Sequence[float]) -> "GoalPrior":
        n = len(marginals)
        _check_n(n)
        for p in marginals:
            if not 0.0 < p <= 1.0:
                raise InvalidInstance(f"bernoulli marginal {p} outside (0, 1]")
        none = 1.0
        for p in marginals:
            none *= 1.0 - p
        norm = 1.0 - none  # condition on at least one true goal
        probs: Dict[int, float] = {}
        for mask in range(1, 1 << n):
            w = 1.0
            for i in range(n):
                w *= marginals[i] if mask & (1 << i) else 1.0 - marginals[i]
            if w > 0:
                probs[mask] = w / norm
        return cls("bernoulli", n, probs)

    def config_probs(self) -> Dict[int, float]:
        return dict(self._probs)

    def posterior(self, k: KnowledgeVector) -> Dict[int, float]:
        """Prior conditioned on the knowledge vector.

        Raises :class:`InconsistentKnowledge` when no configuration with
        positive mass matches ``k``.
        """
        key = (k.yes, k.no)
        cached = self._posterior_cache.get(key)
        if cached is not None:
            return cached
        required, forbidden = k.yes, k.no
        sel = {
            m: p
            for m, p in self._probs.items()
            if (m & required) == required and not (m & forbidden)
        }
        total = sum(sel.values())
        if total <= 0:
            raise InconsistentKnowledge(f"no configuration consistent with {k}")
        post = {m: p / total for m, p in sel.items()}
        self._posterior_cache[key] = post
        return post

    def marginal(self, k: KnowledgeVector, i: int) -> float:
        bit = 1 << i
        if k.yes & bit:
            return 1.0
        if k.no & bit:
            return 0.0
        return sum(p for m, p in self.posterior(k).items() if m & bit)


def _check_n(n: int) -> None:
    if n < 1:
        raise InvalidInstance("at least one potential goal is required")
    if n > MAX_POTENTIAL_GOALS:
        raise TooManyGoals(
            f"{n} potential goals exceeds the supported maximum of {MAX_POTENTIAL_GOALS}"
        )


class GusspModel:
    """A goal-directed MDP with an uncertain goal set.

    Parameters
    ----------
    base_states:
        Finite enumerable collection of base states (opaque hashables).
    actions:
        Ordered action list.  The order is the deterministic tie-break used
        by every solver, so it is part of the model definition.
    transition:
        ``(s, a) -> [(s', p), ...]``, the goal-independent base dynamics.
    cost:
        ``(s, a) -> float >= 0``.
    potential_goals:
        Ordered potential-goal labels.  By default each label must be a base
        state and arrival at it reveals its membership.  Domains whose goal
        identity is a projection of the state (a time component, a cell
        within a larger factored state) instead supply ``goal_membership``
        mapping a base state to the index of the goal it instantiates.
    landmarks:
        Optional map from landmark state to the nonempty collection of
        potential-goal labels whose membership arrival there reveals.
    prior:
        :class:`GoalPrior` over configurations of the potential goals.

    Optional domain hooks
    ---------------------
    ``knowledge_effects(s, a, k)`` / ``knowledge_step_cost(s, a, k)`` let a
    domain make action outcomes or costs depend on *confirmed* goal status
    (sampling a confirmed deposit, saving a confirmed victim).  They must
    only branch on components of ``k`` that are confirmed; during execution
    they are evaluated with the fully collapsed vector of the true
    configuration.  ``terminal_test(s, k)`` overrides the default
    termination rule (standing on a potential goal confirmed true).
    ``terminal_cost(s)`` is a one-time nonnegative cost charged when the
    process terminates in ``s``.
    """

    def __init__(
        self,
        *,
        base_states: Iterable[State],
        actions: Sequence[Action],
        transition: Callable[[State, Action], Sequence[Tuple[State, float]]],
        cost: Callable[[State, Action], float],
        start_state: State,
        potential_goals: Sequence[Hashable],
        prior: GoalPrior,
        landmarks: Optional[Mapping[State, Iterable[Hashable]]] = None,
        goal_membership: Optional[Callable[[State], Optional[int]]] = None,
        knowledge_effects: Optional[
            Callable[[State, Action, KnowledgeVector], Optional[Sequence[Tuple[State, float]]]]
        ] = None,
        knowledge_step_cost: Optional[
            Callable[[State, Action, KnowledgeVector], Optional[float]]
        ] = None,
        terminal_test: Optional[Callable[[State, KnowledgeVector], bool]] = None,
        terminal_cost: Optional[Callable[[State], float]] = None,
        base_terminal: Optional[Callable[[State], bool]] = None,
        det_target_done: Optional[Callable[[State, int], bool]] = None,
        allow_zero_costs: bool = False,
        validate: bool = True,
    ):
        self.base_states: Tuple[State, ...] = tuple(base_states)
        self.actions: Tuple[Action, ...] = tuple(actions)
        self.transition = transition
        self.cost = cost
        self.start_state = start_state
        self.potential_goals: Tuple[Hashable, ...] = tuple(potential_goals)
        self.prior = prior
        self.goal_membership = goal_membership
        self.knowledge_effects = knowledge_effects
        self.knowledge_step_cost = knowledge_step_cost
        self.terminal_test = terminal_test
        self.terminal_cost = terminal_cost
        self.base_terminal = base_terminal
        self.det_target_done = det_target_done
        self.allow_zero_costs = allow_zero_costs

        _check_n(len(self.potential_goals))
        if len(set(self.potential_goals)) != len(self.potential_goals):
            raise InvalidInstance("potential goals must be distinct")
        self.n_goals = len(self.potential_goals)
        self.full_mask = (1 << self.n_goals) - 1
        if prior.n != self.n_goals:
            raise InvalidInstance("prior size does not match the potential-goal count")

        self._state_set = set(self.base_states)
        if len(self._state_set) != len(self.base_states):
            raise InvalidInstance("duplicate base states")
        if start_state not in self._state_set:
            raise InvalidInstance("start state is not a base state")

        self._goal_index: Dict[Hashable, int] = {
            g: i for i, g in enumerate(self.potential_goals)
        }
        # goal sites: base states that instantiate each potential-goal index
        if goal_membership is None:
            missing = [g for g in self.potential_goals if g not in self._state_set]
            if missing:
                raise InvalidInstance(f"potential goals are not base states: {missing!r}")
            self._sites: Tuple[Tuple[State, ...], ...] = tuple(
                (g,) for g in self.potential_goals
            )
            self._membership: Dict[State, int] = dict(self._goal_index)
        else:
            sites: List[List[State]] = [[] for _ in range(self.n_goals)]
            membership: Dict[State, int] = {}
            for s in self.base_states:
                i = goal_membership(s)
                if i is None:
                    continue
                if not 0 <= i < self.n_goals:
                    raise InvalidInstance(f"goal_membership({s!r}) = {i} out of range")
                sites[i].append(s)
                membership[s] = i
            empty = [self.potential_goals[i] for i, ss in enumerate(sites) if not ss]
            if empty:
                raise InvalidInstance(f"no base state instantiates goals {empty!r}")
            self._sites = tuple(tuple(ss) for ss in sites)
            self._membership = membership

        # arrival at s reveals its own membership plus a landmark's vicinity
        self._reveal: Dict[State, int] = {s: 1 << i for s, i in self._membership.items()}
        for s, vicinity in (landmarks or {}).items():
            if s not in self._state_set:
                raise InvalidInstance(f"landmark {s!r} is not a base state")
            mask = 0
            for g in vicinity:
                idx = self._goal_index.get(g)
                if idx is None:
                    raise InvalidInstance(f"landmark vicinity entry {g!r} is not a potential goal")
                mask |= 1 << idx
            if not mask:
                raise InvalidInstance(f"landmark {s!r} has an empty vicinity")
            self._reveal[s] = self._reveal.get(s, 0) | mask

        # observations fire on arrival, so a start state that reveals goal
        # membership would need an extra pre-step observation nothing models
        if self.reveal_indices(self.start_state):
            raise InvalidInstance(
                "start state reveals goal membership; move the start off "
                "potential goals and landmarks"
            )

        if validate:
            self._validate_dynamics()

    # -- structure ---------------------------------------------------------

    def goal_sites(self, i: int) -> Tuple[State, ...]:
        return self._sites[i]

    def reveal_indices(self, s: State) -> int:
        """Bitmask of potential goals whose membership arrival at ``s`` reveals."""
        return self._reveal.get(s, 0)

    def config_mask(self, labels: Iterable[Hashable]) -> int:
        if isinstance(labels, int):
            return labels & self.full_mask
        mask = 0
        for g in labels:
            idx = self._goal_index.get(g)
            if idx is None:
                raise InvalidInstance(f"{g!r} is not a potential goal")
            mask |= 1 << idx
        return mask

    def config_labels(self, mask: int) -> FrozenSet[Hashable]:
        return frozenset(self.potential_goals[i] for i in bits_of(mask))

    def knowledge_all_unknown(self) -> KnowledgeVector:
        return KnowledgeVector.all_unknown(self.n_goals)

    def collapsed_knowledge(self, config_mask: int) -> KnowledgeVector:
        return KnowledgeVector.collapsed(self.n_goals, config_mask)

    # -- dynamics ----------------------------------------------------------

    def transition_rows(
        self, s: State, a: Action, k: Optional[KnowledgeVector] = None
    ) -> Sequence[Tuple[State, float]]:
        if k is not None and self.knowledge_effects is not None:
            rows = self.knowledge_effects(s, a, k)
            if rows is not None:
                return rows
        return self.transition(s, a)

    def step_cost(self, s: State, a: Action, k: Optional[KnowledgeVector] = None) -> float:
        if k is not None and self.knowledge_step_cost is not None:
            c = self.knowledge_step_cost(s, a, k)
            if c is not None:
                return c
        return self.cost(s, a)

    def is_terminal(self, s: State, k: KnowledgeVector) -> bool:
        if self.terminal_test is not None:
            return self.terminal_test(s, k)
        i = self._membership.get(s)
        return i is not None and bool(k.yes & (1 << i))

    def exit_cost(self, s: State) -> float:
        if self.terminal_cost is None:
            return 0.0
        return self.terminal_cost(s)

    def target_done(self, s: State, target: int) -> bool:
        """Has the determinized target been achieved at ``s``?"""
        if self.det_target_done is not None:
            return self.det_target_done(s, target)
        return self._membership.get(s) == target

    def sample_config(self, rng: random.Random) -> int:
        u = rng.random()
        acc = 0.0
        items = self.prior.config_probs()
        for mask, p in items.items():
            acc += p
            if u < acc:
                return mask
        return next(reversed(items))

    # -- validation --------------------------------------------------------

    def _validate_dynamics(self) -> None:
        for s in self.base_states:
            terminal = bool(self.base_terminal and self.base_terminal(s))
            for a in self.actions:
                rows = self.transition(s, a)
                total = 0.0
                for s2, p in rows:
                    if p < -PROB_TOL:
                        raise ModelError(f"negative probability in row ({s!r}, {a!r})")
                    if s2 not in self._state_set:
                        raise ModelError(f"transition target {s2!r} is not a base state")
                    total += p
                if abs(total - 1.0) > PROB_TOL:
                    raise ModelError(
                        f"row ({s!r}, {a!r}) sums to {total!r}, expected 1"
                    )
                c = self.cost(s, a)
                if c < 0:
                    raise ModelError(f"negative cost at ({s!r}, {a!r})")
                if terminal:
                    if c != 0 or rows[0][0] != s or len(rows) != 1:
                        raise ModelError(
                            f"terminal base state {s!r} must self-loop at zero cost"
                        )
                elif c == 0 and not self.allow_zero_costs:
                    raise ModelError(
                        f"zero cost at nonterminal ({s!r}, {a!r}); "
                        "set allow_zero_costs only when termination is structural"
                    )


def observe(model: GusspModel, s_arrived: State, g_true) -> Observation:
    """Myopic observation emitted on arrival at ``s_arrived`` under ``g_true``."""
    g = model.config_mask(g_true)
    revealed = model.reveal_indices(s_arrived)
    return Observation(yes=revealed & g, no=revealed & ~g)


def apply_observation(k: KnowledgeVector, obs: Observation) -> KnowledgeVector:
    """Fold an observation into a knowledge vector.

    Raises :class:`ContradictoryObservation` if the observation conflicts
    with an already-confirmed status.
    """
    if obs.is_empty:
        return k
    return k.confirm(yes=obs.yes, no=obs.no)


def step_world(
    model: GusspModel, s: State, a: Action, g_mask: int, rng: random.Random
) -> Tuple[State, float, Observation]:
    """One environment step under the true configuration ``g_mask``.

    Outcomes and costs come from the model evaluated at the fully collapsed
    knowledge vector of ``g_mask`` (the world knows the truth); the returned
    observation is what the agent gets to see.
    """
    from .rng import sample_row

    k_true = model.collapsed_knowledge(g_mask)
    paid = model.step_cost(s, a, k_true)
    rows = model.transition_rows(s, a, k_true)
    s2 = sample_row(list(rows), rng)
    return s2, paid, observe(model, s2, g_mask)
