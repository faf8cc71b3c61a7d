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

Partial observability is confined to the goals, so the base dynamics do not
depend on the knowledge vector.  Each model therefore reads and checks
every base row and cost once, as it is built, into one :class:`BaseTable`
(``model.base_table``): the compiler, every determinized plan, the
distance oracle, the base checks, the world step and the episode loop read
the base dynamics from it.  The knowledge hooks, which let confirmed goals
change an action, are asked only at the model's hook sites, the base
states it declares they can answer at (every state by default).
"""

from __future__ import annotations

import enum
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from math import inf as INF
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    ContradictoryObservation,
    InconsistentKnowledge,
    InvalidInstance,
    ModelError,
    TooManyGoals,
)
from .rng import sample_row

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


def submasks(u: int, base: int = 0):
    """``base | s`` for every submask ``s`` of ``u``, in increasing order, as
    a numpy ``int64`` array; ``base`` must be disjoint from ``u``.  Each bit
    of ``u``, lowest first, doubles the filled prefix as its new top bit."""
    import numpy as np

    masks = np.empty(1 << u.bit_count(), dtype=np.int64)
    masks[0], h = base, 1
    for i in bits_of(u):
        np.bitwise_or(masks[:h], 1 << i, out=masks[h:2 * h])
        h *= 2
    return masks


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
    * ``explicit``: finite nonnegative weights per configuration mask
      (normalized).
    * ``bernoulli``: independent per-goal marginals, conditioned on the
      configuration being nonempty.

    The prior is two flat tables indexed by mask over all ``2**n`` masks: the
    masses (``array('d')``) and which masks are configurations
    (``bytearray``).  Presence is kept apart from mass, so a configuration
    whose normalized mass underflows to 0.0 stays one.  Building them needs
    no numpy; the queries given a knowledge vector import it at their first
    cache miss.  They visit the consistent configurations in increasing mask
    order, and each sum folds in the order a loop over all configurations
    would; every float they return is a Python ``float``.
    """

    def __init__(self, n: int, mass: array, present: bytearray):
        self.n = n
        self._mass = mass
        self._present = present
        # keyed by (k.yes << n) | k.no
        self._posterior_cache: Dict[int, Tuple[array, array]] = {}
        self._marginal_cache: Dict[int, List[float]] = {}
        self._cumulative: Optional[Tuple[List[int], List[float]]] = None

    @classmethod
    def uniform(cls, n: int) -> "GoalPrior":
        _check_n(n)
        mass = array("d", [1.0 / ((1 << n) - 1)]) * (1 << n)
        present = bytearray(b"\x01") * (1 << n)
        mass[0] = present[0] = 0
        return cls(n, mass, present)

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
            if not w < INF:
                raise InvalidInstance(f"configuration weight {w!r} is not finite")
            if w > 0:
                probs[mask] = probs.get(mask, 0.0) + float(w)
        total = sum(probs.values())
        if total <= 0:
            raise InvalidInstance("explicit prior has no positive-weight configuration")
        mass, present = array("d", bytes(8 << n)), bytearray(1 << n)
        for m, w in probs.items():
            mass[m], present[m] = w / total, 1
        return cls(n, mass, present)

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
        # w[mask] = product over goals i = 0, 1, ... of p_i or 1 - p_i, each
        # goal's factor doubling the table with its bit as the new top bit
        w = [1.0]
        for p in marginals:
            q = 1.0 - p
            w = [x * q for x in w] + [x * p for x in w]
        mass = array("d", [x / norm for x in w])
        present = bytearray(x > 0 for x in w)
        mass[0] = present[0] = 0
        return cls(n, mass, present)

    def config_probs(self) -> Dict[int, float]:
        """Mass of each configuration, in increasing mask order."""
        mass = self._mass
        return {m: mass[m] for m in compress(range(len(mass)), self._present)}

    def posterior(self, k: KnowledgeVector) -> Tuple[array, array]:
        """Prior conditioned on the knowledge vector, as two arrays: the
        consistent configuration masks in increasing order (``'q'``) and
        their probabilities (``'d'``).

        Raises :class:`InconsistentKnowledge` when no configuration with
        positive mass matches ``k``.
        """
        key = (k.yes << k.n) | k.no
        cached = self._posterior_cache.get(key)
        if cached is not None:
            return cached
        import numpy as np

        masks = submasks(k.unknown_mask, k.yes)
        masks = masks[np.frombuffer(self._present, dtype=bool)[masks]]
        sel = np.frombuffer(self._mass)[masks]
        total = sum(sel.tolist())  # the builtin's fold, not numpy's pairwise sum
        if total <= 0:
            raise InconsistentKnowledge(f"no configuration consistent with {k}")
        post = array("q", masks.tobytes()), array("d", (sel / total).tobytes())
        self._posterior_cache[key] = post
        return post

    def marginal(self, k: KnowledgeVector, i: int) -> float:
        bit = 1 << i
        if k.yes & bit:
            return 1.0
        if k.no & bit:
            return 0.0
        key = (k.yes << k.n) | k.no
        row = self._marginal_cache.get(key)
        if row is None:
            import numpy as np

            masks, probs = self.posterior(k)
            masks, probs = np.frombuffer(masks, np.int64), np.frombuffer(probs)
            # per goal, the builtin sum of the posterior mass of the
            # configurations holding it, in posterior order (an empty sum is
            # the int 0)
            row = self._marginal_cache[key] = [
                float(sum(probs[(masks & (1 << j)) != 0].tolist())) for j in range(self.n)
            ]
        return row[i]

    def config_at(self, u: float) -> int:
        """The configuration a uniform draw ``u`` selects: the first, in mask
        order, whose running mass exceeds ``u``, or the last one."""
        if self._cumulative is None:
            probs = self.config_probs()
            self._cumulative = list(probs), list(accumulate(probs.values()))
        masks, cumulative = self._cumulative
        return masks[min(bisect_right(cumulative, u), len(masks) - 1)]


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
    configuration.  A hook's row gets the base rows' checks and a hook's
    cost the base costs' (``0 <= c < inf``) wherever it is read.
    ``hook_sites``, the base states where the two knowledge hooks can
    answer, default every state: the compiler, the world step and the
    episode loop ask both hooks there and nowhere else, so a hook must
    answer ``None`` off its sites; a site that is not a base state is an
    :class:`InvalidInstance`.  The other hooks see the base state alone:
    ``terminal_test(s)`` overrides the default termination rule (standing
    on a potential goal confirmed true), ``det_target_done(s, t)`` the
    default test of a plan's target ``t`` (standing on one of its sites),
    and ``terminal_cost(s)`` is a nonnegative cost charged once where the
    process terminates.  The constructor reads each of them, as well as
    ``transition`` and ``cost``, once per argument into ``base_table``, and
    the library never calls them again.
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
        terminal_test: Optional[Callable[[State], bool]] = None,
        terminal_cost: Optional[Callable[[State], float]] = None,
        base_terminal: Optional[Callable[[State], bool]] = None,
        det_target_done: Optional[Callable[[State, int], bool]] = None,
        allow_zero_costs: bool = False,
        hook_sites: Optional[Iterable[State]] = None,
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

        state_set = set(self.base_states)
        if len(state_set) != len(self.base_states):
            raise InvalidInstance("duplicate base states")
        if start_state not in state_set:
            raise InvalidInstance("start state is not a base state")
        self.hook_sites = None if hook_sites is None else tuple(hook_sites)
        stray = [s for s in self.hook_sites or () if s not in state_set]
        if stray:
            raise InvalidInstance(f"hook sites are not base states: {stray!r}")

        self._goal_index: Dict[Hashable, int] = {
            g: i for i, g in enumerate(self.potential_goals)
        }
        # goal sites: base states that instantiate each potential-goal index
        if goal_membership is None:
            missing = [g for g in self.potential_goals if g not in state_set]
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
            if s not in state_set:
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

        # knowledge vectors are immutable: every episode shares these
        self._all_unknown = KnowledgeVector.all_unknown(self.n_goals)
        self._collapsed: Dict[int, KnowledgeVector] = {}
        self.base_table = BaseTable(self)

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

    def knowledge_all_unknown(self) -> KnowledgeVector:
        """The all-unknown vector, one object per model."""
        return self._all_unknown

    def collapsed_knowledge(self, config_mask: int) -> KnowledgeVector:
        """The fully determined vector of ``config_mask``, built once per mask."""
        k = self._collapsed.get(config_mask)
        if k is None:
            k = self._collapsed[config_mask] = KnowledgeVector.collapsed(self.n_goals, config_mask)
        return k

    # -- the goal rule, read from the base table -----------------------------

    def is_terminal(self, s: State, k: KnowledgeVector) -> bool:
        t = self.base_table
        return bool(t.terminal[t.sid[s]] or k.yes & t.goal_bit[t.sid[s]])

    def exit_cost(self, s: State) -> float:
        t = self.base_table
        return 0.0 if t.exit_cost is None else t.exit_cost[t.sid[s]]

    def target_done(self, s: State, target: int) -> bool:
        """Has the determinized target been achieved at ``s``?"""
        return bool(self.base_table.done[self.base_table.sid[s]] >> target & 1)

    def sample_config(self, rng: random.Random) -> int:
        return self.prior.config_at(rng.random())

Row = Tuple[Tuple[int, float], ...]


def _where(s: State, a: Action, k: Optional[KnowledgeVector]) -> str:
    return f"({s!r}, {a!r})" if k is None else f"({s!r}, {k}) / {a!r}"


def checked_cost(
    c: float, s: State, a: Optional[Action] = None, k: Optional[KnowledgeVector] = None
) -> float:
    """``c`` if ``0 <= c < inf``, else :class:`ModelError`: the cost of
    ``(s, a)``, a hook's answer there with ``k``, or without ``a`` the
    terminal cost at ``s``."""
    if 0.0 <= c < INF:
        return c
    where = f"terminal state {s!r}" if a is None else _where(s, a, k)
    raise ModelError(
        f"negative cost at {where}" if c < 0 else f"cost {c!r} at {where} is not finite"
    )


class BaseTable:
    """The base dynamics of one model, read and checked once, as the model
    is built.

    ``sid`` numbers the base states in ``model.base_states`` order, and a
    ``pair`` is ``sid * len(actions)`` plus the action's position.  The
    constructor reads the base-state hooks, then ``model.transition(s, a)``
    and ``model.cost(s, a)`` once per pair, in pair order, and raises
    :class:`ModelError` at the first exit cost, row or cost the model does
    not allow.  It keeps per pair in ``rows`` the checked row (``p > 0``
    outcomes as ``(sid, p)``, in ``transition`` order), the row merged by
    successor in first-seen order and the OR of its successors' reveal
    masks, and in ``costs`` the cost.  Per ``sid``, ``unions`` holds its
    distinct successors over all actions, in first-seen order, and their
    reveal-mask OR; ``hook_site`` is 1 at the model's hook sites, or
    nowhere for a model without knowledge hooks; and the goal rule is kept:
    the model terminates at ``(sid, k)`` iff ``terminal[sid] or k.yes &
    goal_bit[sid]`` (``terminal_test``, else the bit of the goal ``s``
    instantiates), a plan for target ``t`` also ends where ``done[sid] >> t
    & 1``, and ``exit_cost`` holds the checked ``terminal_cost``, if any."""

    def __init__(self, model: GusspModel):
        self.states, self.actions = states, actions = model.base_states, model.actions
        self.action_index = {a: n for n, a in enumerate(actions)}
        self.sid = {s: n for n, s in enumerate(states)}
        self.reveal = reveal = [model.reveal_indices(s) for s in states]
        self.rows: List[Tuple[Row, Row, int]] = []
        self.costs: List[float] = []
        self.unions: List[Tuple[Tuple[int, ...], int]] = []
        transition, cost, base_terminal = model.transition, model.cost, model.base_terminal
        checked, exit_cost = self.checked, model.terminal_cost
        self.hook_site = bytearray(len(states))
        if model.knowledge_effects is not None or model.knowledge_step_cost is not None:
            sites = model.hook_sites
            for sid in range(len(states)) if sites is None else map(self.sid.get, sites):
                self.hook_site[sid] = 1
        bits = [0 if i is None else 1 << i for i in map(model._membership.get, states)]
        tested, done, n_goals = model.terminal_test, model.det_target_done, model.n_goals
        self.terminal = bytearray(len(states) if tested is None else map(bool, map(tested, states)))
        self.goal_bit = bits if tested is None else [0] * len(states)
        self.done = bits if done is None else [
            sum(1 << t for t in range(n_goals) if done(s, t)) for s in states]
        self.exit_cost: Optional[List[float]] = None if exit_cost is None else [
            checked_cost(exit_cost(s), s) for s in states]
        for s in states:
            loops = bool(base_terminal and base_terminal(s))
            union, union_mask = {}, 0  # union: only its keys, in first-seen order, are kept
            for a in actions:
                raw = transition(s, a)
                row, merged, mask = checked(raw, s, a), {}, 0
                for sid2, p in row:
                    merged[sid2] = merged.get(sid2, 0.0) + p
                    mask |= reveal[sid2]
                c = checked_cost(cost(s, a), s, a)
                if loops:
                    if c != 0 or raw[0][0] != s or len(raw) != 1:
                        raise ModelError(f"terminal base state {s!r} must self-loop at zero cost")
                elif c == 0 and not model.allow_zero_costs:
                    raise ModelError(
                        f"zero cost at nonterminal ({s!r}, {a!r}); "
                        "set allow_zero_costs only when termination is structural"
                    )
                # without repeated successors the merged row is the row itself
                merged = row if len(merged) == len(row) else tuple(merged.items())
                self.rows.append((row, merged, mask))
                self.costs.append(c)
                union.update(merged)
                union_mask |= mask
            self.unions.append((tuple(union), union_mask))

    def checked(self, rows, s: State, a: Action, k: Optional[KnowledgeVector] = None) -> Row:
        """The ``p > 0`` outcomes of ``rows`` as ``(sid, p)``, in order:
        the base row of ``(s, a)``, or with ``k`` a hook's answer there.
        :class:`ModelError` if a successor is not a base state, a
        probability is negative or they do not sum to 1."""
        sid, out, total = self.sid, [], 0.0
        for s2, p in rows:
            if p < -PROB_TOL:
                raise ModelError(f"negative probability in row {_where(s, a, k)}")
            sid2 = sid.get(s2)
            if sid2 is None:
                raise ModelError(f"successor {s2!r} of {_where(s, a, k)} is not a base state")
            total += p
            if p > 0.0:
                out.append((sid2, p))
        if not abs(total - 1.0) <= PROB_TOL:  # a NaN fails it too
            raise ModelError(f"row {_where(s, a, k)} sums to {total!r}, expected 1")
        return tuple(out)

    @cached_property
    def goal_arrays(self):
        """``terminal``, ``goal_bit`` and ``done`` as numpy arrays (``bool``,
        ``int64``, ``int64``), made on first use."""
        import numpy as np

        return (np.frombuffer(self.terminal, dtype=bool),
                np.array(self.goal_bit, dtype=np.int64), np.array(self.done, dtype=np.int64))

    @cached_property
    def union_csr(self):
        """The successor unions over the ``sid`` as ``indptr`` and ``succ``,
        and their reveal masks as ``mask``: numpy arrays made on first use."""
        import numpy as np

        indptr = np.zeros(len(self.unions) + 1, dtype=np.intc)
        np.cumsum([len(u) for u, _mask in self.unions], out=indptr[1:])
        succ = np.array([sid2 for u, _mask in self.unions for sid2 in u], dtype=np.intc)
        return indptr, succ, np.array([mask for _u, mask in self.unions], dtype=np.int64)

    @cached_property
    def csr(self):
        """The merged rows over the pairs as ``indptr``, ``succ`` and
        ``prob``, and the costs as ``cost``: numpy arrays made on first use."""
        import numpy as np

        merged = [memo[1] for memo in self.rows]
        indptr = np.zeros(len(merged) + 1, dtype=np.intc)
        np.cumsum([len(m) for m in merged], out=indptr[1:])
        succ = np.array([sid2 for m in merged for sid2, _p in m], dtype=np.intc)
        prob = np.array([p for m in merged for _sid2, p in m], dtype=float)
        return indptr, succ, prob, np.array(self.costs, dtype=float)


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
    model: GusspModel,
    s: State,
    a: Action,
    g_mask: int,
    k_true: KnowledgeVector,
    rng: random.Random,
) -> Tuple[State, float, Observation]:
    """One environment step under the true configuration ``g_mask``.

    At a hook site the hooks are asked at ``k_true``, the collapsed
    knowledge vector of ``g_mask`` (the world knows the truth), the cost
    hook first; the base table's row and cost, checked when the model was
    built, stand in where they do not answer, a hook's row is checked here,
    and the outcome is one draw over the checked row.  The observation, what the agent gets
    to see, is :func:`observe`'s, from the table's reveal mask.  This is the
    public one-step API; ``harness_types.run_episode`` takes the same step
    inline and builds the observation only for a trace."""
    table = model.base_table
    sid = table.sid[s]
    pair = sid * len(table.actions) + table.action_index[a]
    paid = rows = None
    if table.hook_site[sid]:
        if model.knowledge_step_cost is not None:
            paid = model.knowledge_step_cost(s, a, k_true)
        if model.knowledge_effects is not None:
            rows = model.knowledge_effects(s, a, k_true)
    sid2 = sample_row(table.rows[pair][0] if rows is None else table.checked(rows, s, a, k_true), rng)
    revealed = table.reveal[sid2]
    obs = Observation(yes=revealed & g_mask, no=revealed & ~g_mask)
    paid = table.costs[pair] if paid is None else checked_cost(paid, s, a, k_true)
    return table.states[sid2], paid, obs
