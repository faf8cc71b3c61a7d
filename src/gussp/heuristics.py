"""Admissible heuristics for the compiled problem.

Two informed heuristics are provided next to the trivial zero baseline:

* ``hpg`` discounts the distance to each still-possible goal configuration
  by how unlikely that configuration is: the value at a state is the
  minimum over consistent configurations g of ``(1 - b(g)) * min_{i in g}
  d(s, i)``, where ``b`` is the posterior given the knowledge vector and
  ``d`` comes from a :class:`DistanceOracle` on the base model.

* ``hmin`` relaxes the compiled problem itself: every action keeps only its
  cheapest outcome, and the heuristic is the shortest-path cost to a goal
  in that deterministic graph.

Both are zero exactly at goal states and never exceed the optimal value.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .model import GusspModel, KnowledgeVector, State, bits_of

INF = math.inf


@dataclass
class DistanceOracle:
    """Cheapest base-model trajectory cost from any state to each potential goal.

    Distances use the all-outcome determinization of the base dynamics: an
    edge s -> s' exists when some action can produce s', weighted by the
    cheapest such action.  Unreachable pairs are ``inf``.
    """

    n_goals: int
    _dist: Dict[State, List[float]]

    def dist(self, s: State, i: int) -> float:
        row = self._dist.get(s)
        if row is None:
            return INF
        return row[i]


def build_distance_oracle(model: GusspModel) -> DistanceOracle:
    """Backward uniform-cost search from every potential goal's sites."""
    redges: Dict[State, Dict[State, float]] = {s: {} for s in model.base_states}
    for s in model.base_states:
        for a in model.actions:
            w = model.cost(s, a)
            for s2, p in model.transition(s, a):
                if p <= 0.0 or s2 == s:
                    continue
                prev = redges[s2].get(s)
                if prev is None or w < prev:
                    redges[s2][s] = w

    dist: Dict[State, List[float]] = {s: [INF] * model.n_goals for s in model.base_states}
    for i in range(model.n_goals):
        heap: List[Tuple[float, int, State]] = []
        tie = itertools.count()
        done = set()
        for site in model.goal_sites(i):
            dist[site][i] = 0.0
            heapq.heappush(heap, (0.0, next(tie), site))
        while heap:
            d, _, s = heapq.heappop(heap)
            if s in done:
                continue
            done.add(s)
            for prev, w in redges[s].items():
                nd = d + w
                if nd < dist[prev][i]:
                    dist[prev][i] = nd
                    heapq.heappush(heap, (nd, next(tie), prev))
    return DistanceOracle(n_goals=model.n_goals, _dist=dist)


class HpgHeuristic:
    """Belief-discounted distance to the nearest still-possible goal.

    The defining form is a minimum over consistent configurations g of
    ``(1 - b(g)) * min_{i in g} d(s, i)``.  Swapping the two minima gives
    ``min_i m_i(k) * d(s, i)`` with ``m_i(k) = min_{g containing i}
    (1 - b(g))``, so one pass over the posterior per knowledge vector is
    enough and each evaluation costs O(n_goals)."""

    def __init__(self, ssp, oracle: DistanceOracle):
        self.ssp = ssp
        self.oracle = oracle
        self.prior = ssp.model.prior
        # per knowledge vector: cheapest complement mass per goal index
        self._mult: Dict[KnowledgeVector, List[float]] = {}

    def _multipliers(self, k: KnowledgeVector) -> List[float]:
        mult = self._mult.get(k)
        if mult is None:
            mult = [INF] * self.prior.n
            for mask, p in self.prior.posterior(k).items():
                weight = 1.0 - p
                for i in bits_of(mask):
                    if weight < mult[i]:
                        mult[i] = weight
            self._mult[k] = mult
        return mult

    def __call__(self, x_id: int) -> float:
        if self.ssp.is_goal(x_id):
            return 0.0
        x = self.ssp.state(x_id)
        dist = self.oracle.dist
        best = INF
        for i, weight in enumerate(self._multipliers(x.k)):
            if weight is INF:
                continue
            if weight == 0.0:
                # some still-possible configuration is certain
                return 0.0
            v = weight * dist(x.s, i)
            if v < best:
                best = v
        return best


class HminHeuristic:
    """Shortest-path cost to a goal in the min-outcome determinized compiled graph.

    Computed on demand by forward uniform-cost search; exact values are
    cached along the best path so repeated queries on nearby states stay
    cheap even when the compiled graph is generated lazily.
    """

    def __init__(self, ssp):
        self.ssp = ssp
        self.cache: Dict[int, float] = {}

    def __call__(self, x_id: int) -> float:
        cached = self.cache.get(x_id)
        if cached is not None:
            return cached
        ssp = self.ssp
        if ssp.is_goal(x_id):
            self.cache[x_id] = 0.0
            return 0.0

        dist: Dict[int, float] = {x_id: 0.0}
        parent: Dict[int, int] = {}
        heap: List[Tuple[float, int, int, int]] = [(0.0, 0, x_id, -1)]
        tie = itertools.count(1)
        done = set()
        GOAL_TOKEN = -2
        answer = INF
        answer_via = -1
        while heap:
            d, _, j, via = heapq.heappop(heap)
            if j == GOAL_TOKEN:
                answer = d
                answer_via = via
                break
            if j in done:
                continue
            done.add(j)
            known = self.cache.get(j)
            if known is not None:
                heapq.heappush(heap, (d + known, next(tie), GOAL_TOKEN, j))
                continue
            if ssp.is_goal(j):
                heapq.heappush(heap, (d, next(tie), GOAL_TOKEN, j))
                continue
            for a in ssp.actions:
                w = ssp.cost(j, a)
                for j2, p in ssp.successors(j, a):
                    if p <= 0.0:
                        continue
                    nd = d + w
                    if nd < dist.get(j2, INF):
                        dist[j2] = nd
                        parent[j2] = j
                        heapq.heappush(heap, (nd, next(tie), j2, -1))

        if answer is INF:
            for j in done:
                self.cache[j] = INF
            return INF
        # every state on the chosen path has an exact value
        z = answer_via
        while True:
            self.cache[z] = answer - dist[z]
            if z == x_id:
                break
            z = parent[z]
        return answer


def zero_heuristic(_x_id: int) -> float:
    return 0.0


def make_heuristic(
    name: str, ssp, oracle: Optional[DistanceOracle] = None
) -> Callable[[int], float]:
    """Factory used by the CLI and harness: one of ``zero``, ``hmin``, ``hpg``."""
    if name == "zero":
        return zero_heuristic
    if name == "hmin":
        return HminHeuristic(ssp)
    if name == "hpg":
        if oracle is None:
            oracle = build_distance_oracle(ssp.model)
        return HpgHeuristic(ssp, oracle)
    raise ValueError(f"unknown heuristic {name!r}")
