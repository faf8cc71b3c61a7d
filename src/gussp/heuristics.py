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
    """Backward uniform-cost search from every potential goal's sites, over
    the edges of the model's base table."""
    table = model.base_table
    n_actions = len(table.actions)
    # per sid: each predecessor sid and the cheapest action cost into it
    redges: List[Dict[int, float]] = [{} for _ in table.states]
    for pair, w in enumerate(table.costs):
        sid = pair // n_actions
        for sid2, _p in table.rows[pair][1]:
            if sid2 != sid and w < redges[sid2].get(sid, INF):
                redges[sid2][sid] = w

    dist = [[INF] * model.n_goals for _ in redges]
    for i in range(model.n_goals):
        heap: List[Tuple[float, int, int]] = []
        tie = itertools.count()
        done = set()
        for site in model.goal_sites(i):
            dist[table.sid[site]][i] = 0.0
            heapq.heappush(heap, (0.0, next(tie), table.sid[site]))
        while heap:
            d, _, sid = heapq.heappop(heap)
            if sid in done:
                continue
            done.add(sid)
            for prev, w in redges[sid].items():
                nd = d + w
                if nd < dist[prev][i]:
                    dist[prev][i] = nd
                    heapq.heappush(heap, (nd, next(tie), prev))
    return DistanceOracle(n_goals=model.n_goals, _dist=dict(zip(table.states, dist)))


class HpgHeuristic:
    """Belief-discounted distance to the nearest still-possible goal.

    The defining form is a minimum over consistent configurations g of
    ``(1 - b(g)) * min_{i in g} d(s, i)``.  Swapping the two minima gives
    ``min_i m_i(k) * d(s, i)`` with ``m_i(k) = min_{g containing i}
    (1 - b(g))``.  Since ``fl(1 - x)`` is monotone, ``m_i(k)`` is ``1 -
    b(g)`` for the most probable consistent g that holds ``i``: one scan of
    the posterior from its largest mass down, stopped once every possible
    goal is covered, gives all of them, exactly as a minimum over the whole
    posterior would.  A value depends only on the compiled id, so each id
    is evaluated once."""

    def __init__(self, ssp, oracle: DistanceOracle):
        self.ssp = ssp
        self.oracle = oracle
        self.prior = ssp.model.prior
        # per knowledge vector: cheapest complement mass per goal index
        self._mult: Dict[KnowledgeVector, List[float]] = {}
        self._memo: Dict[int, float] = {}

    def _multipliers(self, k: KnowledgeVector) -> List[float]:
        mult = self._mult.get(k)
        if mult is None:
            import numpy as np

            mult = [INF] * self.prior.n
            masks, probs = self.prior.posterior(k)
            todo = k.yes | k.unknown_mask
            # largest mass first: a stable ascending sort read backwards puts
            # larger masks first among equal masses, so yes | unknown, which
            # holds every possible goal, leads its ties
            order = np.argsort(np.frombuffer(probs), kind="stable")[::-1]
            for j in map(int, order):
                new = masks[j] & todo
                if new:
                    weight = 1.0 - probs[j]
                    for i in bits_of(new):
                        mult[i] = weight
                    todo ^= new
                    if not todo:
                        break
            self._mult[k] = mult
        return mult

    def __call__(self, x_id: int) -> float:
        v = self._memo.get(x_id)
        if v is None:
            v = self._memo[x_id] = self._evaluate(x_id)
        return v

    def _evaluate(self, x_id: int) -> float:
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
        if ssp.goal_flags[x_id]:
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
            if ssp.goal_flags[j]:
                heapq.heappush(heap, (d, next(tie), GOAL_TOKEN, j))
                continue
            for _a, w, row in ssp.q_rows(j):
                nd = d + w
                for j2, p in row:
                    if p <= 0.0:
                        continue
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
    """Factory used by the CLI and harness: one of ``zero``, ``hmin``, ``hpg``.
    Without ``oracle``, hpg reuses the one ``compile_gussp`` built for its
    properness check, or builds one."""
    if name == "zero":
        return zero_heuristic
    if name == "hmin":
        return HminHeuristic(ssp)
    if name == "hpg":
        if oracle is None:
            oracle = ssp.distance_oracle or build_distance_oracle(ssp.model)
        return HpgHeuristic(ssp, oracle)
    raise ValueError(f"unknown heuristic {name!r}")
