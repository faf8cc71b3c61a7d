"""Goal-graph analysis for deterministic-movement instances.

Builds a weighted digraph whose vertices are the start location (root) and
the potential goals, with edge weights discounting travel distance by the
probability that the destination actually is a goal.  A minimum arborescence
of that graph is a cheap structural lower-bound artifact; an exhaustive
visiting-order oracle computes the true expected cost of the best fixed
inspection order for small goal counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import NonDeterministicModel, TooManyGoals, UnreachableVertex
from .heuristics import DistanceOracle, build_distance_oracle
from .model import GusspModel

ROOT = 0

Edge = Tuple[int, int]


@dataclass(frozen=True)
class GoalGraph:
    """Root-plus-goals digraph.  Vertex 0 is the start; vertex i+1 is goal i."""

    n_vertices: int
    weights: Dict[Edge, float]
    distances: Dict[Edge, float]
    marginals: Tuple[float, ...]


def _check_deterministic(model: GusspModel) -> None:
    for s in model.base_states:
        for a in model.actions:
            rows = [p for _, p in model.transition_rows(s, a) if p > 0.0]
            if len(rows) != 1:
                raise NonDeterministicModel(
                    f"action {a!r} at {s!r} has {len(rows)} outcomes; "
                    "goal-graph analysis needs deterministic movement"
                )


def build_goal_graph(
    model: GusspModel, oracle: Optional[DistanceOracle] = None
) -> GoalGraph:
    """Weight each edge u->v by dist(u, v) * (1 - prior marginal of v)."""
    _check_deterministic(model)
    if oracle is None:
        oracle = build_distance_oracle(model)
    k0 = model.knowledge_all_unknown()
    marginals = tuple(model.prior.marginal(k0, i) for i in range(model.n_goals))

    def source_states(v: int):
        if v == ROOT:
            return (model.start_state,)
        return model.goal_sites(v - 1)

    n = model.n_goals + 1
    weights: Dict[Edge, float] = {}
    distances: Dict[Edge, float] = {}
    for v in range(1, n):
        goal = v - 1
        for u in range(n):
            if u == v:
                continue
            d = min(oracle.dist(s, goal) for s in source_states(u))
            if d == math.inf:
                continue
            distances[(u, v)] = d
            weights[(u, v)] = d * (1.0 - marginals[goal])
    return GoalGraph(n_vertices=n, weights=weights, distances=distances,
                     marginals=marginals)


@dataclass(frozen=True)
class Arborescence:
    parent: Dict[int, int]
    weight: float

    def edges(self) -> List[Edge]:
        return sorted((u, v) for v, u in self.parent.items())


def min_arborescence(
    n_vertices: int, weights: Dict[Edge, float], root: int = ROOT
) -> Arborescence:
    """Minimum-weight spanning arborescence rooted at ``root``.

    Recursive cycle-contraction; ties between equal-weight in-edges are
    broken toward the smaller source vertex so results are deterministic.
    """
    edges = [
        (u, v, w, eid)
        for eid, ((u, v), w) in enumerate(sorted(weights.items()))
        if u != v and v != root
    ]
    chosen = _contract(list(range(n_vertices)), edges, root, n_vertices)
    ordered = sorted(weights.items())
    parent: Dict[int, int] = {}
    total = 0.0
    for eid in chosen:
        (u, v), w = ordered[eid]
        parent[v] = u
        total += w
    return Arborescence(parent=parent, weight=total)


def _contract(vertices, edges, root, fresh):
    best = {}
    for u, v, w, payload in edges:
        cur = best.get(v)
        if cur is None or (w, u) < (cur[0], cur[1]):
            best[v] = (w, u, payload)
    for v in vertices:
        if v != root and v not in best:
            raise UnreachableVertex(f"no path from root to vertex {v}")

    cycle = _find_cycle(vertices, root, best)
    if cycle is None:
        return {best[v][2] for v in vertices if v != root}

    cyc = set(cycle)
    c = fresh
    sub_edges = []
    for u, v, w, payload in edges:
        if u in cyc and v in cyc:
            continue
        if v in cyc:
            sub_edges.append((u, c, w - best[v][0], ("into", payload, v)))
        elif u in cyc:
            sub_edges.append((c, v, w, ("keep", payload, None)))
        else:
            sub_edges.append((u, v, w, ("keep", payload, None)))
    sub_vertices = [x for x in vertices if x not in cyc] + [c]
    chosen = _contract(sub_vertices, sub_edges, root, fresh + 1)

    result = set()
    entry = None
    for tag, payload, v_entry in chosen:
        result.add(payload)
        if tag == "into":
            entry = v_entry
    for v in cycle:
        if v != entry:
            result.add(best[v][2])
    return result


def _find_cycle(vertices, root, best):
    color = {}
    for v0 in vertices:
        if v0 == root or v0 in color:
            continue
        path = []
        v = v0
        while v != root and color.get(v) is None:
            color[v] = v0
            path.append(v)
            v = best[v][1]
        if v != root and color.get(v) == v0 and v in path:
            return path[path.index(v):]
    return None


def visiting_order_oracle(
    model: GusspModel, oracle: Optional[DistanceOracle] = None
) -> Tuple[Tuple[int, ...], float]:
    """Best fixed order to inspect the potential goals, by brute force.

    The expected cost of an order charges each leg by the probability that
    every goal inspected before it turned out to be a non-goal.  Only
    tractable for small goal counts.
    """
    n = model.n_goals
    if n > 8:
        raise TooManyGoals(f"{n} goals is past the exhaustive-order limit of 8")
    _check_deterministic(model)
    if oracle is None:
        oracle = build_distance_oracle(model)
    configs = model.prior.config_probs()

    def dist_between(u: Optional[int], v: int) -> float:
        sources = (model.start_state,) if u is None else model.goal_sites(u)
        return min(oracle.dist(s, v) for s in sources)

    best_order: Tuple[int, ...] = ()
    best_cost = math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        survive_mask = 0
        prev: Optional[int] = None
        feasible = True
        for goal in perm:
            mass = sum(p for g, p in configs.items() if g & survive_mask == 0)
            if mass <= 0.0:
                break
            d = dist_between(prev, goal)
            if d == math.inf:
                feasible = False
                break
            total += d * mass
            survive_mask |= 1 << goal
            prev = goal
        if feasible and (total < best_cost or (total == best_cost and perm < best_order)):
            best_cost = total
            best_order = perm
    if best_cost == math.inf:
        raise UnreachableVertex("no feasible visiting order covers all goals")
    return best_order, best_cost


@dataclass(frozen=True)
class GoalGraphAudit:
    """Side-by-side numbers for one instance: the arborescence weight, the
    best-order expected cost, and (when supplied) the optimal value from a
    full solve.  The weight is a structural artifact, not a bound claim."""

    graph: GoalGraph
    arborescence: Arborescence
    order: Tuple[int, ...]
    order_cost: float
    optimal_value: Optional[float] = None

    def rows(self) -> List[Tuple[str, str]]:
        out = [
            ("arborescence_weight", f"{self.arborescence.weight:.9f}"),
            ("arborescence_edges",
             ";".join(f"{u}->{v}" for u, v in self.arborescence.edges())),
            ("best_order", ";".join(str(g) for g in self.order)),
            ("best_order_cost", f"{self.order_cost:.9f}"),
        ]
        if self.optimal_value is not None:
            out.append(("optimal_value", f"{self.optimal_value:.9f}"))
        return out


def audit_goal_graph(
    model: GusspModel, optimal_value: Optional[float] = None
) -> GoalGraphAudit:
    oracle = build_distance_oracle(model)
    graph = build_goal_graph(model, oracle)
    arb = min_arborescence(graph.n_vertices, graph.weights)
    order, cost = visiting_order_oracle(model, oracle)
    return GoalGraphAudit(graph=graph, arborescence=arb, order=order,
                          order_cost=cost, optimal_value=optimal_value)
