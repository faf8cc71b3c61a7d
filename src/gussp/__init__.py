"""Planning under goal uncertainty: models, compilation to a standard
shortest-path MDP over knowledge states, optimal and approximate solvers,
and a benchmark harness."""

from .arborescence import (
    GoalGraph,
    audit_goal_graph,
    build_goal_graph,
    min_arborescence,
    visiting_order_oracle,
)
from .compiler import (
    CompiledSsp,
    CompiledState,
    Reachable,
    compile_gussp,
    dump_compiled,
    enumerate_reachable,
)
from .determinize import (
    PlanCache,
    execute_determinized,
    select_goal_cg,
    select_goal_mlg,
)
from .errors import (
    ContradictoryObservation,
    GusspError,
    ImproperModel,
    InconsistentKnowledge,
    InvalidInstance,
    ModelError,
    NoEligibleGoal,
    NonConvergence,
    NonDeterministicModel,
    SolverError,
    StateBudgetExceeded,
    TooManyGoals,
    UnreachableVertex,
)
from .harness import (
    BenchmarkReport,
    CellSpec,
    TrialRecord,
    execute_policy,
    run_cell,
)
from .heuristics import (
    DistanceOracle,
    HminHeuristic,
    HpgHeuristic,
    build_distance_oracle,
    make_heuristic,
    zero_heuristic,
)
from .model import (
    GoalPrior,
    GusspModel,
    KnowledgeVector,
    Observation,
    Status,
    apply_observation,
    observe,
    step_world,
)
from .solvers import (
    Solution,
    ValueTable,
    bellman_backup,
    flares,
    lao_star,
    value_iteration,
)

__version__ = "0.1.0"
