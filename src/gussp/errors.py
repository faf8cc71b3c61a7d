"""Exception types shared across the package."""


class GusspError(Exception):
    """Base class for all library errors."""


class ModelError(GusspError):
    """The problem definition itself is invalid."""


class InvalidInstance(ModelError):
    """An instance file or builder argument set does not describe a valid problem."""


class TooManyGoals(ModelError):
    """The potential-goal set exceeds the supported size."""


class ImproperModel(ModelError):
    """Some reachable state cannot reach a goal under any policy."""


class NonDeterministicModel(ModelError):
    """An operation that requires deterministic transitions was given a stochastic model."""


class InconsistentKnowledge(GusspError):
    """No goal configuration with positive prior mass matches the knowledge vector."""


class ContradictoryObservation(GusspError):
    """An observation conflicts with an already-confirmed goal status."""


class SolverError(GusspError):
    """A solver could not produce a usable result."""


class NonConvergence(SolverError):
    """Value iteration did not reach the residual tolerance within its sweep budget."""


class StateBudgetExceeded(SolverError):
    """Reachable-state enumeration hit the configured cap."""


class NoEligibleGoal(SolverError):
    """Goal selection found no potential goal that is still possibly true."""


class UnreachableVertex(GusspError):
    """A goal-graph vertex has no incoming path from the root."""
