"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all invarcheck errors."""


class InputError(ToolkitError, ValueError):
    """Malformed or inconsistent input data."""


class DimensionMismatch(InputError):
    """Operands have incompatible dimensions."""


class SingularMatrix(ToolkitError):
    """Elimination hit a pivot below the singularity threshold."""


class NoConvergence(ToolkitError):
    """An iteration exhausted its budget without converging."""


class NotPositiveDefinite(ToolkitError):
    """A matrix required to be positive definite is not."""


class BadBracket(InputError):
    """Degenerate or non-finite bracket for a scalar minimization."""


class EmptyBoundary(ToolkitError):
    """No boundary point could be produced (degenerate or empty set)."""


class NotMember(ToolkitError):
    """The query point lies outside the set."""


class NumericalFailure(ToolkitError):
    """A solver failed for numerical reasons (cycling, stalling)."""


class IterationLimit(NumericalFailure):
    """Active-set iteration exceeded its change budget."""


class EmptySet(ToolkitError):
    """The set under test is empty."""
