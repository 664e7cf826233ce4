"""Exception and warning types shared across the package."""


class SupertreeError(Exception):
    """Base class for all errors raised by this package."""


class MultipleEdgeError(SupertreeError):
    """An operation would produce two identical edges."""


class DisconnectedInputError(SupertreeError):
    """The operation requires a connected hypergraph."""


class NonConvergenceError(SupertreeError):
    """Iteration budget exhausted before the bracket closed.

    Attributes:
        bracket: (low, high) eigenvalue bracket at the last iterate.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class PositivityError(SupertreeError):
    """A weight that must be positive is zero or negative."""


class IncidenceMismatchError(SupertreeError):
    """A weighted incidence matrix does not match the host hypergraph."""


class BracketError(SupertreeError):
    """The radius solver found no sign change or did not close its bracket;
    ``bracket`` is the last (low, high) radius bracket."""

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class SizeLimitError(SupertreeError):
    """Input exceeds the configured size guard for exhaustive search."""


class EnumerationLimitError(SupertreeError):
    """Requested edge count exceeds the enumeration cap."""


class CounterexampleFound(SupertreeError):
    """A verification run found an ordering violation.

    Attributes:
        offending: human-readable description of the violating pair.
    """

    def __init__(self, message: str, offending: tuple | None = None):
        super().__init__(message)
        self.offending = offending


class SearchExhaustedError(SupertreeError):
    """A guided search ran out of candidates."""


class DanglingVertexWarning(UserWarning):
    """Moving edges left at least one vertex with no incident edge."""
