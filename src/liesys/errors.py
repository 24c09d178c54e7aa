"""Exception types shared across the package."""


class LiesysError(Exception):
    """Base class for all package errors."""


class ParseError(LiesysError):
    """Malformed expression text.  Carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(LiesysError):
    """Expression could not be evaluated (missing name, zero denominator, domain error)."""


class ChartMismatchError(LiesysError):
    """Operation mixing vector fields or expressions on different charts."""


class SchemaError(LiesysError):
    """Problem file or report document violates its JSON schema."""


class ClosureCapError(LiesysError):
    """No finite Lie closure found up to the dimension cap (not proof of infinite dimension)."""


class RankTestError(LiesysError):
    """Rank sampling produced an internally inconsistent result (non-generic input)."""


class FundamentalSetError(LiesysError):
    """Could not assemble a fundamental tuple of initial points."""


class NonConvergenceError(LiesysError):
    """Newton leaf solve failed to converge; carries the time at which it failed."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t={t:.6g})")
        self.t = t


class SingularDomainError(LiesysError):
    """A tuple left the rule's generic domain; carries the offending time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t={t:.6g})")
        self.t = t


class NotFlatError(LiesysError):
    """Path solving requested on a system whose curvature is not zero."""


class IntegrationBlowUpError(LiesysError):
    """A path segment stopped short of its end: blow-up, step underflow or step budget."""
