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


class _Located(LiesysError):
    """An error at a time t, or at a node t = (row, column) of a PDE
    parameter grid, whose row indexes t1 and whose column indexes t2."""

    def __init__(self, message: str, t: float | tuple[int, int]):
        where = f"grid row {t[0]}, column {t[1]}" if isinstance(t, tuple) else f"t={t:.6g}"
        super().__init__(f"{message} ({where})")
        self.t = t


class NonConvergenceError(_Located):
    """Newton leaf solve failed to converge; carries where it failed."""


class SingularDomainError(_Located):
    """A tuple left the rule's generic domain; carries where."""


class NotFlatError(LiesysError):
    """Path solving requested on a system whose curvature is not zero."""


class IntegrationBlowUpError(LiesysError):
    """A path segment stopped short of its end: blow-up, step underflow or step budget."""
