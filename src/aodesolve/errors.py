"""Exception hierarchy shared by all modules."""


class SolverError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(SolverError, ZeroDivisionError):
    pass


class ExtensionLimitExceeded(SolverError):
    """Adjoining a root would push the tower past the degree cap.

    Carries the partial tower built so far in ``tower``.
    """

    def __init__(self, message, tower=None):
        super().__init__(message)
        self.tower = tower


class NotIrreducible(SolverError):
    """Input polynomial is reducible; ``witness`` is a nontrivial factor
    when one is available (always for splits over the rationals)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NoDerivative(SolverError):
    """Input polynomial does not involve y'."""


class TrivialLinear(SolverError):
    """Input polynomial is y' - lambda."""


class CommonComponent(SolverError):
    """The two polynomials of a system share a nonconstant factor."""


class PointNotOnCurve(SolverError):
    pass


class DegenerateInput(SolverError):
    """No admissible Newton polygon edge."""


class NotAUnit(SolverError):
    """Series inversion requires a certified nonzero constant term."""


class InnerNotPositiveOrder(SolverError):
    """Series composition requires the inner series to have order >= 1."""


class InsufficientPrecision(SolverError):
    """A certified order/coefficient is needed beyond the truncation."""


class NotOrderSuitable(SolverError):
    pass


class SeparantVanishes(SolverError):
    """The separant recursion is inapplicable at this initial tuple."""


class ParseError(SolverError):
    """Syntax error in CLI input; ``position`` is a 0-based offset."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
