"""Exception types shared across the package."""


class BirktrajError(Exception):
    """Base class for every error raised by this package."""


class InvalidOrderError(BirktrajError, ValueError):
    """Polynomial order N outside the supported range."""


class InvalidDomainError(BirktrajError, ValueError):
    """Domain endpoints are non-finite or not strictly increasing."""


class UnsupportedGridError(BirktrajError, ValueError):
    """Grid lacks a property the operation requires (e.g. endpoint inclusion)."""


class IllConditionedBasisError(BirktrajError, ArithmeticError):
    """Modal transform too inaccurate to trust the constructed basis."""


class ShapeError(BirktrajError, ValueError):
    """Array arguments have inconsistent shapes."""


class DomainError(BirktrajError, ValueError):
    """Evaluation point lies outside the grid domain."""


class DomainMismatchError(BirktrajError, ValueError):
    """Grid domain does not match the problem horizon."""


class IncompleteDerivativesError(BirktrajError, ValueError):
    """Required derivative callbacks were not supplied."""


class NotFoundError(BirktrajError, KeyError):
    """Unknown registry name."""

    # KeyError's str() is the repr of its key; the message reads as written
    __str__ = Exception.__str__


class EvaluationError(BirktrajError, ArithmeticError):
    """A user callback produced non-finite values."""


class NoConvergenceError(BirktrajError, ArithmeticError):
    """Iteration failed to reach the requested tolerance."""


class UnsupportedProblemError(BirktrajError, ValueError):
    """Problem violates a precondition of the requested algorithm."""


class UnsupportedMappingError(BirktrajError, ValueError):
    """No verified multiplier-to-costate map for this form/scaling choice."""


class DegenerateWeightError(BirktrajError, ArithmeticError):
    """A quadrature weight is zero where a division by it is required."""
