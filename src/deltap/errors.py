"""Exception types shared across the library."""


class DeltapError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DeltapError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(DeltapError, ValueError):
    """Interval bounds fall outside the domain of a piecewise function."""


class AccuracyError(DeltapError, RuntimeError):
    """A certified evaluation could not reach its bound: sign refinement
    of a SqrtSum past 4096 bits, the decimal path of a float-exponent
    ``power_integral`` past ``MAX_DECIMAL_DIGITS`` (a sum that cancels to
    zero or nearly), or ``adaptive_quadrature`` out of evaluations."""


class InvariantViolation(DeltapError, ValueError):
    """Constructed data violates a structural invariant.

    ``witness`` optionally carries a point, index or pair demonstrating
    the failure, so callers can report exactly where a check broke.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class StructureError(DeltapError, ValueError):
    """Inconsistent dimensions or malformed combinatorial input."""


class UnsupportedModelError(DeltapError, ValueError):
    """The model lacks data the operation needs (for example a non
    Q-Gorenstein fan has no log discrepancy)."""


class SemanticError(DeltapError, ValueError):
    """A semantic precondition fails, such as asking a Fano-only question
    of a polarization that is not anticanonical."""
