"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SaturationError(ArithmeticError):
    """A ratio could not be formed because its denominator underflowed.

    ``last_value`` carries the largest representable value computed before
    saturation, when one exists.
    """

    def __init__(self, message, last_value=None):
        super().__init__(message)
        self.last_value = last_value


class NoInteriorModeError(RuntimeError):
    """The density has no stationary point on the scan grid."""


class QuadratureAccuracyError(ArithmeticError):
    """Adaptive integration exhausted its budget above the error target."""

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ExpansionStabilityError(ValueError):
    """An alternating binomial expansion was requested beyond its stable range."""


class ConvergenceError(RuntimeError):
    """No optimizer start satisfied the convergence criteria."""

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class NumericError(ArithmeticError):
    """A computed quantity that must be finite is not."""


class DataFormatError(ValueError):
    """Input text could not be parsed into a dataset."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
