"""Exception types shared across the toolkit."""


class FdevalError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(FdevalError):
    """An argument violates a documented precondition."""


class NonConvergence(FdevalError):
    """An iterative solver exhausted its budget.

    Carries the last residual so callers can decide whether to retry.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class OptimizationFailure(FdevalError):
    """A per-iteration fit produced a non-finite objective."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration
