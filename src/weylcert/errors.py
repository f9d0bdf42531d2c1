"""Exception types shared across the package."""

from __future__ import annotations


class WeylcertError(Exception):
    """Base class for all package errors."""


class DomainError(WeylcertError, ValueError):
    """An argument lies outside the geometric domain of validity."""


class ParameterError(WeylcertError, ValueError):
    """Construction parameters violate their ordering or sign constraints."""


class InputError(WeylcertError, ValueError):
    """Malformed or inconsistent input data (matrices, partitions, configs)."""


class EvaluationError(WeylcertError, ArithmeticError):
    """An integrand returned NaN/inf; carries the offending sample point."""

    def __init__(self, message: str, point: float):
        super().__init__(message)
        self.point = point


class ConvergenceError(WeylcertError, RuntimeError):
    """An iteration cap was exceeded; carries the best estimate so far."""

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class CertificationImpossibleError(WeylcertError, RuntimeError):
    """A criterion hypothesis fails for this manifold; names the hypothesis.

    This is the designed negative-control path, not a bug.
    """

    def __init__(self, message: str, hypothesis: str):
        super().__init__(message)
        self.hypothesis = hypothesis


class InapplicableError(WeylcertError, RuntimeError):
    """The requested criterion does not apply to this test-function kind."""


class ValidationFailure(WeylcertError, RuntimeError):
    """Oracle cross-validation found an empty intersection; carries the report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
