"""Exception types shared across the package."""

from __future__ import annotations


class TscalError(Exception):
    """Base class for every error raised by this package."""


class NotInScale(TscalError):
    """A point does not belong to the time scale, within membership tolerance."""


class ReversedBounds(TscalError):
    """Interval bounds arrived in descending order."""


class ScaleSpecError(TscalError, ValueError):
    """A scale-spec string does not match the mini-grammar."""


class ExprSyntaxError(TscalError, ValueError):
    """Expression source failed to parse."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class NonConstantExponent(ExprSyntaxError):
    """An exponent subtree depends on t and cannot fold to a constant."""


class DomainError(TscalError):
    """Evaluation left the real domain (log/sqrt of a negative, zero division)."""

    def __init__(self, message: str, expr=None, t: float | None = None):
        if t is not None:
            message = f"{message} at t={t!r}"
        super().__init__(message)
        self.expr = expr
        self.t = t


class NotDifferentiable(TscalError):
    """No derivative exists at the point, or none can be decided exactly."""


class NotInKappa(TscalError):
    """The point is outside the derivative domain (left-scattered maximum)."""


class NonPositivePoint(TscalError):
    """The operation requires t > 0 (or endpoints >= 0 for integrals)."""


class ZeroNotInScale(TscalError):
    """The zero-limit derivative needs 0 to be the minimum of the scale."""


class LimitDiverged(TscalError):
    """A numeric limit failed to stabilize within the configured budget."""


class InternalDisagreement(TscalError):
    """Two independent computation paths disagreed beyond tolerance."""


class PoleAtPoint(TscalError):
    """A reciprocal power rule was requested at a pole."""


class NoWitnessFound(TscalError):
    """No intermediate point satisfied the chain-rule residual bound."""


class QuadratureBudgetExceeded(TscalError):
    """Adaptive quadrature ran out of its subdivision budget."""


class EndpointSingularity(TscalError):
    """An integral endpoint at 0 did not converge under the tail policy."""


class NotRepresentable(TscalError):
    """A point or result beyond float resolution or range (2**53 hZ steps, overflow)."""


class UnknownLaw(TscalError):
    """The requested verification law identifier is not defined."""
