"""Typed failure modes for validation and geometry operations."""

import math


class TwistorError(Exception):
    """Base class for all library errors."""


class ValidationError(TwistorError):
    """A candidate object failed a membership or consistency check."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            text = f"{residual:.3e}"
            if math.isinf(float(text)) and math.isfinite(residual):  # .3e rounded past the largest float
                text = repr(float(residual))
            message = f"{message} (max residual {text})"
        super().__init__(message)
        self.residual = residual


class NotInZError(ValidationError):
    """The input does not define a member of the twistor space."""


class NotComplexError(NotInZError):
    """J^2 differs from -identity."""


class NotOrthogonalError(NotInZError):
    """J does not preserve the metric."""


class WrongOrientationError(NotInZError):
    """J induces the opposite orientation from the reference structure."""


class ParamDomainError(TwistorError):
    """Parameters violate their unit-sphere or domain constraint."""


class DomainError(TwistorError):
    """A closed-form expression was evaluated outside its domain."""


class ZeroFormError(TwistorError):
    """A nonzero 2-form was required."""


class NotRotationError(TwistorError):
    """A 3x3 block is not a rotation matrix."""


class ParseError(TwistorError):
    """Command-line or file input could not be parsed."""


def at_member(message: str, member: tuple[int, ...]) -> str:
    """``message`` naming the failing member of a stack; unchanged for a single one."""
    if not member:
        return message
    return f"{message} at member {member[0] if len(member) == 1 else member}"
