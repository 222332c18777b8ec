"""Typed failure modes for validation and geometry operations."""

import numpy as np


class TwistorError(Exception):
    """Base class for all library errors."""


class ValidationError(TwistorError):
    """A candidate object failed a membership or consistency check."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            text = f"{residual:.3e}"
            if np.isinf(float(text)) and np.isfinite(residual):  # .3e rounded past the largest float
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


def first_failure(*failed):
    """(check, member) of the first member of a stack that fails a check.

    Each argument is a bool array over the stack's members (0-d for one
    member), one per check in check order.  Members are taken in row-major
    order; ``check`` is the position of the first check that member fails
    and ``member`` its index tuple (``()`` for a single member).  None when
    every member passes.
    """
    anything = failed[0]
    for f in failed[1:]:
        anything = anything | f
    if not np.asarray(anything).any():
        return None
    failed = np.stack(np.broadcast_arrays(*failed))
    any_failed = failed.any(axis=0)
    member = tuple(int(i) for i in np.unravel_index(any_failed.argmax(), any_failed.shape))
    return int(failed[(slice(None),) + member].argmax()), member


def at_member(message: str, member: tuple[int, ...]) -> str:
    """``message`` naming the failing member of a stack; unchanged for a single one."""
    if not member:
        return message
    return f"{message} at member {member[0] if len(member) == 1 else member}"
