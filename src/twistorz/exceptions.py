"""Typed failure modes for validation and geometry operations."""


class TwistorError(Exception):
    """Base class for all library errors."""


class ValidationError(TwistorError):
    """A candidate object failed a membership or consistency check."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (max residual {residual:.3e})"
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


class NotDecomposableError(TwistorError):
    """The 2-form is not a wedge of two covectors."""


class NotUnitError(TwistorError):
    """The 2-form does not have unit norm."""


class ZeroFormError(TwistorError):
    """A nonzero 2-form was required."""


class ZeroCombinationError(TwistorError):
    """Both projective-line coefficients vanish."""


class NotRotationError(TwistorError):
    """A 3x3 block is not a rotation matrix."""


class ParseError(TwistorError):
    """Command-line or file input could not be parsed."""
