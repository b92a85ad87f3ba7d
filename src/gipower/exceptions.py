"""Exception types raised by gipower."""


class GipowerError(Exception):
    """Base class for all gipower errors."""


class InvalidStateError(GipowerError, ValueError):
    """Input is not a valid (physical, finite, well-shaped) Gaussian state."""


class InvalidTransformError(GipowerError, ValueError):
    """Input matrix is not a valid (symplectic) transformation."""


class NumericalError(GipowerError, ArithmeticError):
    """A radicand or discriminant fell outside tolerance; result unreliable."""
