"""Exception hierarchy shared across the package."""


class DeepNmfError(Exception):
    """Base class for all library errors."""


class InvalidInputError(DeepNmfError, ValueError):
    """An argument violates a documented precondition."""


class DataFormatError(DeepNmfError, ValueError):
    """A file could not be parsed; the message carries the byte or line location."""


class NumericalError(DeepNmfError, RuntimeError):
    """A solve produced non-finite values or an objective that climbs."""
