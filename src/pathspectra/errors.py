"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent input: bad dimensions, bad parameters, bad files."""


class GenericityError(RuntimeError):
    """A direction is level on some edge, or an orientation lacks a unique source/sink."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


class DegeneracyError(RuntimeError):
    """A tie (equal projected coordinate or equal slope) makes a construction ambiguous."""


class VerificationMismatch(RuntimeError):
    """A fixture's computed spectrum disagrees with its recorded expectation."""
