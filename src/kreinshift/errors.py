"""Exception types shared across the toolkit."""


class KreinShiftError(Exception):
    """Base class for all toolkit errors."""


class PreconditionError(KreinShiftError, ValueError):
    """An input violates a documented bound (shape, dissipativity, branch cut,
    exclusion zone, conditioning)."""


class ParseError(PreconditionError):
    """Malformed user input: an unreadable or ill-formed matrix file, a
    non-Hermitian matrix where one is required, a bad command-line value or
    an output file that cannot be opened."""


class ConvergenceError(KreinShiftError, RuntimeError):
    """An iteration or panel budget was exhausted before the requested
    tolerance was met."""
