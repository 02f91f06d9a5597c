"""Exception types shared across the package."""


class CoparseError(Exception):
    """Base class for all package errors."""


class ConfigError(CoparseError):
    """Invalid configuration or CLI usage (exit code 2)."""


class DataError(CoparseError):
    """Corpus file missing, unreadable, or inconsistent (exit code 3)."""


class MalformedInputError(DataError):
    """Input violates a documented invariant."""


class PatchTooSmallError(MalformedInputError):
    """Patch or template too small for descriptor extraction."""


class DegenerateRegionError(MalformedInputError):
    """Empty or otherwise unusable region."""


class InsufficientDataError(MalformedInputError):
    """Not enough samples for the requested fit."""


class UnknownLabelError(CoparseError):
    """Label outside the fitted vocabulary."""


class SolverError(CoparseError):
    """A numeric solver failed or returned an inconsistent result (exit code 1)."""


class OracleTooLargeError(CoparseError):
    """Exhaustive oracle asked to enumerate beyond its size cap."""


class GenerationError(ConfigError):
    """Synthetic scene could not be realized from its spec (exit code 2)."""
