"""Exception taxonomy.

``ConfigError`` maps to CLI exit code 2, ``ConventionError`` (an internal
inconsistency of the convention-bug class) to exit code 3, verification
mismatches to exit code 1.
"""


class KleinianError(Exception):
    """Base class for all package errors."""


class ConfigError(KleinianError):
    """Bad user input: unknown curve family, malformed spec file, bad flags."""


class SeriesError(KleinianError):
    """Illegal series operation (non-invertible leading term, inexact division)."""


class TruncationError(SeriesError):
    """An operation cannot guarantee the requested truncation order."""


class InconsistentSystemError(KleinianError):
    """A linear system has a row 0 = nonzero; signals a calibration bug."""


class ReductionError(KleinianError):
    """Reduction failed: the rule set is cyclic.

    Also raised when a layer's inputs break its preconditions: a lower
    layer is missing, or a relation is not homogeneous of its weight.
    """


class ConventionError(KleinianError):
    """A structural invariant (parity, weight grading, symmetry) failed."""
