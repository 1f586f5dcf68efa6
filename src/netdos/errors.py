"""Exception types shared across the package."""


class NetdosError(Exception):
    """Base class for all package errors."""


class GraphError(NetdosError):
    """Invalid graph input (bad ids, weights, self-loops, malformed files)."""


class SpectralRangeError(NetdosError):
    """A spectral computation met a value that is not finite: the bound of
    `operators.spectral_radius_bound`, or a Lanczos coefficient. `iterations`
    is the iteration or step that met it."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class RecurrenceBlowupError(NetdosError):
    """Chebyshev recurrence overflowed; spectrum likely escapes [-1, 1]."""


class MotifError(NetdosError):
    """Motif detection / deflation failure."""


class PartitionError(NetdosError):
    """Invalid partition tree (separator property or bookkeeping violated)."""


class FileFormatError(GraphError):
    """Malformed graph or result file."""
