"""Exception hierarchy shared across the package."""


class PlmError(Exception):
    """Base class for all plmkit errors."""


class DomainError(PlmError):
    """Arguments outside the operation's domain (wrong shape, count, index)."""


class DegeneratePointError(PlmError):
    """Non-generic point: the discriminant/determinant vanishes (planar or
    parabolic locus, rank-deficient span)."""


class ChartMismatchError(PlmError):
    """A radicand has the wrong sign for the requested chart or axis."""


class PivotMismatchError(PlmError):
    """Negative radicand for the chosen pivot pair in the hypersurface map."""


class BoundaryError(PlmError):
    """Requested point or shifted window leaves the sampled region."""


class ClosureError(PlmError):
    """Path-independence (closure) condition violated; carries the worst cell."""

    def __init__(self, message, site=None):
        super().__init__(message)
        self.site = site


class NotCompatibleError(PlmError):
    """Input field does not satisfy the compatibility (span) conditions."""


class GaugeObstructionError(PlmError):
    """Row and column scale propagation disagree in sign."""


class EvolutionOverflowError(PlmError):
    """Non-finite value produced during lattice evolution."""

    def __init__(self, message, site=None):
        super().__init__(message)
        self.site = site


class ParseError(PlmError):
    """Malformed input file; carries the offending line number and, once
    raised by a file reader, the file's path."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
        self.path = None
