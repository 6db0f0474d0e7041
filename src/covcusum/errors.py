"""Exception types shared across the package."""


class CovCusumError(Exception):
    """Base class for all errors raised by this package.

    A refusal about one sample of a panel keeps that sample's 0-based
    index in the panel list as ``sample_index`` (else None); its message
    counts samples from 1.
    """

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class ConfigurationError(CovCusumError, ValueError):
    """Invalid configuration; the message names the offending field."""


class ShapeError(CovCusumError, ValueError):
    """Array arguments have inconsistent lengths or dimensions."""


class IngestionError(CovCusumError, ValueError):
    """A data file could not be parsed; the message names file and line."""


class DegenerateLrvError(CovCusumError, RuntimeError):
    """The long-run variance estimate is zero or undefined.

    Standardized statistics must not be computed from a degenerate
    estimate, so callers are expected to abort rather than recover.
    """
