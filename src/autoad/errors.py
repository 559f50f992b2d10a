"""Exception types raised across the pipeline."""


class AutoAdError(Exception):
    """Base class for all library errors."""


# -- series preparation -------------------------------------------------

class TooManyMissing(AutoAdError):
    """Missing fraction exceeds the policy allowance."""


class AllMissing(AutoAdError):
    """No observed values to anchor imputation."""


class WindowTooLarge(AutoAdError):
    """Smoothing window exceeds the series length."""


class IncompatibleFrequency(AutoAdError):
    """Aggregation target is not an integer multiple of the source step."""


class MalformedCsv(AutoAdError):
    """CSV input does not match the two-column timestamp,value contract."""


# -- profiling -----------------------------------------------------------

class SeriesTooShort(AutoAdError):
    """Series too short for the requested detector."""


# -- modeling ------------------------------------------------------------

class InsufficientData(AutoAdError):
    """Not enough observations for the requested model order."""


class NonConvergence(AutoAdError):
    """Iterative estimation exceeded its iteration cap."""


class NumericalBreakdown(AutoAdError):
    """Filter innovation variance became non-positive despite repair."""


# -- optimization ----------------------------------------------------------

class RateTooHigh(AutoAdError):
    """Synthetic anomaly injection rate outside (0, 0.1]."""


# -- evaluation ------------------------------------------------------------

class EmptyScores(AutoAdError):
    """Curve computation received an empty score sample."""


# -- orchestration -----------------------------------------------------------

class DuplicateId(AutoAdError):
    """Job or metric identifier already registered with a different spec."""


class InvalidSpec(AutoAdError):
    """Job specification violates its invariants."""


class UnsupportedStore(AutoAdError):
    """Data directory written in a store schema this version does not read."""


# -- benchmarking -------------------------------------------------------------

class UnknownDataset(AutoAdError):
    """Dataset name missing from the anomaly-windows file."""


class SingleClass(AutoAdError):
    """AUC requires both classes present."""


class LengthMismatch(AutoAdError):
    """Paired sequences have different lengths."""


class MissingData(AutoAdError):
    """Benchmark input files absent."""
