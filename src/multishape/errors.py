"""Exception types shared across the package."""


class MultishapeError(Exception):
    """Base class for all package errors."""


class ConfigError(MultishapeError):
    """Invalid configuration value or unknown configuration key."""


class CentroidOutsideMask(MultishapeError):
    """A centroid falls on a background pixel of its mask."""


class DegenerateMask(MultishapeError):
    """A mask has no foreground along some sampling ray."""


class EmptyExampleSet(MultishapeError):
    """A shape statistic was requested from an empty example set."""


class RankDeficient(MultishapeError):
    """All covariance eigenvalues vanish; no shape variation to model."""


class DimensionMismatch(MultishapeError):
    """Array or mask dimensions do not agree."""


class EmptyInput(MultishapeError):
    """An operation that needs at least one element got none."""


class ZeroGradient(MultishapeError):
    """The local model has a zero gradient; no descent direction exists."""


class EmptyDataset(MultishapeError):
    """The training dataset contains no pairs."""


class EmptyTruth(MultishapeError):
    """Metrics were requested with no ground-truth masks."""


class CanvasTooSmall(MultishapeError):
    """The generator canvas cannot hold the configured shapes."""


class DatasetIOError(MultishapeError):
    """A dataset file is missing or unreadable."""


class ManifestMismatch(DatasetIOError):
    """Scene manifest disagrees with itself or with the files on disk."""
