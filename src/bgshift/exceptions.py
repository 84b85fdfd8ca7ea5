"""Error types raised across the package."""


class BgshiftError(Exception):
    """Base class for all package errors."""


class ShapeError(BgshiftError, ValueError):
    """Tensor or input shapes are inconsistent with the operation."""


class AlignmentError(BgshiftError, ValueError):
    """Two structures that must share shape/class order do not."""


class LabelDomainError(BgshiftError, ValueError):
    """A mask contains labels outside the label space expected here."""


class ScheduleError(BgshiftError, ValueError):
    """Class schedule is malformed (duplicate ids, wrong sizes, ...)."""


class ConfigError(BgshiftError, ValueError):
    """Invalid configuration value or combination."""


class GenerationError(BgshiftError, RuntimeError):
    """Synthetic dataset generation could not satisfy its constraints."""


class IngestionError(BgshiftError, ValueError):
    """On-disk dataset is malformed; message names the offending file."""


class DivergenceError(BgshiftError, RuntimeError):
    """Training produced non-finite values."""


class EstimationError(BgshiftError, ValueError):
    """Importance estimation got unusable inputs (e.g. empty dataset)."""


class ComparisonError(BgshiftError, ValueError):
    """Report comparison is missing required cells."""
