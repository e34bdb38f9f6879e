"""Exception hierarchy shared across the package."""


class DeferBenchError(Exception):
    """Base class for all benchmark errors."""


class ConfigError(DeferBenchError):
    """A configuration value violates its documented domain."""


class InputShapeError(DeferBenchError):
    """An array argument has the wrong shape or size."""


class LabelError(DeferBenchError):
    """A target label falls outside the (extended) label space."""


class NumericError(DeferBenchError):
    """Non-finite values where finite ones are required."""


class DivergenceError(DeferBenchError):
    """Training produced a non-finite loss."""


class CollectionError(DeferBenchError):
    """Not enough checkpoints to build a weight posterior."""


class RankError(DeferBenchError):
    """Posterior rank too small for low-rank sampling."""


class StratificationError(DeferBenchError):
    """A stratified split would leave some split without a class."""


class UsageError(DeferBenchError):
    """A command-line argument names a path the command cannot use (exit code 2)."""


class FormatError(DeferBenchError):
    """A serialized file does not match its declared format."""
