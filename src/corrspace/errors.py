"""Exception classes shared across the package.

Every error carries a stable process exit code so the CLI can map failure
classes to distinct codes (see cli.py and the README). `open_input` opens
every input file, `check_range` is the one out-of-range check of a flag's
values, and `is_int` the one test of a JSON integer in an artifact's metadata.
"""


class CorrSpaceError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConstantSeries(CorrSpaceError):
    """Series has zero variance; correlation is undefined."""

    exit_code = 10


class LengthMismatch(CorrSpaceError):
    """A query series differs in length from the series an index holds."""

    exit_code = 11


class InvalidM(CorrSpaceError):
    """Embedding size / coefficient count out of its valid range."""

    exit_code = 12


class DegenerateOutput(CorrSpaceError):
    """An input or embedding is unusable: a series to normalize holds a
    non-finite value, the network's pre-normalization output has (near-)zero
    norm, or a query vector or a point to index holds a non-finite value."""

    exit_code = 13


class DimensionMismatch(CorrSpaceError):
    """Vector dimension does not match the index / network."""

    exit_code = 14


class EmptyInput(CorrSpaceError):
    """Operation requires at least one element."""

    exit_code = 15


class ParseError(CorrSpaceError):
    """Input file could not be parsed; carries the 1-based line number."""

    exit_code = 16

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RaggedRows(ParseError):
    """Rows of the input file have differing lengths."""

    exit_code = 17


class EmptyFile(CorrSpaceError):
    """Input file contains no data rows."""

    exit_code = 18


class TooSmall(CorrSpaceError):
    """Dataset too small to split."""

    exit_code = 19


class InsufficientData(CorrSpaceError):
    """Training partition too small to sample batches from."""

    exit_code = 20


class KTooLarge(CorrSpaceError):
    """Requested k exceeds the candidate pool."""

    exit_code = 21


class SizeMismatch(CorrSpaceError):
    """Result sets passed to a metric have inconsistent sizes."""

    exit_code = 22


class MissingArtifact(CorrSpaceError):
    """A required model / index / dataset file, or an output's directory, does not exist."""

    exit_code = 23


class CorruptArtifact(CorrSpaceError, ValueError):
    """A model or index file is truncated, padded or garbled."""

    exit_code = 24


class RepeatedId(CorrSpaceError):
    """Two points given to one index share an id."""

    exit_code = 25


class UsageError(CorrSpaceError, ValueError):
    """Invalid command-line arguments, `TrainConfig` or `SweepConfig` values, or constructor arguments."""

    exit_code = 2


def open_input(path, what, mode="r", **kwargs):
    """`open(path, mode, **kwargs)`, or MissingArtifact("<what> not found: <path>") for a missing path or a directory."""
    try:
        return open(path, mode, **kwargs)
    except (FileNotFoundError, IsADirectoryError):
        raise MissingArtifact(f"{what} not found: {path}") from None


def flag(key):
    """The command-line flag of the parameter `key`: --model-out for model_out."""
    return "--" + key.replace("_", "-")


def is_int(value):
    """Whether `value` is an int itself: not a bool, float or string."""
    return type(value) is int


def check_range(key, low, high, *values):
    """UsageError when a value of the flag `key` is below `low` or above
    `high`; None is no bound."""
    if low is not None and min(values) < low:
        raise UsageError(f"{flag(key)} must be at least {low}, got {min(values)}")
    if high is not None and max(values) > high:
        raise UsageError(f"{flag(key)} must be at most {high}, got {max(values)}")
