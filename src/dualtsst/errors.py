"""Exception types shared across the package.

Each type carries the exit code the CLI returns for it: usage problems exit 1,
data/validation problems exit 2, numerical failures exit 3.
"""


class DualTsstError(Exception):
    """Base class for package errors."""

    exit_code = 2


class UsageError(DualTsstError):
    """Bad command-line invocation."""

    exit_code = 1


class DataError(DualTsstError):
    """Invalid dataset, manifest, configuration, or geometry."""

    exit_code = 2


class NumericalError(DualTsstError):
    """Non-finite values or a failed gradient check."""

    exit_code = 3
