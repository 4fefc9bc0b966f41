"""Exception taxonomy shared across the package.

Every error raised by protoeeg code derives from ProtoeegError, so callers
can tell our failures from genuine bugs surfacing as bare ValueError or
KeyError.  There is one class per CLI exit code, and each class carries
its code: `cli.main` returns ``exc.exit_code``.
"""


class ProtoeegError(Exception):
    """Base class for all package errors."""

    exit_code: int


class ConfigurationError(ProtoeegError):
    """Bad command-line usage, or a config value out of range or inconsistent."""

    exit_code = 1


class DataFormatError(ProtoeegError):
    """A file or its content failed validation: magic, version, truncation,
    checksum, an absent sample, a model never pushed, or a metric the data
    leaves undefined."""

    exit_code = 2


class NumericError(ProtoeegError):
    """A computation received inputs it cannot use: non-finite values,
    incompatible shapes, a degenerate norm or a violated API contract."""

    exit_code = 3
