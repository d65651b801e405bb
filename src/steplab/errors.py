"""Shared exception types and the process exit codes the CLI maps them to."""


class ToolkitError(Exception):
    """Base class for errors raised by this package."""

    exit_code = 1


class ConfigError(ToolkitError):
    """Bad configuration: missing files, unknown options, inconsistent setup."""

    exit_code = 2


class DataError(ToolkitError):
    """Malformed or inconsistent input data."""

    exit_code = 3


class BackendError(ToolkitError):
    """Scoring backend failure. ``kind`` is "transport" or "protocol"."""

    exit_code = 4

    def __init__(self, message: str, *, kind: str = "transport"):
        super().__init__(message)
        self.kind = kind


class ValidatorError(ToolkitError):
    """Validator infrastructure failure, distinct from a plain incorrect answer."""

    exit_code = 5


class UndefinedMetricError(ToolkitError):
    """A metric denominator is zero for the given counts."""


class ReservedSymbolError(DataError):
    """Question or step text contains one of the reserved marker symbols."""

    def __init__(self, message: str, *, reason_code: str):
        super().__init__(message)
        self.reason_code = reason_code


class Terminated(BaseException):
    """The process got SIGTERM. Raised in the main thread as
    KeyboardInterrupt is for SIGINT, and like it no Exception, so no
    handler of errors catches it."""


def exit_code(exc: BaseException) -> int:
    """The process exit code of a command that failed with ``exc``: a
    ToolkitError's own, 3 for any other ValueError (invalid input), 130 for
    an interrupt (the shell's code for SIGINT), 141 for a write to a closed
    pipe (the shell's code for SIGPIPE), 143 for :class:`Terminated` (the
    shell's code for SIGTERM), else 1."""
    if isinstance(exc, ToolkitError):
        return exc.exit_code
    if isinstance(exc, KeyboardInterrupt):
        return 130
    if isinstance(exc, Terminated):
        return 143
    if isinstance(exc, BrokenPipeError):
        return 141
    return 3 if isinstance(exc, ValueError) else 1
