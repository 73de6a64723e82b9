"""Exception types shared across the package. Only the command line decides
that an input is absent (ArtifactError); a reader raises ParseError for an
input it cannot use."""


class EegsrError(Exception):
    """Base class for all package errors."""


class DataError(EegsrError):
    """Invalid recording, epoch, or split input."""


class ParseError(EegsrError):
    """An input that exists but cannot be used; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(EegsrError):
    """Invalid or inconsistent run configuration."""


class ArtifactError(EegsrError):
    """An input path that does not exist, or inputs that name nothing to do."""


# The benchmark harness imports and catches this name.
CheckpointError = ParseError


class NumericAbort(EegsrError):
    """Training produced a non-finite loss; carries the failing step index."""

    def __init__(self, step, message="non-finite loss"):
        super().__init__(f"{message} at step {step}")
        self.step = step
