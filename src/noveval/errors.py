"""Exception hierarchy shared across the package."""


class NovevalError(Exception):
    """Base class for all noveval errors."""


class ParseError(NovevalError):
    """Malformed input line or element; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(NovevalError):
    """Parseable input that violates a data-model invariant."""


class ConfigError(NovevalError):
    """Invalid configuration: bad flag value, unmapped grade, infeasible spec."""


class OracleScaleError(NovevalError):
    """The brute-force oracle was asked to run beyond its intentionally small scale."""
