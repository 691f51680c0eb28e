"""Exception hierarchy shared across the package, and the hook that validates records."""

import functools


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


def validated(cls):
    """Run the NamedTuple `cls`'s `_check` on each record built by `cls(...)`, `cls._make`
    or `record._replace` (a namedtuple's `_make`, which `_replace` calls, skips `__new__`)."""

    def checking(build):
        @functools.wraps(build)
        def checked(*args, **kwargs):
            record = build(*args, **kwargs)
            record._check()
            return record
        return checked

    cls.__new__ = staticmethod(checking(cls.__new__))
    cls._make = classmethod(checking(cls._make.__func__))
    return cls
