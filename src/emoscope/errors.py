"""Exception types shared across the package, and the rule that names
the file in an error met while writing it."""

import os
from contextlib import contextmanager


class EmoscopeError(Exception):
    """Base class for all package errors."""


class ConfigError(EmoscopeError):
    """Invalid configuration or command usage."""


class RecordError(EmoscopeError):
    """One malformed input record; carries position so streams can keep going."""

    def __init__(self, message, line_no=None, source=None):
        self.line_no = line_no
        self.source = source
        where = ""
        if source is not None:
            where = f"{source}:"
        if line_no is not None:
            where = f"{where}{line_no}: "
        elif where:
            where = f"{where} "
        super().__init__(where + message)


class LexiconError(EmoscopeError):
    """Bad lexicon file, template, or unknown emotion name."""


class SurveyError(EmoscopeError):
    """Bad survey file."""


class SignalError(EmoscopeError):
    """Signal or series contract violation (zero denominator, bad split, ...)."""


class StatError(EmoscopeError):
    """A statistic is undefined for the given input (constant series, |r|=1, ...)."""


@contextmanager
def writing(path):
    """Run the block that writes `path`. An OSError raised in it that names
    no file (a failed write or close, say) is given `path` as its filename,
    so its message names the file."""
    try:
        yield
    except OSError as err:
        if err.filename is None:
            err.filename = os.fspath(path)
        raise
