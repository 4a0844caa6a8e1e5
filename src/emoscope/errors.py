"""Exception types shared across the package, and the one opener of every
file the package writes, which names that file in an error met writing it."""

import gzip
import io
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
    """Open `path` to write text: UTF-8, each writer's line ends as written
    (newline=""), gzip with a fixed header (no name, mtime 0) for a .gz
    name. An OSError opening, writing or closing it that names no file is
    given `path` as its filename, so its message names the file."""
    path = os.fspath(path)
    try:
        if path.endswith(".gz"):
            with (open(path, "wb") as raw,
                  gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz,
                  io.TextIOWrapper(gz, encoding="utf-8", newline="") as out):
                yield out
        else:
            with open(path, "w", encoding="utf-8", newline="") as out:
                yield out
    except OSError as err:
        if err.filename is None:
            err.filename = path
        raise
