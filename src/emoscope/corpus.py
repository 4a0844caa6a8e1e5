"""Streaming ingestion and filtering of newline-delimited post records."""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import os
import sys
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence, TypeVar

from .errors import ConfigError, RecordError

A = TypeVar("A")
T = TypeVar("T")


class Gender(Enum):
    MALE = "male"
    FEMALE = "female"
    UNKNOWN = "unknown"


_GENDERS = {"male": Gender.MALE, "female": Gender.FEMALE}
_UNKNOWN = Gender.UNKNOWN


class Post(NamedTuple):
    """One social-media message, timestamp normalized to UTC (second
    resolution). Immutable, hashable and equal by value, like a tuple."""

    id: str
    timestamp: datetime
    text: str
    author_gender: Gender = Gender.UNKNOWN
    author_followers: int = 0
    is_retweet: bool = False


@dataclass(frozen=True)
class FilterConfig:
    """Follower-count bounds (inclusive) and retweet exclusion, applied at ingestion."""

    min_followers: int = 100
    max_followers: int = 100_000
    exclude_retweets: bool = True

    def __post_init__(self):
        if self.min_followers < 0:
            raise ConfigError(f"min_followers must be >= 0, got {self.min_followers}")
        if self.min_followers > self.max_followers:
            raise ConfigError(
                f"min_followers ({self.min_followers}) exceeds "
                f"max_followers ({self.max_followers})"
            )


# Instants kept: a day clear of either end of the calendar, so that a
# tz_offset_minutes within +-1440 cannot push a post's day off it.
_EARLIEST = datetime(1, 1, 2, tzinfo=timezone.utc)
_LATEST = datetime(9999, 12, 31, tzinfo=timezone.utc)


def _parse_timestamp(raw, line_no, source) -> datetime:
    if not isinstance(raw, str):
        raise RecordError("created_at is not a string", line_no, source)
    # fromisoformat reads a Z suffix but neither a lowercase z nor
    # surrounding whitespace (3.11 to 3.13). So a stamp it reads as it
    # stands is read exactly, and only one it rejects is read again,
    # stripped and with its z rewritten.
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        s = raw.strip()
        if s.endswith(("Z", "z")):
            s = s[:-1] + "+00:00"
        try:
            ts = datetime.fromisoformat(s)
        except ValueError:
            raise RecordError(f"unparseable created_at {raw!r}", line_no, source) from None
    else:
        # fast path: a UTC stamp with whole seconds needs no normalizing
        if ts.tzinfo is timezone.utc and not ts.microsecond and _EARLIEST <= ts < _LATEST:
            return ts
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)  # zone-less inputs are taken as UTC
    try:
        ts = ts.astimezone(timezone.utc)
    except OverflowError:  # year 1 or 9999 pushed past the calendar by its offset
        pass
    else:
        if _EARLIEST <= ts < _LATEST:
            return ts.replace(microsecond=0)
    raise RecordError(f"created_at {raw!r} is out of range in UTC", line_no, source)


# The C scanner behind json.loads, minus its whitespace and BOM handling.
_scan_json = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"


def load_json_object(line: str, line_no: int, source: str) -> dict:
    """Decode one NDJSON line that must hold a JSON object."""
    if line.startswith("{"):
        # fast path; whatever it does not accept json.loads reads again,
        # so every error and its message are json.loads's own
        try:
            rec, end = _scan_json(line, 0)
        except (ValueError, RecursionError, StopIteration):
            pass
        else:
            if not line[end:].strip(_JSON_WHITESPACE):
                return rec
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as err:
        raise RecordError(f"invalid JSON ({err.msg})", line_no, source) from None
    except RecursionError:
        raise RecordError("invalid JSON (nesting too deep)", line_no, source) from None
    except ValueError:  # an integer beyond sys.get_int_max_str_digits()
        raise RecordError("invalid JSON (integer too long)", line_no, source) from None
    if not isinstance(rec, dict):
        raise RecordError("record is not a JSON object", line_no, source)
    return rec


def post_fields(line: str, line_no: int, source: str) -> tuple:
    """The fields of one NDJSON post record, in Post's order.

    A missing author_gender maps to unknown and a missing is_retweet to
    False; anything else absent or mistyped raises RecordError.
    """
    rec = load_json_object(line, line_no, source)
    # JSON decodes to exact types, so each check tests the type itself

    post_id = rec.get("id")
    if type(post_id) is not str:
        if post_id is None:
            raise RecordError("missing id", line_no, source)
        post_id = str(post_id)

    if "created_at" not in rec:
        raise RecordError("missing created_at", line_no, source)
    ts = _parse_timestamp(rec["created_at"], line_no, source)

    text = rec.get("text")
    if type(text) is not str:
        raise RecordError("missing or non-string text", line_no, source)

    followers = rec.get("author_followers")
    if type(followers) is not int:
        if followers is None:
            raise RecordError("missing author_followers", line_no, source)
        if type(followers) is not float:
            raise RecordError("author_followers is not a number", line_no, source)
        if not followers.is_integer():
            raise RecordError("author_followers is not an integer", line_no, source)
        followers = int(followers)
    if followers < 0:
        raise RecordError("author_followers is negative", line_no, source)

    retweet = rec.get("is_retweet", False)
    if type(retweet) is not bool:
        raise RecordError("is_retweet is not a boolean", line_no, source)

    gender = rec.get("author_gender")
    # a JSON list or object is unhashable: only a str is looked up
    gender = _GENDERS.get(gender, _UNKNOWN) if type(gender) is str else _UNKNOWN
    return post_id, ts, text, gender, followers, retweet


_MAX_ERROR_SAMPLES = 20


@dataclass
class StreamCounts:
    """Exact bookkeeping for one ingestion pass, with the errors of its
    first _MAX_ERROR_SAMPLES malformed records in input order. The errors
    take no part in equality, repr or as_dict."""

    records: int = 0
    malformed: int = 0
    dropped: int = 0
    kept: int = 0
    errors: list[RecordError] = field(default_factory=list, compare=False, repr=False)

    @property
    def parsed(self) -> int:
        return self.records - self.malformed

    def reject(self, err: RecordError) -> None:
        """Count one malformed record, and keep its error while fewer than
        _MAX_ERROR_SAMPLES are kept."""
        self.malformed += 1
        if len(self.errors) < _MAX_ERROR_SAMPLES:
            self.errors.append(err)

    def add(self, other: StreamCounts) -> None:
        """Count another pass's records in too, and keep its errors up to
        the cap: passes added in input order keep a whole pass's first."""
        self.records += other.records
        self.malformed += other.malformed
        self.dropped += other.dropped
        self.kept += other.kept
        self.errors += other.errors[: _MAX_ERROR_SAMPLES - len(self.errors)]

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "parsed": self.parsed,
            "malformed": self.malformed,
            "filtered": self.dropped,
            "kept": self.kept,
        }


# What reading a damaged .gz raises: truncation, bad header or CRC, bad data.
_GZIP_ERRORS = (EOFError, gzip.BadGzipFile, zlib.error)


@dataclass(frozen=True)
class Shard:
    """The lines of `path` that start in bytes [start, stop), numbered
    from `first_line`; stop None reads to the end. A plain file can be cut
    after any newline, a .gz file is read whole. As an os.PathLike it
    stands for its file."""

    path: str | os.PathLike
    start: int = 0
    stop: int | None = None
    first_line: int = 1

    def __fspath__(self) -> str:
        return os.fspath(self.path)


# Input bytes per group of shards, at least. A forked scan pays about 10 ms
# for the fork, its copy-on-write page faults and the merge. Two processes
# against one, scanning synth NDJSON on 2 CPUs: x0.77 on 128 KiB in all,
# x1.01 on 256 KiB, x1.27 on 512 KiB, x1.51 on 1 MiB.
_MIN_SHARD_BYTES = 1 << 18


def _cut_after_newline(fh, offset: int) -> int:
    """The first line start at or after `offset` in the open binary file."""
    fh.seek(offset - 1)
    fh.readline()
    return fh.tell()


def _newlines(fh, start: int, stop: int) -> int:
    """Newline bytes in [start, stop) of the open binary file."""
    # one small buffer, read into again and again: fresh 1 MiB reads left
    # about 2 MB more resident in the process
    buf = bytearray(1 << 16)
    fh.seek(start)
    count = 0
    while start < stop:
        n = fh.readinto(buf)
        if not n:
            break
        n = min(n, stop - start)
        count += buf.count(b"\n", 0, n)
        start += n
    return count


def shard_groups(paths: Iterable, parts: int) -> list[list[Shard]]:
    """The inputs, in order, as at most `parts` groups of contiguous shards
    holding about equal bytes; no more groups than _MIN_SHARD_BYTES fit
    into the inputs' total size. An input given as a Shard of a whole file,
    of any Shard class, is kept whole and as it is.

    Cuts fall after a newline of a plain file given by its path, or at an
    edge of any other input, so a line is never split and each shard
    numbers its lines as a whole read of the file would.
    """
    paths = list(paths)
    shards = [p if isinstance(p, Shard) else Shard(p) for p in paths]
    sizes = [os.path.getsize(s) for s in shards]
    total = sum(sizes)
    parts = max(1, min(parts, total // _MIN_SHARD_BYTES))
    if parts == 1:
        return [shards]
    groups: list[list[Shard]] = [[]]
    base = 0  # bytes of the inputs before this file
    target = 1  # the next of the parts-1 cuts, at byte total*target/parts
    for path, shard, size in zip(paths, shards, sizes):
        if isinstance(path, Shard) or Path(path).suffix == ".gz":
            while target < parts and total * target // parts <= base + size // 2:
                target += 1
                groups.append([])
            groups[-1].append(shard)
            while target < parts and total * target // parts <= base + size:
                target += 1
                groups.append([])
        else:
            with open(path, "rb") as fh:
                start, first_line = 0, 1
                while target < parts and total * target // parts < base + size:
                    offset = total * target // parts - base
                    cut = _cut_after_newline(fh, offset) if offset > 0 else 0
                    if cut > start:
                        groups[-1].append(Shard(path, start, cut, first_line))
                        first_line += _newlines(fh, start, cut)
                        start = cut
                    target += 1
                    groups.append([])
                if start < size:
                    groups[-1].append(Shard(path, start, None, first_line))
        base += size
    return [group for group in groups if group]


def read_records(
    paths: Iterable, parse: Callable[[str, int, str], T | None], counts: StreamCounts
) -> Iterator[T]:
    """parse(line, line number, source) of every non-blank line of the
    NDJSON files (or Shards of them), in order, each line counted in
    counts.records. A line that is not valid UTF-8, or whose parse raises
    RecordError, is counted as rejected by counts without aborting the
    stream; a None result is counted as dropped, any other as kept and
    yielded. A damaged .gz input raises RecordError naming the file and
    the line where it breaks off.
    """
    for path in paths:
        shard = path if isinstance(path, Shard) else Shard(path)
        name = os.fspath(shard)
        line_no = shard.first_line - 1
        pos = shard.start  # where the next line starts
        stop = sys.maxsize if shard.stop is None else shard.stop
        with (gzip.open if Path(name).suffix == ".gz" else open)(name, "rb") as fh:
            try:
                fh.seek(pos)
                for line_no, raw in enumerate(fh, shard.first_line):
                    if pos >= stop:
                        break
                    pos += len(raw)
                    try:
                        line = raw.decode()
                    except UnicodeDecodeError as err:
                        counts.records += 1
                        counts.reject(RecordError(
                            f"invalid UTF-8 at byte {err.start} ({err.reason})", line_no, name
                        ))
                        continue
                    if line.isspace():
                        continue
                    counts.records += 1
                    try:
                        record = parse(line, line_no, name)
                    except RecordError as err:
                        counts.reject(err)
                        continue
                    if record is None:
                        counts.dropped += 1
                    else:
                        counts.kept += 1
                        yield record
            except _GZIP_ERRORS as err:
                raise RecordError(f"corrupt or truncated gzip stream ({err})",
                                  line_no + 1, name) from None


def read_text(path) -> str:
    """A whole text input (survey, lexicon, counts or labels file) decoded
    as UTF-8. Bytes that are not UTF-8 raise RecordError naming the file,
    the line (1 plus the newlines before the bad byte) and the byte's
    offset in that line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line_start = data.rfind(b"\n", 0, err.start) + 1
        raise RecordError(f"invalid UTF-8 at byte {err.start - line_start} ({err.reason})",
                          data.count(b"\n", 0, err.start) + 1, path) from None


def read_csv(path, columns: Sequence[str], error=RecordError) -> Iterator[tuple[int, list]]:
    """(line number, cells) of every data row of a CSV input (the survey,
    `--counts` or the labels), read by read_text: the row's cells in the
    named `columns`, in their order, None past the end of a short row.
    A header name matches a column with case and surrounding spaces
    aside, the first of two equal names counting. A row whose cells are
    all blank is left out. The number is the physical line where the row
    starts, so a quoted field that holds a newline does not shift the
    rows after it.

    A header that lacks a column, and a field past csv's size limit,
    raise error(message, line, path), a RecordError: a data error."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = [name.strip().lower() for name in next(reader, [])]
        if not set(columns) <= set(header):
            raise error(f"header must name the columns {', '.join(columns)}", None, path)
        at = [header.index(column) for column in columns]
        start = reader.line_num + 1
        for row in reader:
            if any(cell.strip() for cell in row):
                yield start, [row[i] if i < len(row) else None for i in at]
            start = reader.line_num + 1
    except csv.Error as err:
        raise error(str(err), reader.line_num, path) from None


def stream_posts(
    paths: Iterable,
    filter_config: FilterConfig | None = None,
    counts: StreamCounts | None = None,
) -> Iterator[Post]:
    """The filtered posts of NDJSON files, in order, as a generator: a post
    is dropped if it is a retweet and retweets are excluded, or if its
    follower count is outside the bounds (inclusive on both ends).

    Malformed lines are counted, as rejected by counts, without aborting
    the stream. Blank lines are ignored entirely. A damaged .gz input
    raises RecordError naming the file and the line where it breaks off.
    """
    low, high, drop_retweets = (0, math.inf, False) if filter_config is None else (
        filter_config.min_followers, filter_config.max_followers, filter_config.exclude_retweets)
    new = tuple.__new__

    def parse(line, line_no, source):
        fields = post_fields(line, line_no, source)
        if drop_retweets and fields[5] or not low <= fields[4] <= high:
            return None
        return new(Post, fields)

    return read_records(paths, parse, StreamCounts() if counts is None else counts)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, which alone can tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _pickle():
    """pickle's C core, which pickle.dump and pickle.loads are on CPython.
    Importing pickle.py at start-up as well raised the peak memory of the
    benchmark's scan-demo commands, which fork, by about 0.25 MB (median
    18.29 against 18.55 MB over four install paths). Other Pythons fall
    back to pickle. Loaded only by a run that forks."""
    try:
        import _pickle as pickle
    except ImportError:
        import pickle
    return pickle


def _forked_child(work: Callable, part, fd: int) -> NoReturn:
    """In a forked child: pickle (work(part), None), or (None, the exception
    that ended it), into fd, then end the process."""
    code = 1
    try:
        try:
            outcome = work(part), None
        except Exception as err:
            outcome = None, err
        with open(fd, "wb") as fh:
            _pickle().dump(outcome, fh)
        code = 0
    finally:
        os._exit(code)


def fork_map(work: Callable[[A], T], parts: Sequence[A], what: str) -> Iterator[T]:
    """work(part) of every part, in order: this process runs parts[0] and a
    forked child each other part, which sends its result back through a
    pipe as a pickle. One part forks nothing.

    Every child has ended when this returns. The results then come out in
    part order, and a child's exception is raised where its result would
    come, so only once every part before it was taken: a one-process run
    would have met it first. If this process's part raises, the children
    are killed. So scan_corpus raises the data error first in input order,
    the score file's (in the last part) only after the corpus's.

    The scan commands never load numpy, and `validate` loads it only for
    its statistics, after the scan, so a scan forks before any BLAS thread
    exists; where a caller did load it first, a child still runs the
    pure-Python scan only and never needs those threads, which fork does
    not copy.
    """
    if len(parts) > 1:
        # a child must not write out again what this process buffered
        sys.stdout.flush()
        sys.stderr.flush()
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    payloads: list[bytes] = []
    statuses: list[int] = []
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _forked_child(work, part, w)
            except OSError:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, r))
        first = work(parts[0])
        for _, r in children:
            with open(r, "rb", closefd=False) as fh:
                payloads.append(fh.read())
    finally:
        for pid, r in children:
            os.close(r)
            if len(payloads) < len(children):  # this process's part failed
                from signal import SIGKILL  # POSIX only, as fork is

                os.kill(pid, SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    return _forked_results(first, what, children, payloads, statuses)


def _forked_results(first, what: str, children, payloads, statuses) -> Iterator:
    yield first
    for (pid, _), payload, status in zip(children, payloads, statuses):
        if status or not payload:
            raise ChildProcessError(
                f"{what} process {pid} ended without a result "
                f"(exit status {os.waitstatus_to_exitcode(status)})"
            )
        result, err = _pickle().loads(payload)
        if err is not None:
            raise err
        yield result

