"""Fault model of the NDJSON readers: whatever bytes a post or score file
holds, reading it ends as counted malformed lines or as a RecordError that
names the file and the line. Nothing else may escape."""

import gzip
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from emoscope.corpus import FilterConfig, StreamCounts, stream_posts
from emoscope.errors import RecordError
from emoscope.signals import ScoreCounts, stream_scores


def _dumps(rec, ascii_only):
    return json.dumps(rec, ensure_ascii=ascii_only).encode("utf-8")


POST = st.builds(
    _dumps,
    st.fixed_dictionaries(
        {
            "id": st.one_of(st.text(max_size=4), st.integers()),
            "created_at": st.sampled_from(
                ["2020-03-01T12:30:45Z", "2020-03-01T23:59:59+02:00",
                 "2020-03-01T00:00:00.250z", "2020-03-01 08:00:00", "yesterday", 5,
                 "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]
            ),
            "text": st.text(max_size=20),
            "author_gender": st.sampled_from(["male", "female", "other"]),
            "author_followers": st.one_of(st.integers(-5, 200_000), st.floats(0, 1e6)),
            "is_retweet": st.one_of(st.booleans(), st.just("no")),
        }
    ),
    st.booleans(),
)
SCORE = st.builds(
    _dumps,
    st.fixed_dictionaries(
        {
            "id": st.integers(0, 99),
            "date": st.sampled_from(["2020-03-01", "2020-13-01", "03/01/2020"]),
            "scores": st.dictionaries(
                st.sampled_from(["sad", "joy"]),
                st.one_of(st.floats(allow_nan=True), st.text(max_size=2),
                          st.sampled_from([7, 10**400, -(10**400)])),
                max_size=2,
            ),
        }
    ),
    st.booleans(),
)
INVALID_UTF8 = st.builds(
    lambda head, bad, tail: head + bad + tail,
    st.binary(max_size=12),
    st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc", b"\xf4\x90\x80\x80"]),
    st.binary(max_size=12),
)
# beyond the decoder's recursion limit, and beyond the integer digit limit
EXTREME = st.sampled_from(
    [b"[" * 200_000, b'{"a":' * 50_000, b"[" * 5_000 + b"]" * 5_000, b'{"id": ' + b"7" * 5_000 + b"}"]
)
BLANK = st.sampled_from([b"", b"  ", b"\t\r", "\u3000".encode("utf-8")])
LINE = st.one_of(POST, SCORE, st.binary(max_size=40), INVALID_UTF8, EXTREME, BLANK)

# a .gz file cut at a fraction of its length, or one byte xor-ed at one
DAMAGE = st.one_of(
    st.none(),
    st.tuples(st.just("cut"), st.floats(0, 1)),
    st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
)


def _damage(data: bytes, damage) -> bytes:
    if damage is None:
        return data
    at = min(int(damage[1] * len(data)), len(data) - 1)
    if damage[0] == "cut":
        return data[:at]
    return data[:at] + bytes([data[at] ^ damage[2]]) + data[at + 1 :]


def _records(data: bytes) -> int:
    """Non-blank lines, split at b'\\n' only; a line that is not UTF-8 is never blank."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    n = 0
    for line in lines:
        try:
            blank = line.decode("utf-8").isspace() or not line
        except UnicodeDecodeError:
            blank = False
        n += not blank
    return n


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(LINE, max_size=10),
    gz=st.booleans(),
    damage=DAMAGE,
    reader=st.sampled_from(["posts", "scores"]),
)
def test_any_bytes_end_as_malformed_lines_or_a_located_record_error(lines, gz, damage, reader):
    data = b"".join(line + b"\n" for line in lines)
    errors: list[RecordError] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("input.ndjson.gz" if gz else "input.ndjson")
        path.write_bytes(_damage(gzip.compress(data, mtime=0), damage) if gz else data)
        if reader == "posts":
            counts = StreamCounts()
            stream = stream_posts([path], FilterConfig(), counts, errors.append)
        else:
            counts = ScoreCounts()
            stream = stream_scores(path, counts, errors.append)
        try:
            out = list(stream)
        except RecordError as err:
            # only a damaged .gz stops a stream, and the error says where
            assert gz and damage is not None
            assert err.source == str(path)
            assert isinstance(err.line_no, int) and err.line_no >= 1
            assert str(err).startswith(f"{path}:{err.line_no}: ")
            return

    assert counts.records == counts.parsed + counts.malformed
    assert counts.parsed == counts.kept + counts.dropped
    assert counts.kept == len(out)
    assert counts.malformed == len(errors)
    if reader == "scores":
        assert counts.dropped == 0
    for err in errors:
        assert str(err).startswith(f"{path}:{err.line_no}: ")
    if not gz or damage is None:
        assert counts.records == _records(data)
