"""NDJSON parsing, follower/retweet filtering, stream accounting."""

import gzip
import json
import os
import pickle
import sys
import tempfile
import time
from datetime import date, datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from emoscope import corpus, pipeline
from emoscope.config import PipelineConfig
from emoscope.corpus import (
    FilterConfig,
    Gender,
    Post,
    StreamCounts,
    _parse_timestamp,
    load_json_object,
    read_records,
    stream_posts,
)
from emoscope.errors import ConfigError, RecordError
from emoscope.signals import ScoreRecord, stream_scores
from oracles import parse_post_record, parse_score_record

VALID = json.dumps(
    {
        "id": "t1",
        "created_at": "2020-03-01T12:30:45Z",
        "text": "feeling fine",
        "author_gender": "female",
        "author_followers": 250,
        "is_retweet": False,
    }
)


def _write_ndjson(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestParsePostRecord:
    def test_valid_record(self):
        post = parse_post_record(VALID)
        assert post.id == "t1"
        assert post.timestamp == datetime(2020, 3, 1, 12, 30, 45, tzinfo=timezone.utc)
        assert post.text == "feeling fine"
        assert post.author_gender is Gender.FEMALE
        assert post.author_followers == 250
        assert post.is_retweet is False

    def test_day(self):
        post = parse_post_record(VALID)
        assert oracles.post_day(post) == date(2020, 3, 1)

    def test_day_timezone_offset(self):
        rec = json.loads(VALID)
        rec["created_at"] = "2020-03-01T01:30:00Z"
        post = parse_post_record(json.dumps(rec))
        assert oracles.post_day(post, tz_offset_minutes=-120) == date(2020, 2, 29)

    def test_offset_timestamp_normalized_to_utc(self):
        rec = json.loads(VALID)
        rec["created_at"] = "2020-03-01T14:30:45+02:00"
        post = parse_post_record(json.dumps(rec))
        assert post.timestamp == datetime(2020, 3, 1, 12, 30, 45, tzinfo=timezone.utc)

    def test_naive_timestamp_assumed_utc(self):
        rec = json.loads(VALID)
        rec["created_at"] = "2020-03-01T12:30:45"
        post = parse_post_record(json.dumps(rec))
        assert post.timestamp.tzinfo is timezone.utc

    def test_numeric_id_coerced(self):
        rec = json.loads(VALID)
        rec["id"] = 42
        assert parse_post_record(json.dumps(rec)).id == "42"

    def test_gender_defaults_unknown(self):
        rec = json.loads(VALID)
        del rec["author_gender"]
        assert parse_post_record(json.dumps(rec)).author_gender is Gender.UNKNOWN

    def test_unrecognized_gender_is_unknown(self):
        rec = json.loads(VALID)
        rec["author_gender"] = "org"
        assert parse_post_record(json.dumps(rec)).author_gender is Gender.UNKNOWN

    @pytest.mark.parametrize("gender", ["Male", None, 1, ["male"], {"male": 1}])
    def test_non_gender_value_is_unknown(self, gender):
        rec = json.loads(VALID)
        rec["author_gender"] = gender
        assert parse_post_record(json.dumps(rec)).author_gender is Gender.UNKNOWN

    def test_retweet_defaults_false(self):
        rec = json.loads(VALID)
        del rec["is_retweet"]
        assert parse_post_record(json.dumps(rec)).is_retweet is False

    @pytest.mark.parametrize("field", ["id", "created_at", "text", "author_followers"])
    def test_missing_required_field(self, field):
        rec = json.loads(VALID)
        del rec[field]
        with pytest.raises(RecordError):
            parse_post_record(json.dumps(rec))

    def test_invalid_json(self):
        with pytest.raises(RecordError):
            parse_post_record("{not json")

    def test_non_object(self):
        with pytest.raises(RecordError):
            parse_post_record("[1, 2]")

    def test_bad_timestamp(self):
        rec = json.loads(VALID)
        rec["created_at"] = "yesterday"
        with pytest.raises(RecordError):
            parse_post_record(json.dumps(rec))

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:00:00-02:00"])
    def test_timestamp_out_of_range_in_utc(self, stamp):
        rec = dict(json.loads(VALID), created_at=stamp)
        with pytest.raises(RecordError, match="out of range in UTC"):
            parse_post_record(json.dumps(rec))

    @pytest.mark.parametrize("followers", ["many", -5, True, 1.5])
    def test_bad_followers(self, followers):
        rec = json.loads(VALID)
        rec["author_followers"] = followers
        with pytest.raises(RecordError):
            parse_post_record(json.dumps(rec))

    def test_non_string_text(self):
        rec = json.loads(VALID)
        rec["text"] = 7
        with pytest.raises(RecordError):
            parse_post_record(json.dumps(rec))

    @pytest.mark.parametrize("parse", [parse_post_record, parse_score_record])
    @pytest.mark.parametrize(
        "line, reason",
        [("[" * 200_000, "nesting too deep"), ('{"id": ' + "7" * 5_000 + "}", "integer too long")],
    )
    def test_decoder_limits_are_record_errors(self, parse, line, reason):
        with pytest.raises(RecordError, match=rf"^x\.ndjson:2: invalid JSON \({reason}\)$"):
            parse(line, 2, "x.ndjson")

    def test_error_names_source_and_line(self):
        with pytest.raises(RecordError, match=r"posts\.ndjson:3"):
            parse_post_record("{}", line_no=3, source="posts.ndjson")

    def test_round_trip(self):
        post = parse_post_record(VALID)
        assert parse_post_record(oracles.serialize_post(post)) == post

    @given(
        st.text(max_size=60),
        st.integers(0, 10**6),
        st.sampled_from(list(Gender)),
        st.booleans(),
    )
    def test_round_trip_property(self, text, followers, gender, retweet):
        post = Post(
            id="x1",
            timestamp=datetime(2021, 5, 4, 3, 2, 1, tzinfo=timezone.utc),
            text=text,
            author_gender=gender,
            author_followers=followers,
            is_retweet=retweet,
        )
        assert parse_post_record(oracles.serialize_post(post)) == post


def _outcome(fn, *args):
    """What fn returns (by repr, so NaN equals NaN) or the RecordError it raises."""
    try:
        return "ok", repr(fn(*args))
    except RecordError as err:
        return "error", str(err)


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
JSON_OBJECT = st.dictionaries(st.text(max_size=4), JSON_VALUE, max_size=4)
JSON_LINE = st.builds(
    lambda head, body, tail: head + body + tail,
    st.one_of(st.just(""), st.sampled_from(["\ufeff", " ", "\t", "\n", "\r", "\x0b", "\xa0"])),
    st.one_of(
        st.builds(json.dumps, JSON_OBJECT),
        st.builds(json.dumps, JSON_VALUE),
        st.builds(lambda v: json.dumps(v, indent=1), JSON_OBJECT),
        st.sampled_from(['{"a": NaN}', '{"a": -Infinity}', '{"a": 1', '{"a" 1}', "{", "{}{}"]),
        st.text(max_size=12),
    ),
    st.one_of(
        st.sampled_from(["", "\n"]),
        st.sampled_from([" \n", "\r\n", "\t", "\x0b", "\xa0", "\u3000", " x", "{}", "]", "\x0c"]),
    ),
)
STAMP = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", "", " ", "\t", "\u3000"]),
    st.one_of(
        st.builds(
            "{:04d}-{:02d}-{:02d}".format,
            st.one_of(st.sampled_from([1, 2, 2020, 9998, 9999]), st.integers(1, 9999)),
            st.integers(1, 12),
            st.integers(1, 31),
        ),
        st.sampled_from(["20200301", "2020-3-01", "0001-01-01", "0001-01-02", "9999-12-31"]),
    ),
    st.sampled_from(["T", "T", " ", "t", "x"]),
    st.one_of(
        st.builds(
            "{:02d}:{:02d}:{:02d}".format,
            st.integers(0, 24), st.integers(0, 59), st.integers(0, 60),
        ),
        st.sampled_from(["000000", "23:59", "12", "00:00:00", "23:59:59"]),
    ),
    st.sampled_from(["", "", ".5", ".250", ".000", ".123456", ",5", ".1234567"]),
    st.sampled_from(
        ["", "Z", "z", "+00:00", "-00:00", "+0000", "+02:00", "-05:30", "+14:00", "+23:59",
         "-23:59", "+24:00", "Zz"]
    ),
    st.sampled_from(["", "", " ", "\n", "\u3000"]),
)


class TestDecoderDifferential:
    """The fast paths of the post decoder against one-path references."""

    @settings(max_examples=300)
    @given(JSON_LINE)
    @example("[1, 2]\n")
    @example('{"a":' * 50_000)
    @example("[" * 200_000)
    @example("{" + '"a":[' * 5_000 + "]" * 5_000 + "}")
    @example('{"id": ' + "7" * 5_000 + "}")
    @example('\ufeff{"id": 1}')
    @example('{"id": 1}\x0b')
    @example('{"id": 1}\xa0\n')
    @example('{"id": 1} {"id": 2}\n')
    def test_load_json_object_matches_json_loads(self, line):
        got = _outcome(load_json_object, line, 4, "f.ndjson")
        assert got == _outcome(oracles.load_json_object, line, 4, "f.ndjson")

    @settings(max_examples=300)
    @given(st.one_of(STAMP, st.text(max_size=30), st.integers(), st.none(), st.lists(st.none())))
    @example("2020-03-01T12:30:45Z")
    @example("2020-03-01T12:30:45z")
    @example("2020-03-01T12:30:45.999999Z")
    @example("2020-03-01 12:30:45")
    @example("20200301T123045+0100")
    @example(" 2020-03-01T12:30:45+00:00 ")
    @example("0001-01-01T23:59:59Z")
    @example("0001-01-02T00:00:00Z")
    @example("0001-01-02T00:30:00+01:00")
    @example("9999-12-30T23:59:59.999999Z")
    @example("9999-12-31T00:00:00Z")
    @example("9999-12-31T01:00:00+02:00")
    @example("9999-12-31T23:59:59-01:00")
    def test_parse_timestamp_matches_one_path_reference(self, raw):
        got = _outcome(_parse_timestamp, raw, 3, "f")
        assert got == _outcome(oracles.parse_timestamp, raw, 3, "f")
        if got[0] == "ok":
            assert _parse_timestamp(raw, 3, "f").tzinfo is timezone.utc


NOON = datetime(2020, 6, 1, 12, 0, tzinfo=timezone.utc)


class TestTimestampGrammar:
    """The created_at grammar, stamp by stamp, against literal outcomes:
    every stamp below reads as noon UTC on 2020-06-01 or is refused."""

    @pytest.mark.parametrize("raw", [
        "20200601T120000Z",                # basic format
        "2020-W23-1T12:00:00Z",            # ISO week date: Monday of week 23
        "2020-06-01 12:00:00,5+00:00",     # space separator, comma fraction
        "2020-06-01T12:00:00.123456789Z",  # nine-digit fraction
        "2020-06-01T12:00:00.5Z",          # one-digit fraction
        "2020-06-01T12:00:00z",            # lowercase z
        "  2020-06-01T12:00:00Z ",         # padded with spaces
        "2020-06-01T12:00:00",             # no zone: taken as UTC
        "2020-06-01T14:00:00+02:00",       # an offset, converted to UTC
    ])
    def test_accepted(self, raw):
        assert _parse_timestamp(raw, 3, "f.ndjson") == NOON

    @pytest.mark.parametrize("raw", ["2020-06-01T12:00:00 UTC", "yesterday", "2020-13-01T12:00:00Z"])
    def test_rejected(self, raw):
        with pytest.raises(RecordError) as err:
            _parse_timestamp(raw, 3, "f.ndjson")
        assert str(err.value) == f"f.ndjson:3: unparseable created_at {raw!r}"


class TestPost:
    POST = Post("a", datetime(2021, 5, 4, 3, 2, 1, tzinfo=timezone.utc), "hi", Gender.MALE, 5, True)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.POST.text = "changed"

    def test_equal_and_hashed_by_value(self):
        twin = Post(**self.POST._asdict())
        assert twin == self.POST and hash(twin) == hash(self.POST)
        assert len({self.POST, twin}) == 1
        assert self.POST._replace(author_followers=6) != self.POST

    def test_defaults(self):
        post = Post("b", self.POST.timestamp, "x")
        assert post[3:] == (Gender.UNKNOWN, 0, False)

    @pytest.mark.parametrize(
        "offset, day", [(0, date(2021, 5, 4)), (-183, date(2021, 5, 3)), (1440, date(2021, 5, 5))]
    )
    def test_day(self, offset, day):
        assert oracles.post_day(self.POST, offset) == day



class TestFilterPost:
    CFG = FilterConfig(min_followers=100, max_followers=100_000, exclude_retweets=True)

    def _post(self, followers=500, retweet=False):
        return Post(
            id="a",
            timestamp=datetime(2020, 1, 1, tzinfo=timezone.utc),
            text="hi",
            author_gender=Gender.UNKNOWN,
            author_followers=followers,
            is_retweet=retweet,
        )

    def test_bounds_inclusive(self):
        assert oracles.filter_post(self._post(followers=100), self.CFG)
        assert oracles.filter_post(self._post(followers=100_000), self.CFG)
        assert not oracles.filter_post(self._post(followers=99), self.CFG)
        assert not oracles.filter_post(self._post(followers=100_001), self.CFG)

    def test_retweets_dropped(self):
        assert not oracles.filter_post(self._post(retweet=True), self.CFG)
        keep = FilterConfig(100, 100_000, exclude_retweets=False)
        assert oracles.filter_post(self._post(retweet=True), keep)

    def test_default_config(self):
        cfg = FilterConfig()
        assert cfg.min_followers == 100
        assert cfg.max_followers == 100_000
        assert cfg.exclude_retweets is True

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            FilterConfig(min_followers=10, max_followers=5)
        with pytest.raises(ConfigError):
            FilterConfig(min_followers=-1)


class TestStreamPosts:
    def test_counts_partition(self, tmp_path):
        rec = json.loads(VALID)
        low = dict(rec, id="low", author_followers=5)
        lines = [VALID, "not json", json.dumps(low), "", VALID]
        path = tmp_path / "posts.ndjson"
        _write_ndjson(path, lines)
        counts = StreamCounts()
        posts = list(stream_posts([path], FilterConfig(), counts))
        assert len(posts) == 2
        assert counts.records == 4  # blank line skipped entirely
        assert counts.malformed == 1
        assert counts.parsed == 3
        assert counts.dropped == 1
        assert counts.kept == 2
        assert counts.records == counts.malformed + counts.parsed
        assert counts.parsed == counts.dropped + counts.kept

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "posts.ndjson.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(VALID + "\n")
        counts = StreamCounts()
        posts = list(stream_posts([path], FilterConfig(), counts))
        assert len(posts) == 1 and posts[0].id == "t1"

    def test_multiple_files_in_order(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        rec = json.loads(VALID)
        _write_ndjson(a, [json.dumps(dict(rec, id="1"))])
        _write_ndjson(b, [json.dumps(dict(rec, id="2"))])
        ids = [p.id for p in stream_posts([a, b], FilterConfig(), StreamCounts())]
        assert ids == ["1", "2"]

    def test_malformed_line_keeps_its_error(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        _write_ndjson(path, ["broken", VALID])
        counts = StreamCounts()
        list(stream_posts([path], FilterConfig(), counts))
        assert counts.malformed == 1
        (err,) = counts.errors
        assert isinstance(err, RecordError)
        assert (err.line_no, err.source) == (1, str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(stream_posts([tmp_path / "nope.ndjson"], FilterConfig(), StreamCounts()))

    def test_counts_as_dict(self):
        counts = StreamCounts(records=5, malformed=1, dropped=1, kept=3)
        assert counts.as_dict() == {
            "records": 5,
            "parsed": 4,
            "malformed": 1,
            "filtered": 1,
            "kept": 3,
        }


class TestErrorSamples:
    @staticmethod
    def _rejected(lines):
        counts = StreamCounts()
        for line_no in lines:
            counts.records += 1
            counts.reject(RecordError("bad", line_no, "in.ndjson"))
        return counts

    def test_reject_keeps_the_first_errors(self):
        counts = self._rejected(range(1, 31))
        assert counts.malformed == 30
        assert [err.line_no for err in counts.errors] == list(range(1, 21))

    @pytest.mark.parametrize("cuts", [(), (5,), (5, 12), (0, 19, 20, 21), (25,), (3, 3, 40)])
    def test_passes_added_in_order_keep_the_first_errors(self, cuts):
        edges = [1, *(1 + cut for cut in cuts), 45]
        whole = self._rejected(range(1, 45))
        merged = self._rejected(range(edges[0], edges[1]))
        for lo, hi in zip(edges[1:], edges[2:]):
            merged.add(self._rejected(range(lo, hi)))
        assert merged == whole  # counts; the errors take no part in ==
        assert [e.line_no for e in merged.errors] == [e.line_no for e in whole.errors]

    def test_errors_stay_out_of_equality_repr_and_as_dict(self):
        counts = self._rejected([1])
        assert counts == StreamCounts(records=1, malformed=1)
        assert "errors" not in repr(counts)
        assert counts.as_dict() == StreamCounts(records=1, malformed=1).as_dict()


class TestRecordErrorPickle:
    """A RecordError crosses a process boundary as a pickle."""

    @pytest.mark.parametrize(
        "err",
        [
            RecordError("bad line", 7, "a.ndjson"),
            RecordError("no place"),
            RecordError("no line", source="b.ndjson"),
            RecordError("corrupt or truncated gzip stream (Compressed file ended)", 42,
                        "c.ndjson.gz"),
        ],
        ids=["located", "bare", "source-only", "damaged-stream"],
    )
    def test_round_trip(self, err):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is RecordError
        assert (str(back), back.line_no, back.source) == (str(err), err.line_no, err.source)


def _read_all(paths):
    """Every (line number, source, line) that read_records keeps, with
    every error met in order: read_records's own (bad UTF-8) and "not an
    object" for each line that does not start with "{"."""

    def parse(line, line_no, source):
        if not line.startswith("{"):
            raise RecordError("not an object", line_no, source)
        return line_no, source, line

    counts = StreamCounts()
    with mock.patch.object(corpus, "_MAX_ERROR_SAMPLES", sys.maxsize):
        records = list(read_records(paths, parse, counts))
    return records, [str(e) for e in counts.errors], counts.as_dict()


SHARD_LINE = st.one_of(
    st.sampled_from([b"{}", b"{ok}", b"x", b"", b"  ", b"\r", b"{\xff}", b"\xc3"]),
    st.binary(max_size=30),
)


class TestShards:
    @settings(max_examples=200, deadline=None)
    @given(
        files=st.lists(
            st.tuples(st.lists(st.tuples(SHARD_LINE, st.sampled_from([b"\n", b"\r\n", b""]))),
                      st.booleans()),
            min_size=1,
            max_size=3,
        ),
        parts=st.integers(1, 6),
        min_bytes=st.integers(1, 64),
    )
    def test_groups_read_as_the_whole_files(self, files, parts, min_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, (lines, gz) in enumerate(files):
                data = b"".join(line + end for line, end in lines)
                path = Path(tmp) / (f"in-{i}.ndjson" + (".gz" if gz else ""))
                path.write_bytes(gzip.compress(data, mtime=0) if gz else data)
                paths.append(path)
            with mock.patch.object(corpus, "_MIN_SHARD_BYTES", min_bytes):
                groups = corpus.shard_groups(paths, parts)
            total = sum(p.stat().st_size for p in paths)
            assert 1 <= len(groups) <= max(1, min(parts, total // min_bytes))
            shards = [shard for group in groups for shard in group]
            for shard in shards:
                assert shard.path.suffix != ".gz" or (shard.start, shard.stop) == (0, None)
            # each group alone, then all of them in order, read as the files do
            whole = _read_all(paths)
            pieces = [_read_all(group) for group in groups]
            assert [r for recs, _, _ in pieces for r in recs] == whole[0]
            assert [e for _, errs, _ in pieces for e in errs] == whole[1]
            assert _read_all(shards) == whole

    def test_cut_after_newline_numbers_lines_on(self, tmp_path):
        path = tmp_path / "in.ndjson"
        path.write_bytes(b"".join(b"{%03d}\n" % i for i in range(1, 101)))  # 6 bytes a line
        with mock.patch.object(corpus, "_MIN_SHARD_BYTES", 1):
            (first,), (second,), (third,) = corpus.shard_groups([path], 3)
        # the cuts at bytes 200 and 400 move on to the ends of lines 34 and 67
        assert (first.start, first.stop, first.first_line) == (0, 204, 1)
        assert (second.start, second.stop, second.first_line) == (204, 402, 35)
        assert (third.start, third.stop, third.first_line) == (402, None, 68)

    def test_too_few_bytes_make_one_group(self, tmp_path):
        path = tmp_path / "in.ndjson"
        path.write_bytes(b"{}\n" * 100)
        with mock.patch.object(corpus, "_MIN_SHARD_BYTES", 151):
            assert corpus.shard_groups([path], 8) == [[corpus.Shard(path)]]
        with mock.patch.object(corpus, "_MIN_SHARD_BYTES", 150):
            assert len(corpus.shard_groups([path], 8)) == 2

    def test_a_shard_stands_for_its_file(self, tmp_path):
        path = tmp_path / "in.ndjson"
        path.write_bytes(b"{}\n" * 10)
        shard = corpus.Shard(path, 6, 12, 3)
        assert isinstance(shard, os.PathLike)
        assert os.fspath(shard) == str(path)
        assert os.path.getsize(shard) == 30


GOOD_POST = st.fixed_dictionaries(
    {
        "id": st.text(max_size=3),
        "created_at": st.sampled_from(["2020-03-01T12:30:45Z", "2020-03-01T23:30:45-02:00"]),
        "text": st.text(max_size=8),
        "author_followers": st.sampled_from([0, 99, 100, 5000, 100_000, 100_001]),
        "is_retweet": st.booleans(),
    },
    optional={"author_gender": st.sampled_from(["male", "female", "x"])},
)
POST_OBJECT = st.fixed_dictionaries(
    {
        "id": st.one_of(st.text(max_size=3), st.integers(), st.none()),
        "created_at": st.sampled_from(
            ["2020-03-01T12:30:45Z", "2020-03-01T23:30:45.5-02:00", "2020-03-01 12:30", "x", 5,
             "0001-01-01T00:00:00Z"]
        ),
        "text": st.one_of(st.text(max_size=8), st.none()),
        "author_followers": st.one_of(
            st.integers(-5, 200_000), st.floats(-1.0, 200_000.0), st.booleans(), st.none()
        ),
    },
    optional={
        "author_gender": st.sampled_from(["male", "female", "x", None, ["male"]]),
        "is_retweet": st.one_of(st.booleans(), st.integers(0, 1)),
    },
)
SCORE_OBJECT = st.fixed_dictionaries(
    {
        "id": st.one_of(st.text(max_size=3), st.integers(), st.none()),
        "date": st.sampled_from(["2020-03-01", "2020-13-01", 5, None]),
        "scores": st.one_of(
            st.dictionaries(
                st.sampled_from(["sad", "joy"]),
                st.one_of(st.floats(), st.integers(-2, 2), st.just(10**400), st.booleans(),
                          st.none(), st.text(max_size=2)),
                max_size=2,
            ),
            st.none(),
            st.lists(st.none(), max_size=1),
        ),
    },
)
JUNK_LINE = st.one_of(
    st.sampled_from([b"", b"  ", b"\r", b"{", b"[1]", b"{\xff}", b"\xc3", b'{"id": 1}']),
    st.binary(max_size=20),
)


def _record_file(*objects):
    """A strategy for (file bytes, gzip or not): records and junk, any line ends."""
    line = st.one_of(*(obj.map(lambda obj: json.dumps(obj).encode()) for obj in objects), JUNK_LINE)
    return st.tuples(
        st.lists(st.tuples(line, st.sampled_from([b"\n", b"\r\n"])), max_size=8).map(
            lambda lines: b"".join(text + end for text, end in lines)),
        st.binary(max_size=1),  # a last line without its newline
        st.booleans(),
    ).map(lambda parts: (parts[0] + parts[1], parts[2]))


def _per_line(data, parse, keep, source):
    """The records, error strings and counts of parsing each line alone."""
    counts = StreamCounts()
    records, errors = [], []
    pieces = data.split(b"\n")
    lines = [piece + b"\n" for piece in pieces[:-1]] + [pieces[-1]] * bool(pieces[-1])
    for line_no, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            counts.records += 1
            counts.malformed += 1
            errors.append(str(RecordError(
                f"invalid UTF-8 at byte {err.start} ({err.reason})", line_no, source)))
            continue
        if line.isspace():
            continue
        counts.records += 1
        try:
            rec = parse(line, line_no, source)
        except RecordError as err:
            counts.malformed += 1
            errors.append(str(err))
            continue
        if keep(rec):
            counts.kept += 1
            records.append(rec)
        else:
            counts.dropped += 1
    return repr(records), errors, counts


class TestStreamsAgainstLineParsers:
    """stream_posts and stream_scores against their one-line parsers."""

    @staticmethod
    def _write(tmp, data, gz):
        path = Path(tmp) / ("in.ndjson.gz" if gz else "in.ndjson")
        path.write_bytes(gzip.compress(data, mtime=0) if gz else data)
        return path

    @settings(max_examples=150, deadline=None)
    @given(
        _record_file(GOOD_POST, POST_OBJECT),
        st.one_of(
            st.none(),
            st.builds(FilterConfig, st.integers(0, 100), st.integers(100, 100_000), st.booleans()),
        ),
    )
    def test_stream_posts(self, file, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = self._write(tmp, *file)
            counts = StreamCounts()
            with mock.patch.object(corpus, "_MAX_ERROR_SAMPLES", sys.maxsize):
                posts = list(stream_posts([path], cfg, counts))
        assert all(type(post) is Post for post in posts)
        keep = (lambda post: True) if cfg is None else (lambda post: oracles.filter_post(post, cfg))
        errors = [str(err) for err in counts.errors]
        assert (repr(posts), errors, counts) == _per_line(
            file[0], parse_post_record, keep, str(path))

    @settings(max_examples=150, deadline=None)
    @given(_record_file(SCORE_OBJECT))
    def test_stream_scores(self, file):
        with tempfile.TemporaryDirectory() as tmp:
            path = self._write(tmp, *file)
            counts = StreamCounts()
            with mock.patch.object(corpus, "_MAX_ERROR_SAMPLES", sys.maxsize):
                records = list(stream_scores(path, counts))
        assert all(type(rec) is ScoreRecord for rec in records)
        errors = [str(err) for err in counts.errors]
        assert (repr(records), errors, counts) == _per_line(
            file[0], parse_score_record, lambda rec: True, str(path))


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    """The fork helper under the corpus scan and permutation_test."""

    def test_results_in_part_order(self):
        parent = os.getpid()
        got = list(corpus.fork_map(lambda part: (part, os.getpid() != parent), [1, 2, 3], "test"))
        assert got == [(1, False), (2, True), (3, True)]
        _no_children_left()

    def test_one_part_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "fork", None)
        assert list(corpus.fork_map(lambda part: part + 1, [1], "test")) == [2]

    def test_a_child_error_comes_where_its_result_would(self):
        def work(part):
            if part > 1:
                raise ValueError(f"part {part}")
            return part

        results = corpus.fork_map(work, [0, 1, 2, 3], "test")
        _no_children_left()  # every child has ended before the results are read
        assert next(results) == 0
        assert next(results) == 1
        with pytest.raises(ValueError, match="part 2"):
            next(results)

    def test_child_ending_without_a_result_is_named(self):
        parent = os.getpid()

        def work(part):
            if os.getpid() != parent:
                os._exit(5)
            return part

        with pytest.raises(ChildProcessError, match=r"^checksum process \d+ ended .*exit status 5"):
            list(corpus.fork_map(work, [0, 1], "checksum"))
        _no_children_left()

    def test_own_part_failing_kills_the_others(self):
        parent = os.getpid()

        def work(part):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            list(corpus.fork_map(work, [0, 1, 2], "test"))
        assert time.monotonic() - started < 30
        _no_children_left()


class TestScanShards:
    """The corpus scan as pipeline.scan_corpus shards it: corpus.fork_map
    over corpus.shard_groups, one group per usable CPU."""

    POST = ('{"id": "%d", "created_at": "2020-06-01T12:00:00Z", "text": "so sad", '
            '"author_followers": 500}\n')

    @pytest.fixture
    def cfg(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "_MIN_SHARD_BYTES", 1)
        monkeypatch.setattr(corpus, "_usable_cpus", lambda: 3)
        paths = []
        for name in "abc":
            path = tmp_path / f"{name}.ndjson.gz"
            lines = "".join(self.POST % i if i % 3 else "{}\n" for i in range(90))
            path.write_bytes(gzip.compress(lines.encode(), mtime=0))
            paths.append(str(path))
        assert len(corpus.shard_groups(paths, 3)) == 3
        return PipelineConfig(inputs=tuple(paths))

    def test_one_group_forks_nothing(self, cfg, monkeypatch):
        counts, table, _, _ = pipeline.scan_corpus(cfg, None, pronouns=True)
        _no_children_left()
        monkeypatch.setattr(corpus, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", None)
        one_counts, one_table, _, _ = pipeline.scan_corpus(cfg, None, pronouns=True)
        assert (one_counts, one_table) == (counts, table)
        assert (counts.malformed, counts.kept) == (90, 180)
        # the first 20 of the one group's, as the first 20 of a sharded scan
        first = [(cfg.inputs[0], 1 + 3 * i) for i in range(20)]
        assert [(e.source, e.line_no) for e in one_counts.errors] == first
        assert [(e.source, e.line_no) for e in counts.errors] == first

    def test_first_failing_group_raises(self, cfg):
        for path in cfg.inputs[1:]:
            Path(path).write_bytes(b"not gzip\n")
        with pytest.raises(RecordError) as info:
            pipeline.scan_corpus(cfg, None, pronouns=True)
        assert (info.value.line_no, info.value.source) == (1, cfg.inputs[1])
        assert "corrupt or truncated gzip stream" in str(info.value)
        _no_children_left()

    def test_child_ending_without_a_result(self, cfg, monkeypatch):
        parent = os.getpid()
        stream = pipeline.stream_posts

        def stream_posts(*args):
            if os.getpid() != parent:
                os._exit(3)
            return stream(*args)

        monkeypatch.setattr(pipeline, "stream_posts", stream_posts)
        with pytest.raises(ChildProcessError, match=r"^corpus scan process \d+ .*exit status 3"):
            pipeline.scan_corpus(cfg, None, pronouns=True)
        _no_children_left()
