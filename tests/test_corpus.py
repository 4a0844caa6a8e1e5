"""NDJSON parsing, follower/retweet filtering, stream accounting."""

import gzip
import json
from datetime import date, datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from emoscope.corpus import (
    FilterConfig,
    Gender,
    Post,
    StreamCounts,
    filter_post,
    parse_post_record,
    serialize_post,
    stream_posts,
)
from emoscope.errors import ConfigError, RecordError
from emoscope.signals import parse_score_record

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
        assert post.day() == date(2020, 3, 1)

    def test_day_timezone_offset(self):
        rec = json.loads(VALID)
        rec["created_at"] = "2020-03-01T01:30:00Z"
        post = parse_post_record(json.dumps(rec))
        assert post.day(tz_offset_minutes=-120) == date(2020, 2, 29)

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
        assert parse_post_record(serialize_post(post)) == post

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
        assert parse_post_record(serialize_post(post)) == post


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
        assert filter_post(self._post(followers=100), self.CFG)
        assert filter_post(self._post(followers=100_000), self.CFG)
        assert not filter_post(self._post(followers=99), self.CFG)
        assert not filter_post(self._post(followers=100_001), self.CFG)

    def test_retweets_dropped(self):
        assert not filter_post(self._post(retweet=True), self.CFG)
        keep = FilterConfig(100, 100_000, exclude_retweets=False)
        assert filter_post(self._post(retweet=True), keep)

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

    def test_on_error_callback(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        _write_ndjson(path, ["broken", VALID])
        seen = []
        list(stream_posts([path], FilterConfig(), StreamCounts(), on_error=seen.append))
        assert len(seen) == 1
        assert isinstance(seen[0], RecordError)
        assert ":1" in str(seen[0])

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
