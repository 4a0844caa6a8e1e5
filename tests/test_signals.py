"""Daily aggregation, gender rescaling, weekly alignment, survey ingestion."""

import json
import re
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emoscope.corpus import Gender, Post
from emoscope.errors import SignalError, SurveyError
from emoscope.lexicon import Lexicon
from emoscope.signals import (
    DailySignal,
    ScoreCounts,
    daily_mean_scores,
    gender_rescale,
    load_survey,
    paired_values,
    stream_scores,
    weekly_align,
    write_daily_csv,
    write_weekly_csv,
)

from oracles import daily_fraction, lexicon_predicate, pronoun_predicate

SAD = Lexicon("sad", frozenset({"sad"}), frozenset())


def _post(i, day, text="hello", gender=Gender.UNKNOWN):
    return Post(
        id=str(i),
        timestamp=datetime(day.year, day.month, day.day, 12, tzinfo=timezone.utc),
        text=text,
        author_gender=gender,
        author_followers=500,
        is_retweet=False,
    )


def _signal(values, name="s"):
    counts = {d: (v, 1.0) for d, v in values.items()}
    return DailySignal(name=name, values=dict(values), counts=counts)


D0 = date(2020, 3, 2)


class TestDailyFraction:
    def test_ratio(self):
        day = D0
        posts = [_post(i, day, "so sad" if i < 3 else "fine") for i in range(10)]
        sig = daily_fraction(posts, lexicon_predicate(SAD))
        assert sig.values[day] == pytest.approx(0.3)
        assert sig.counts[day] == (3, 10)

    def test_gender_stratum(self):
        day = D0
        posts = (
            [_post(i, day, "sad", Gender.MALE) for i in range(2)]
            + [_post(10 + i, day, "fine", Gender.MALE) for i in range(2)]
            + [_post(20 + i, day, "sad", Gender.FEMALE) for i in range(5)]
        )
        sig = daily_fraction(posts, lexicon_predicate(SAD), gender="male")
        assert sig.values[day] == pytest.approx(0.5)
        assert sig.counts[day] == (2, 4)

    def test_all_includes_unknown_gender(self):
        day = D0
        posts = [
            _post(1, day, "sad", Gender.MALE),
            _post(2, day, "fine", Gender.UNKNOWN),
        ]
        sig = daily_fraction(posts, lexicon_predicate(SAD), gender="all")
        assert sig.counts[day] == (1, 2)

    def test_empty_day_missing(self):
        posts = [_post(1, D0, "sad", Gender.FEMALE)]
        sig = daily_fraction(posts, lexicon_predicate(SAD), gender="male")
        assert D0 not in sig.values
        assert len(sig) == 0

    def test_value_is_exact_ratio(self):
        posts = [_post(i, D0, "sad" if i % 3 == 0 else "x") for i in range(9)]
        sig = daily_fraction(posts, lexicon_predicate(SAD))
        num, den = sig.counts[D0]
        assert sig.values[D0] == num / den

    def test_pronoun_predicate(self):
        posts = [_post(1, D0, "she left"), _post(2, D0, "i left")]
        sig = daily_fraction(posts, pronoun_predicate())
        assert sig.values[D0] == pytest.approx(0.5)

    def test_bad_gender_rejected(self):
        with pytest.raises(SignalError):
            daily_fraction([], lexicon_predicate(SAD), gender="other")


class TestGenderRescale:
    def test_mean(self):
        male = _signal({D0: 0.02})
        female = _signal({D0: 0.04})
        assert gender_rescale(male, female).values[D0] == pytest.approx(0.03)

    def test_identity(self):
        male = _signal({D0: 0.05})
        female = _signal({D0: 0.05})
        assert gender_rescale(male, female).values[D0] == pytest.approx(0.05)

    def test_missing_propagates(self):
        d1 = D0 + timedelta(days=1)
        male = _signal({D0: 0.02, d1: 0.02})
        female = _signal({D0: 0.04})
        merged = gender_rescale(male, female)
        assert D0 in merged.values and d1 not in merged.values

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_symmetry(self, a, b):
        male, female = _signal({D0: a}), _signal({D0: b})
        assert gender_rescale(male, female).values[D0] == pytest.approx(
            gender_rescale(female, male).values[D0]
        )

    def test_equal_volumes_equal_prevalence_matches_agnostic(self):
        days = [D0 + timedelta(days=i) for i in range(5)]
        posts = []
        k = 0
        for i, day in enumerate(days):
            for gender in (Gender.MALE, Gender.FEMALE):
                for j in range(10):
                    text = "sad" if j < i else "fine"
                    posts.append(_post(k, day, text, gender))
                    k += 1
        pred = lexicon_predicate(SAD)
        male = daily_fraction(posts, pred, gender="male")
        female = daily_fraction(posts, pred, gender="female")
        agnostic = daily_fraction(posts, pred, gender="all")
        merged = gender_rescale(male, female)
        for day in days:
            assert merged.values[day] == pytest.approx(agnostic.values[day])


class TestScores:
    def _score_file(self, tmp_path, rows):
        p = tmp_path / "scores.ndjson"
        p.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        return p

    def test_daily_mean(self, tmp_path):
        p = self._score_file(
            tmp_path,
            [
                {"id": "a", "date": "2020-03-02", "scores": {"sad": 0.2}},
                {"id": "b", "date": "2020-03-02", "scores": {"sad": 0.4}},
                {"id": "c", "date": "2020-03-03", "scores": {"sad": 0.7}},
            ],
        )
        sig = daily_mean_scores(stream_scores(p), ["sad"], ScoreCounts())["sad"]
        assert sig.name == "score_sad"
        assert sig.values[date(2020, 3, 2)] == pytest.approx(0.3)
        assert sig.values[date(2020, 3, 3)] == pytest.approx(0.7)

    def test_out_of_range_score_skipped_and_counted(self, tmp_path):
        p = self._score_file(
            tmp_path,
            [
                {"id": "a", "date": "2020-03-02", "scores": {"sad": 1.3}},
                {"id": "b", "date": "2020-03-02", "scores": {"sad": 0.5}},
            ],
        )
        counts = ScoreCounts()
        sig = daily_mean_scores(stream_scores(p, counts), ["sad"], counts)["sad"]
        assert sig.values[date(2020, 3, 2)] == pytest.approx(0.5)
        # the value is rejected, its line is not malformed
        assert counts.malformed == 0
        assert counts.rejected_values == 1

    def test_integer_beyond_float_range_is_a_rejected_value(self, tmp_path):
        p = self._score_file(
            tmp_path,
            [
                {"id": "a", "date": "2020-03-02", "scores": {"sad": 10**400}},
                {"id": "b", "date": "2020-03-02", "scores": {"sad": -(10**400)}},
                {"id": "c", "date": "2020-03-02", "scores": {"sad": 0.5}},
            ],
        )
        counts = ScoreCounts()
        sig = daily_mean_scores(stream_scores(p, counts), ["sad"], counts)["sad"]
        assert sig.counts == {date(2020, 3, 2): (0.5, 1.0)}
        assert (counts.malformed, counts.rejected_values) == (0, 2)

    def test_rejected_values_keep_line_counts(self, tmp_path):
        # 4 records, 3 emotions, 9 values outside [0, 1]: every line parses
        p = self._score_file(
            tmp_path,
            [
                {"id": "a", "date": "2020-03-02", "scores": {"sad": 1.5, "joy": -0.1, "fear": 2.0}},
                {"id": "b", "date": "2020-03-02", "scores": {"sad": 0.5, "joy": 3.0, "fear": 9.0}},
                {"id": "c", "date": "2020-03-03", "scores": {"sad": -1.0, "joy": 1.2, "fear": 1.1}},
                {"id": "d", "date": "2020-03-03", "scores": {"sad": 0.4, "joy": 7.0, "fear": 0.3}},
            ],
        )
        counts = ScoreCounts()
        signals = daily_mean_scores(stream_scores(p, counts), ["sad", "joy", "fear"], counts)
        assert counts.as_dict() == {
            "records": 4, "parsed": 4, "malformed": 0, "filtered": 0, "kept": 4,
            "rejected_values": 9,
        }
        assert counts.records == counts.parsed + counts.malformed
        assert counts.parsed == counts.kept + counts.dropped
        assert signals["sad"].counts == {date(2020, 3, 2): (0.5, 1.0), date(2020, 3, 3): (0.4, 1.0)}
        assert signals["joy"].counts == {}
        assert signals["fear"].counts == {date(2020, 3, 3): (0.3, 1.0)}

    def test_emotion_named_twice_counts_once(self, tmp_path):
        p = self._score_file(
            tmp_path, [{"id": "a", "date": "2020-03-02", "scores": {"sad": 0.5, "joy": 1.5}}]
        )
        counts = ScoreCounts()
        signals = daily_mean_scores(stream_scores(p, counts), ["sad", "joy", "sad", "joy"], counts)
        assert counts.rejected_values == 1
        assert signals["sad"].counts == {date(2020, 3, 2): (0.5, 1.0)}

    def test_missing_emotion_ignored(self, tmp_path):
        p = self._score_file(
            tmp_path,
            [
                {"id": "a", "date": "2020-03-02", "scores": {"joy": 0.9}},
                {"id": "b", "date": "2020-03-03", "scores": {"sad": 0.4}},
            ],
        )
        sig = daily_mean_scores(stream_scores(p), ["sad"], ScoreCounts())["sad"]
        assert date(2020, 3, 2) not in sig.values
        assert sig.values[date(2020, 3, 3)] == pytest.approx(0.4)


class TestWeeklyAlign:
    def test_constant_signal(self):
        days = {date(2020, 3, 2) + timedelta(days=i): 0.25 for i in range(21)}
        anchors = [date(2020, 3, 8), date(2020, 3, 15), date(2020, 3, 22)]
        weekly = weekly_align(_signal(days), anchors)
        assert [weekly.values[a] for a in anchors] == pytest.approx([0.25] * 3)
        assert all(weekly.coverage[a] == pytest.approx(1.0) for a in anchors)

    def test_one_to_seven_means_four(self):
        start = date(2020, 3, 2)
        days = {start + timedelta(days=i): float(i + 1) for i in range(7)}
        weekly = weekly_align(_signal(days), [start + timedelta(days=6)])
        assert weekly.values[start + timedelta(days=6)] == pytest.approx(4.0)

    def test_partial_coverage(self):
        start = date(2020, 3, 2)
        days = {start + timedelta(days=i): float(i + 1) for i in range(7)}
        del days[start + timedelta(days=3)]  # drop the value 4
        anchor = start + timedelta(days=6)
        weekly = weekly_align(_signal(days), [anchor])
        assert weekly.values[anchor] == pytest.approx((1 + 2 + 3 + 5 + 6 + 7) / 6)
        assert weekly.coverage[anchor] == pytest.approx(6 / 7)

    def test_empty_window_missing(self):
        days = {date(2020, 3, 2): 1.0}
        anchor = date(2020, 5, 1)
        weekly = weekly_align(_signal(days), [anchor])
        assert anchor not in weekly.values
        assert anchor not in weekly.coverage
        assert anchor in weekly.anchors

    def test_window_offset(self):
        start = date(2020, 3, 2)
        days = {start + timedelta(days=i): float(i) for i in range(14)}
        anchor = start + timedelta(days=13)
        shifted = weekly_align(_signal(days), [anchor], offset_days=7)
        assert shifted.values[anchor] == pytest.approx(np.mean([0, 1, 2, 3, 4, 5, 6]))

    def test_window_length(self):
        start = date(2020, 3, 2)
        days = {start + timedelta(days=i): float(i) for i in range(14)}
        anchor = start + timedelta(days=13)
        wide = weekly_align(_signal(days), [anchor], window_days=14)
        assert wide.values[anchor] == pytest.approx(6.5)

    def test_anchors_must_increase(self):
        with pytest.raises(SignalError):
            weekly_align(_signal({D0: 1.0}), [D0, D0])

    def test_window_past_the_calendar_start_counts_as_missing(self):
        days = {date(1, 1, 1): 0.5, date(1, 1, 2): 0.25}
        anchors = [date(1, 1, 2), date(1, 1, 9)]
        weekly = weekly_align(_signal(days), anchors)
        assert weekly.values == {date(1, 1, 2): (0.25 + 0.5) / 2}
        assert weekly.coverage == {date(1, 1, 2): 2 / 7}
        # a window of any length or offset is plain arithmetic on day numbers
        wide = weekly_align(_signal(days), anchors, window_days=10**20)
        assert wide.values == {a: (0.25 + 0.5) / 2 for a in anchors}
        assert weekly_align(_signal(days), anchors, offset_days=10**20).values == {}

    @given(
        st.dictionaries(st.integers(0, 30), st.floats(0, 1), max_size=25),
        st.integers(1, 10),
        st.integers(0, 5),
    )
    def test_equals_a_walk_back_from_each_anchor(self, values, window, offset):
        days = {D0 + timedelta(days=k): v for k, v in values.items()}
        anchors = [D0 + timedelta(days=k) for k in range(0, 40, 3)]
        weekly = weekly_align(_signal(days), anchors, window_days=window, offset_days=offset)
        for anchor in anchors:
            end = anchor - timedelta(days=offset)
            window_days = (end - timedelta(days=k) for k in range(window))
            present = [days[d] for d in window_days if d in days]
            if present:  # summed in the same order, so exactly equal
                assert weekly.values[anchor] == sum(present) / len(present)
                assert weekly.coverage[anchor] == len(present) / window
            else:
                assert anchor not in weekly.values and anchor not in weekly.coverage

    @given(st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
    def test_commutes_with_affine(self, scale, shift):
        start = date(2020, 3, 2)
        rng = np.random.default_rng(4)
        days = {start + timedelta(days=i): float(v) for i, v in enumerate(rng.random(21))}
        anchors = [start + timedelta(days=6), start + timedelta(days=13)]
        base = weekly_align(_signal(days), anchors)
        mapped = weekly_align(
            _signal({d: scale * v + shift for d, v in days.items()}), anchors
        )
        for a in anchors:
            assert mapped.values[a] == pytest.approx(scale * base.values[a] + shift)

    def test_merge_order_independent(self):
        start = date(2020, 3, 2)
        posts = [
            _post(i, start + timedelta(days=i % 10), "sad" if i % 4 == 0 else "ok")
            for i in range(200)
        ]
        pred = lexicon_predicate(SAD)
        whole = daily_fraction(posts, pred)
        # shard, aggregate separately, merge counters in the reverse order
        shards = [posts[::2], posts[1::2]]
        merged_counts: dict = {}
        for shard in reversed(shards):
            partial = daily_fraction(shard, pred)
            for d, (num, den) in partial.counts.items():
                a, b = merged_counts.get(d, (0.0, 0.0))
                merged_counts[d] = (a + num, b + den)
        merged = DailySignal.from_counts("s", merged_counts)
        assert merged.values == whole.values


class TestLoadSurvey:
    def _write(self, tmp_path, text):
        p = tmp_path / "survey.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_two_emotions(self, tmp_path):
        p = self._write(
            tmp_path,
            "date,emotion,percent\n"
            "2020-01-06,sad,26\n"
            "2020-01-06,happy,50\n"
            "2020-01-13,sad,27.5\n"
            "2020-01-13,happy,49\n",
        )
        series = load_survey(p)
        assert [s.emotion for s in series] == ["sad", "happy"]
        sad = series[0]
        assert sad.anchors == (date(2020, 1, 6), date(2020, 1, 13))
        assert sad.percent[date(2020, 1, 6)] == pytest.approx(26.0)

    def test_column_order_free(self, tmp_path):
        p = self._write(tmp_path, "emotion,percent,date\nsad,26,2020-01-06\n")
        assert load_survey(p)[0].percent[date(2020, 1, 6)] == pytest.approx(26.0)

    def test_duplicate_rejected(self, tmp_path):
        p = self._write(
            tmp_path,
            "date,emotion,percent\n2020-01-06,sad,26\n2020-01-06,sad,27\n",
        )
        with pytest.raises(SurveyError, match=r":3"):
            load_survey(p)

    def test_out_of_range_percent(self, tmp_path):
        p = self._write(tmp_path, "date,emotion,percent\n2020-01-06,sad,101\n")
        with pytest.raises(SurveyError):
            load_survey(p)

    def test_non_monotone_dates(self, tmp_path):
        p = self._write(
            tmp_path,
            "date,emotion,percent\n2020-01-13,sad,26\n2020-01-06,sad,25\n",
        )
        with pytest.raises(SurveyError):
            load_survey(p)

    def test_bad_header(self, tmp_path):
        p = self._write(tmp_path, "when,what,how\n2020-01-06,sad,26\n")
        with pytest.raises(SurveyError):
            load_survey(p)

    def test_bad_date(self, tmp_path):
        p = self._write(tmp_path, "date,emotion,percent\nJan 6,sad,26\n")
        with pytest.raises(SurveyError, match=r":2"):
            load_survey(p)

    def test_errors_name_the_physical_line(self, tmp_path):
        """A quoted emotion holding a newline spans lines 2-3, so the bad
        date starts on line 4, and after a blank line on line 6."""
        head = 'date,emotion,percent\n2020-01-06,"multi\nline",26\n'
        for tail, line in (("Jan 6,sad,26\n", 4), ("2020-01-06,sad,26\n\nJan 6,sad,26\n", 6)):
            p = self._write(tmp_path, head + tail)
            with pytest.raises(SurveyError, match=rf"^{re.escape(str(p))}:{line}: bad date"):
                load_survey(p)

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path, "date,emotion,percent\n")
        with pytest.raises(SurveyError):
            load_survey(p)


def _weekly(anchor_values, name="sig"):
    anchors = tuple(sorted(anchor_values))
    from emoscope.signals import WeeklySeries

    return WeeklySeries(
        name=name,
        anchors=anchors,
        values=dict(anchor_values),
        coverage={a: 1.0 for a in anchors},
    )


def _survey(anchor_values, emotion="sad"):
    from emoscope.signals import SurveySeries

    anchors = tuple(sorted(anchor_values))
    return SurveySeries(emotion=emotion, anchors=anchors, percent=dict(anchor_values))


class TestPairedValues:
    def test_intersection_only(self):
        a1, a2, a3 = date(2020, 1, 6), date(2020, 1, 13), date(2020, 1, 20)
        weekly = _weekly({a1: 0.1, a3: 0.3})
        survey = _survey({a1: 10.0, a2: 20.0, a3: 30.0})
        x, y, common = paired_values(weekly, survey)
        assert common == [a1, a3]
        assert x.tolist() == [0.1, 0.3]
        assert y.tolist() == [10.0, 30.0]


class TestCsvWriters:
    def test_daily_round_trip(self, tmp_path):
        sig = daily_fraction(
            [_post(i, D0, "sad" if i < 2 else "x") for i in range(5)],
            lexicon_predicate(SAD),
        )
        path = tmp_path / "daily.csv"
        write_daily_csv(sig, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "date,value,numerator,denominator"
        assert lines[1].startswith("2020-03-02,0.4,2,5")

    def test_weekly_blank_for_missing(self, tmp_path):
        anchor1, anchor2 = date(2020, 3, 8), date(2021, 1, 1)
        days = {date(2020, 3, 2) + timedelta(days=i): 0.5 for i in range(7)}
        weekly = weekly_align(_signal(days), [anchor1, anchor2])
        path = tmp_path / "weekly.csv"
        write_weekly_csv(weekly, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "date,value,coverage"
        assert lines[1].startswith("2020-03-08,0.5,1")
        assert lines[2] == "2021-01-01,,0"
