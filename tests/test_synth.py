"""Synthetic corpus generator: determinism, planted-truth fidelity."""

import csv
import gzip
import hashlib
import json
import math
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from emoscope.cli import main
from emoscope.corpus import FilterConfig, StreamCounts, stream_posts
from emoscope.errors import ConfigError
from emoscope.lexicon import MultiLexiconMatcher, demo_lexicon, tokenize
from emoscope.signals import load_survey
from emoscope.synth import (
    GroundTruth,
    SynthConfig,
    generate_corpus,
    generate_scores,
    generate_survey,
    weekly_anchors,
)

from oracles import daily_fraction, lexicon_predicate

SMALL = SynthConfig(days=10, posts_per_day=200, seed=7)


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"days": 0},
            {"posts_per_day": 0},
            {"male_share": 1.5},
            {"phi": 1.0},
            {"amplitude": -0.1},
            {"decoy_fraction": 1.1},
            {"pronoun_rate": -0.2},
            {"prevalence": {}},
            {"prevalence": {"sadness": (0.9, 0.95), "anxiety": (0.5, 0.5)}, "amplitude": 0.2},
            {"seed": -1},
            {"start": date(9999, 12, 1), "days": 40},
            {"days": 120, "posts_per_day": 2**62},
            {"days": 6},
            {"respondents": -1},
            {"respondents": 2**63},
            {"survey_seed": -1},
            {"scores_per_day": 0},
            {"score_noise": -0.1},
            {"score_noise": math.nan},
            {"score_noise": math.inf},
            {"score_seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs).validate()

    def test_unknown_emotion_without_terms(self):
        with pytest.raises(ConfigError, match="no demo lexicon"):
            SynthConfig(prevalence={"melancholy": (0.05, 0.05)}).validate()


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        generate_corpus(SMALL, a)
        generate_corpus(SMALL, b)
        assert a.read_bytes() == b.read_bytes()

    def test_gzip_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.ndjson.gz", tmp_path / "b.ndjson.gz"
        generate_corpus(SMALL, a)
        generate_corpus(SMALL, b)
        assert a.read_bytes() == b.read_bytes()
        with gzip.open(a, "rt", encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert first["id"] == "p0"

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        generate_corpus(SMALL, a)
        generate_corpus(SynthConfig(days=10, posts_per_day=200, seed=8), b)
        assert a.read_bytes() != b.read_bytes()

    def test_truth_matches_rerun(self, tmp_path):
        t1 = generate_corpus(SMALL, tmp_path / "a.ndjson")
        t2 = generate_corpus(SMALL, tmp_path / "b.ndjson")
        for emotion in t1.emotions:
            assert np.array_equal(t1.male[emotion], t2.male[emotion])
            assert np.array_equal(t1.female[emotion], t2.female[emotion])


class TestCorpusShape:
    def test_counts_and_validity(self, tmp_path):
        path = tmp_path / "c.ndjson"
        generate_corpus(SMALL, path)
        counts = StreamCounts()
        posts = list(stream_posts([path], FilterConfig(), counts))
        assert counts.records == SMALL.days * SMALL.posts_per_day
        assert counts.malformed == 0
        assert counts.kept == counts.records  # no decoys configured
        days = {p.timestamp.date() for p in posts}
        assert len(days) == SMALL.days
        assert min(days) == SMALL.start

    def test_decoy_fraction_exact(self, tmp_path):
        cfg = SynthConfig(days=8, posts_per_day=125, seed=3, decoy_fraction=0.1)
        path = tmp_path / "c.ndjson"
        generate_corpus(cfg, path)
        counts = StreamCounts()
        list(stream_posts([path], FilterConfig(), counts))
        assert counts.records == 1000
        assert counts.dropped == 100  # exactly decoy_fraction of each day
        assert counts.malformed == 0

    def test_male_share(self, tmp_path):
        cfg = SynthConfig(days=7, posts_per_day=2000, seed=5, male_share=0.639)
        path = tmp_path / "c.ndjson"
        generate_corpus(cfg, path)
        posts = list(stream_posts([path], FilterConfig(), StreamCounts()))
        share = sum(p.author_gender.value == "male" for p in posts) / len(posts)
        assert share == pytest.approx(0.639, abs=0.02)

    def test_matched_fraction_tracks_truth(self, tmp_path):
        cfg = SynthConfig(days=8, posts_per_day=4000, seed=11, amplitude=0.0)
        path = tmp_path / "c.ndjson"
        truth = generate_corpus(cfg, path)
        posts = list(stream_posts([path], FilterConfig(), StreamCounts()))
        sig = daily_fraction(posts, lexicon_predicate(demo_lexicon("sadness")))
        base = float(truth.population("sadness")[0])
        # per-day binomial sd at n=4000
        sd = math.sqrt(base * (1 - base) / 4000)
        for day, value in sig.values.items():
            assert abs(value - base) < 5 * sd

    def test_filler_text_never_matches(self, tmp_path):
        # match decisions are planted per emotion; with prevalence ~ 0 no
        # post should match, i.e. filler words and pronouns are inert
        cfg = SynthConfig(
            days=7,
            posts_per_day=2000,
            seed=13,
            amplitude=0.0,
            pronoun_rate=0.5,
            prevalence={"sadness": (1e-12, 1e-12)},
        )
        path = tmp_path / "c.ndjson"
        generate_corpus(cfg, path)
        matcher = MultiLexiconMatcher(
            [demo_lexicon(n) for n in ("sadness", "anxiety", "positive")]
        )
        for post in stream_posts([path], FilterConfig(), StreamCounts()):
            assert matcher.match(tokenize(post.text)) == set()


class TestGroundTruth:
    def test_population_is_mean(self, tmp_path):
        truth = generate_corpus(SMALL, tmp_path / "c.ndjson")
        for emotion in truth.emotions:
            want = 0.5 * (truth.male[emotion] + truth.female[emotion])
            assert np.allclose(truth.population(emotion), want)

    def test_prevalence_stays_in_band(self, tmp_path):
        cfg = SynthConfig(days=400, posts_per_day=1, seed=2, amplitude=0.02)
        truth = generate_corpus(cfg, tmp_path / "c.ndjson")
        for emotion in truth.emotions:
            base_m, base_f = cfg.prevalence[emotion]
            assert np.all(np.abs(truth.male[emotion] - base_m) <= 0.02 + 1e-12)
            assert np.all(np.abs(truth.female[emotion] - base_f) <= 0.02 + 1e-12)

    def test_step_change_applied(self, tmp_path):
        cfg = SynthConfig(
            days=20,
            posts_per_day=1,
            seed=2,
            amplitude=0.0,
            step_changes=(("sadness", 10, 0.03),),
        )
        truth = generate_corpus(cfg, tmp_path / "c.ndjson")
        male = truth.male["sadness"]
        assert male[9] == pytest.approx(0.04)
        assert male[10] == pytest.approx(0.07)

    def test_truth_csv(self, tmp_path):
        truth = generate_corpus(SMALL, tmp_path / "c.ndjson", truth_path=tmp_path / "t.csv")
        with open(tmp_path / "t.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == SMALL.days * len(truth.emotions)
        first = rows[0]
        assert first["date"] == SMALL.start.isoformat()
        emotion = first["emotion"]
        assert float(first["male"]) == pytest.approx(truth.male[emotion][0])
        assert float(first["population"]) == pytest.approx(truth.population(emotion)[0])

    def test_weekly_population_window(self):
        male = {"e": np.arange(1.0, 15.0) / 100}
        truth = GroundTruth(
            start=date(2020, 1, 1), days=14, emotions=("e",), male=male, female=male
        )
        anchors = [date(2020, 1, 7), date(2020, 1, 14)]
        weekly = truth.weekly_population(anchors)
        assert weekly["e"][0] == pytest.approx(np.mean(np.arange(1.0, 8.0)) / 100)
        assert weekly["e"][1] == pytest.approx(np.mean(np.arange(8.0, 15.0)) / 100)

    def test_day_index_bounds(self):
        truth = GroundTruth(
            start=date(2020, 1, 1),
            days=5,
            emotions=("e",),
            male={"e": np.full(5, 0.1)},
            female={"e": np.full(5, 0.1)},
        )
        with pytest.raises(ConfigError):
            truth.day_index(date(2020, 1, 6))


class TestWeeklyAnchors:
    def test_default_layout(self):
        anchors = weekly_anchors(date(2020, 6, 1), 120)
        assert anchors[0] == date(2020, 6, 7)
        assert anchors[1] - anchors[0] == timedelta(days=7)
        assert len(anchors) == 17
        assert anchors[-1] <= date(2020, 6, 1) + timedelta(days=119)

    def test_too_short(self):
        with pytest.raises(ConfigError):
            weekly_anchors(date(2020, 6, 1), 5)


class TestGenerateSurvey:
    def test_zero_respondents_exact(self, tmp_path):
        truth = generate_corpus(SMALL, tmp_path / "c.ndjson")
        anchors = weekly_anchors(SMALL.start, SMALL.days)
        path = tmp_path / "survey.csv"
        generate_survey(replace(SMALL, respondents=0), truth, anchors, path)
        series = {s.emotion: s for s in load_survey(path)}
        weekly = truth.weekly_population(anchors)
        for emotion in truth.emotions:
            for k, anchor in enumerate(anchors):
                assert series[emotion].percent[anchor] == pytest.approx(
                    100.0 * weekly[emotion][k], abs=1e-9
                )

    def test_binomial_noise_scale(self, tmp_path):
        cfg = SynthConfig(days=120, posts_per_day=1, seed=9, amplitude=0.0)
        truth = generate_corpus(cfg, tmp_path / "c.ndjson")
        anchors = weekly_anchors(cfg.start, cfg.days)
        path = tmp_path / "survey.csv"
        generate_survey(replace(cfg, survey_seed=1), truth, anchors, path)
        series = {s.emotion: s for s in load_survey(path)}
        p = float(truth.population("sadness")[0])
        sd_pct = 100.0 * math.sqrt(p * (1 - p) / 2000)
        errors = [
            series["sadness"].percent[a] - 100.0 * p for a in anchors
        ]
        assert np.std(errors) == pytest.approx(sd_pct, rel=0.6)
        assert max(abs(e) for e in errors) < 5 * sd_pct

    def test_deterministic(self, tmp_path):
        truth = generate_corpus(SMALL, tmp_path / "c.ndjson")
        anchors = weekly_anchors(SMALL.start, SMALL.days)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_survey(replace(SMALL, survey_seed=4), truth, anchors, a)
        generate_survey(replace(SMALL, survey_seed=4), truth, anchors, b)
        assert a.read_bytes() == b.read_bytes()

    def test_anchor_outside_range(self, tmp_path):
        truth = generate_corpus(SMALL, tmp_path / "c.ndjson")
        with pytest.raises(ConfigError):
            generate_survey(SMALL, truth, [date(2030, 1, 1)], tmp_path / "s.csv")


class TestGenerateScores:
    def test_plain_floats_and_mean_tracks_truth(self, tmp_path):
        truth = generate_corpus(SMALL, tmp_path / "c.ndjson")
        path = tmp_path / "scores.ndjson"
        generate_scores(replace(SMALL, scores_per_day=300, score_seed=2), truth, path)
        first = path.read_text().splitlines()[0]
        rec = json.loads(first)
        assert rec["id"] == "s0_0"
        assert set(rec["scores"]) == set(truth.emotions)
        day_means: dict = {}
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            day_means.setdefault(rec["date"], []).append(rec["scores"]["sadness"])
        mean0 = np.mean(day_means[SMALL.start.isoformat()])
        assert mean0 == pytest.approx(
            float(truth.population("sadness")[0]), abs=5 * 0.05 / math.sqrt(300)
        )

    def test_zero_noise_exact(self, tmp_path):
        truth = generate_corpus(SMALL, tmp_path / "c.ndjson")
        path = tmp_path / "scores.ndjson"
        generate_scores(replace(SMALL, scores_per_day=2, score_noise=0.0), truth, path)
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            idx = truth.day_index(date.fromisoformat(rec["date"]))
            for emotion, value in rec["scores"].items():
                assert value == pytest.approx(float(truth.population(emotion)[idx]))

    def test_scores_clipped(self, tmp_path):
        truth = generate_corpus(SMALL, tmp_path / "c.ndjson")
        path = tmp_path / "scores.ndjson"
        cfg = replace(SMALL, scores_per_day=50, score_noise=2.0, score_seed=3)
        generate_scores(cfg, truth, path)
        for line in path.read_text().splitlines():
            for value in json.loads(line)["scores"].values():
                assert 0.0 <= value <= 1.0


# The raw bytes synth writes, on a run that takes every branch of the
# corpus loop (decoys, a step change, a separate pronoun rate for matching
# posts). Amplitude 0 plants constant rates, so truth.csv holds exact sums
# of its base rates rather than tanh values, whose last bit may depend on
# the CPU.
PINNED_SYNTH_ARGS = ["--days", "175", "--posts-per-day", "6", "--seed", "3", "--amplitude", "0",
                     "--decoy-fraction", "0.1", "--scores-per-day", "3",
                     "--step", "sadness=40:0.01", "--pronoun-rate-emotional", "0.4"]
PINNED_SYNTH = {
    "corpus.ndjson": "ff9bd9ed58d210c0b5b81831dcc81c0e404c399f2291d0a119bf650ffa6af5e3",
    "scores.ndjson": "fd260d3184a3e16ff99ebc1ec98ba372dc55c6c3a5faeef25a5ddedc00edd1a1",
    "survey.csv": "a46c599f2b390c440ef3e3801b269058cfafb8ef3a60f3b81e77486f1ceabdfe",
    "truth.csv": "7303c82d302175bd3aa7ba4773017bd275570803128cd45ce7995ddb9ed6de11",
    "pipeline.ini": "62f46c2725e2be3ce602b5394ffb8b8df8bc32564f37b83f076f32ba545f2198",
}


def test_synth_output_bytes_pinned(tmp_path):
    plain, packed = tmp_path / "plain", tmp_path / "packed"
    assert main(["synth", "--out", str(plain), *PINNED_SYNTH_ARGS]) == 0
    assert main(["synth", "--out", str(packed), "--gzip", *PINNED_SYNTH_ARGS]) == 0
    digests = {name: hashlib.sha256((plain / name).read_bytes()).hexdigest()
               for name in PINNED_SYNTH}
    assert digests == PINNED_SYNTH
    with gzip.open(packed / "corpus.ndjson.gz", "rb") as fh:
        assert fh.read() == (plain / "corpus.ndjson").read_bytes()


# A run that sets only the size, so every other knob takes its default:
# the seeds, rates, survey and score knobs and the planted prevalences.
PINNED_DEFAULTS = {
    "corpus.ndjson": "443bf163c337ac5f4571d2ae49f17316d10c5c68964a90b0d94b40945adcf314",
    "survey.csv": "3dfc4fa6cce5240e82dfb90dce4dcef402086b3e71f45c8bffd4825baa71a223",
    "pipeline.ini": "b919ba9561ca6766cf955b5606b4b20e7012dba8d201ad6ac3eaa4aeb01d3708",
}


def test_synth_default_bytes_pinned(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--days", "21", "--posts-per-day", "5"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_DEFAULTS}
    assert digests == PINNED_DEFAULTS
