"""The one corpus scan behind `signal` and `thirdperson`, checked against
brute-force counts over the same filtered posts, and the shared
shift tests behind `validate`, checked against one call per test."""

import csv
import dataclasses
import gc
import json
import math
import random
from datetime import date, datetime, timedelta
from functools import reduce
from operator import or_
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emoscope import corpus, pipeline
from emoscope.cli import main
from emoscope.config import PipelineConfig, expand_inputs, load_config
from emoscope.corpus import StreamCounts, stream_posts
from emoscope.lexicon import (
    THIRD_PERSON_PRONOUNS,
    ExplicitReportMatcher,
    Lexicon,
    MultiLexiconMatcher,
    ReportTemplateSet,
    contains_third_person,
    load_lexicon,
    tokenize,
)
from emoscope.pipeline import (
    ProportionRow,
    ValidationRow,
    build_signals,
    format_proportions_table,
    format_report_table,
    load_survey_map,
    run_validation,
    strata_for,
    thirdperson_rows,
    validate_pair,
)
from emoscope.signals import (
    GENDER_STRATA,
    DailySignal,
    SurveySeries,
    WeeklySeries,
    paired_values,
    weekly_align,
)
from emoscope.stats import correlate, permutation_test

from oracles import daily_fraction, lexicon_predicate, matches_explicit_report, matches_lexicon

# Hand-written records beside the synthetic corpus: unknown and other
# genders, offsets and fractional seconds near the day boundary, a
# retweet, a follower decoy, report phrases, and malformed lines.
EXTRA = """\
{"id": "x1", "created_at": "2020-06-01T01:00:00Z", "text": "i am so sad about him", "author_followers": 500}
{"id": "x2", "created_at": "2020-06-03T23:59:59+02:00", "text": "Coffee, garden... she cried", "author_gender": "female", "author_followers": 1000}
{"id": "x3", "created_at": "2020-06-04T02:29:59.5", "text": "worried about THEM http://x.co/sad", "author_gender": "nonbinary", "author_followers": 150}
{"id": "x4", "created_at": "2020-06-05T12:00:00Z", "text": "i am sad", "author_gender": "male", "author_followers": 500, "is_retweet": true}
{"id": "x5", "created_at": "2020-06-05T12:00:00Z", "text": "i am sad", "author_gender": "male", "author_followers": 5}
{"id": "x6", "created_at": "2020-06-06T02:30:00Z", "text": "coffee x train his", "author_gender": "male", "author_followers": 100}
{not json

{"id": "x7", "created_at": "2020-06-06T12:00:00Z", "text": "no followers"}
"""

# Out-of-range score values appended to the synthetic score file.
BAD_SCORES = [
    {"id": "s1", "date": "2020-06-02", "scores": {"sadness": 1.5, "anxiety": -0.5, "positive": 0.5}},
    {"id": "s2", "date": "2020-06-02", "scores": {"sadness": 0.25, "anxiety": 2.0}},
]

CONFIG = """\
[corpus]
input = corpus.ndjson.gz, extra.ndjson
tz_offset_minutes = -150

[lexicons]
sadness = lexicons/sadness.txt
anxiety = lexicons/anxiety.txt
positive = lexicons/positive.txt

[reports]
emotions = sad, bored
templates = coffee _, i am _

[report_adjectives]
sad = train, sad
bored = garden, weather

[scores]
path = scores.ndjson
emotions = sadness, anxiety

[signals]
gender_mode = stratified
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("scan")
    args = ["synth", "--out", str(ws), "--days", "12", "--posts-per-day", "150", "--gzip",
            "--decoy-fraction", "0.05", "--scores-per-day", "10", "--seed", "5"]
    assert main(args) == 0
    (ws / "extra.ndjson").write_text(EXTRA, encoding="utf-8")
    with open(ws / "scores.ndjson", "a", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(rec) + "\n" for rec in BAD_SCORES))
    (ws / "pipeline.ini").write_text(CONFIG, encoding="utf-8")
    return ws


@pytest.fixture(scope="module")
def cfg(workspace):
    return load_config(workspace / "pipeline.ini")


@pytest.fixture(scope="module")
def posts(cfg):
    return list(stream_posts(expand_inputs(cfg), cfg.filter))


def _predicates(cfg):
    preds = {name: lexicon_predicate(load_lexicon(path, name=name)) for name, path in cfg.lexicons}
    for emotion in cfg.report_emotions:
        preds[f"report_{emotion}"] = (
            lambda post, e=emotion: matches_explicit_report(tokenize(post.text), cfg.templates, e)
        )
    return preds


def test_daily_tables_equal_oracle(cfg, posts):
    bundle = build_signals(cfg)
    counts = StreamCounts()
    assert len(list(stream_posts(expand_inputs(cfg), cfg.filter, counts))) == bundle.counts.kept
    assert bundle.counts == counts
    assert counts.malformed == 2 and counts.dropped > 1
    for name, pred in _predicates(cfg).items():
        for stratum in GENDER_STRATA:
            want = daily_fraction(posts, pred, stratum, name, cfg.tz_offset_minutes)
            got = bundle.daily[(name, stratum)]
            assert got.counts == want.counts, (name, stratum)
            assert got.values == want.values, (name, stratum)
        total = sum(num for num, _ in bundle.daily[(name, "all")].counts.values())
        assert bundle.matched[name] == total > 0, name
    # unknown genders count in "all" only, and the offset moved x1 a day back
    all_posts = sum(den for _, den in bundle.daily[("sadness", "all")].counts.values())
    male = sum(den for _, den in bundle.daily[("sadness", "male")].counts.values())
    female = sum(den for _, den in bundle.daily[("sadness", "female")].counts.values())
    assert all_posts == len(posts) == male + female + 2
    assert min(bundle.daily[("report_sad", "all")].counts).isoformat() == "2020-05-31"


def test_score_signals_and_bookkeeping(workspace, cfg, tmp_path):
    bundle = build_signals(cfg)
    sc = bundle.score_counts
    assert sc.rejected_values == 3
    assert sc.malformed == 0
    assert sc.records == sc.parsed + sc.malformed
    assert sc.parsed == sc.kept + sc.dropped
    with open(cfg.score_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for emotion in cfg.score_emotions:
        per_day = {}
        for rec in records:
            value = rec["scores"].get(emotion)
            if value is not None and 0.0 <= value <= 1.0:
                per_day.setdefault(rec["date"], []).append(value)
        got = bundle.daily[(f"score_{emotion}", "all")]
        assert {d.isoformat(): n for d, (_, n) in got.counts.items()} == {
            d: len(v) for d, v in per_day.items()
        }
        for d, value in got.values.items():
            assert value == pytest.approx(sum(per_day[d.isoformat()]) / len(per_day[d.isoformat()]))

    out = tmp_path / "out"
    assert main(["signal", "--config", str(workspace / "pipeline.ini"), "--output", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["score_counts"] == sc.as_dict()
    assert set(manifest["counts"]) == {"records", "parsed", "malformed", "filtered", "kept"}


def test_thirdperson_equals_brute_force(cfg, posts):
    counts, baseline, rows = thirdperson_rows(cfg)
    assert counts.kept == len(posts)
    lexicons = [load_lexicon(path, name=name) for name, path in cfg.lexicons]
    base_k = 0
    cells = {lex.name: [0, 0, 0, 0] for lex in lexicons}
    for post in posts:
        tokens = tokenize(post.text)
        pron = contains_third_person(tokens)
        base_k += pron
        for lex in lexicons:
            at = 0 if matches_lexicon(tokens, lex) else 2
            cells[lex.name][at] += pron
            cells[lex.name][at + 1] += 1
    assert (baseline.label, baseline.with_k, baseline.with_n) == ("all_posts", base_k, len(posts))
    assert [row.label for row in rows] == list(cells)
    for row in rows:
        assert [row.with_k, row.with_n, row.without_k, row.without_n] == cells[row.label]
        assert row.with_k > 0 and row.without_k > 0


# What bench/spantrace.py rebinds to time the scan's layers: names in
# pipeline's globals and matcher methods. A scan that stopped calling one
# would leave its span and counters at zero.
TRACED = [
    (pipeline, "stream_posts"),
    (pipeline, "stream_scores"),
    (pipeline, "tokenize"),
    (MultiLexiconMatcher, "match_mask"),
    (ExplicitReportMatcher, "match"),
    (pipeline, "contains_third_person"),
]


def test_scan_calls_every_traced_name(cfg, posts, monkeypatch):
    """Each scan tokenizes and matches each distinct word once (the word
    memo), and tokenizes whole and report-matches only the posts where a
    word may start a report."""
    monkeypatch.setattr(corpus, "_usable_cpus", lambda: 1)  # no call made in a child
    words = {w for post in posts for w in post.text.lower().split()}
    assert len(words) < pipeline.MATCH_MEMO_SIZE
    starts = {tpl.split()[0] for tpl in cfg.templates.templates}
    assert "_" not in starts  # every template has a prefix
    flagged = sum(1 for post in posts if starts & set(tokenize(post.text)))
    assert 0 < flagged < len(posts)
    calls = {name: 0 for _, name in TRACED}
    for owner, name in TRACED:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    kept = build_signals(cfg).counts.kept
    assert thirdperson_rows(cfg)[0].kept == kept == len(posts)
    assert calls == {
        "stream_posts": 2,
        "stream_scores": 1,
        "tokenize": 2 * len(words) + flagged,
        "match_mask": 2 * len(words),
        "match": flagged,
        "contains_third_person": len(words),
    }


class TestWordMasks:
    """The scan's memo of word masks, alone."""

    @pytest.mark.parametrize("memo_size", [None, 7])
    def test_memo_agrees_with_reference_on_repeated_tokens(self, monkeypatch, memo_size):
        # memo_size 7 fills the memo within the first posts, so most words
        # are matched afresh after it is full
        if memo_size is not None:
            monkeypatch.setattr(pipeline, "MATCH_MEMO_SIZE", memo_size)
        limit = pipeline.MATCH_MEMO_SIZE
        rnd = random.Random(7)
        stems = ["sad", "cry", "worr", "fear", "joy", "hap"]
        vocab = stems + [s + tail for s in stems for tail in ("", "ing", "ed", "ful", "s")]
        vocab += ["dog", "rain", "the", "a", "x", "sa", "cr", "wo", "jo"]
        lexicons = [
            Lexicon(f"lex{i}", frozenset(rnd.sample(vocab, 3)), frozenset(rnd.sample(stems, 2)))
            for i in range(4)
        ]
        vocab += ["HIS", "they", "i", "I", "am", "#sad", "@sad", "sad,her", "http://sad"]
        templates = ReportTemplateSet(("i am _",), {"sad": ("sad",)})
        words = pipeline._WordMasks(MultiLexiconMatcher(lexicons), 1 << 4,
                                    ExplicitReportMatcher(templates, ("sad",)), 1 << 5)
        for _ in range(3_000):
            pool = rnd.sample(vocab, rnd.randint(1, 4))  # few types, many repeats
            text = " ".join(rnd.choices(pool, k=rnd.randint(0, 9)))
            tokens = tokenize(text)
            want = sum(1 << i for i, lex in enumerate(lexicons) if matches_lexicon(tokens, lex))
            want |= (1 << 4 if THIRD_PERSON_PRONOUNS & set(tokens) else 0)
            want |= (1 << 5 if "i" in tokens else 0)
            assert reduce(or_, map(words.__getitem__, text.lower().split()), 0) == want
            assert len(words) <= limit
        if memo_size is not None:
            assert len(words) == limit

    def test_memo_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MATCH_MEMO_SIZE", 50)
        sad_cry = Lexicon("sad", frozenset({"sad"}), frozenset({"cry"}))
        words = pipeline._WordMasks(MultiLexiconMatcher([sad_cry]))
        for i in range(200):
            assert [words[w] for w in (f"w{i}", "crying", f"w{i}")] == [0, 1, 0]
            assert len(words) <= 50
        assert len(words) == 50
        kept = dict(words)
        assert words["sad"] == 1 and words["zzz"] == 0
        assert dict(words) == kept  # full: nothing added, nothing evicted


# Words for the scan's differential test: lexicon terms and stems of the
# workspace config, report prefixes and adjectives, pronouns, and what the
# tokenizer strips or splits, in other cases and glued to punctuation.
SCAN_WORDS = st.sampled_from([
    "sad", "SAD", "Sadly", "cry", "crying", "worried", "happy", "coffee", "train", "garden",
    "weather", "today", "Today.", "i", "I", "am", "i'm", "I’m", "so", "not", "he", "Her",
    "THEM", "they're", "@them", "#sad", "#I", "http://x.co/sad", "www.sad.com", "xhttp", "sad,",
    "am.", "i,am", "_sad_", "her'", "'him", "ΣΑΣ", "İ",
])
SCAN_TEXT = st.lists(
    st.tuples(st.one_of(SCAN_WORDS, st.text(max_size=5)),
              st.sampled_from([" ", "  ", "\t", "\n", "\u3000", "\x1c", "\xa0"])),
    max_size=12,
).map(lambda parts: "".join(word + space for word, space in parts))
SCAN_POSTS = st.lists(
    st.tuples(SCAN_TEXT, st.integers(0, 47), st.sampled_from(["male", "female", "other"])),
    min_size=1, max_size=30,
)


@pytest.mark.parametrize("templates", [
    None,  # the workspace config's: every template has a prefix
    ReportTemplateSet(("_ today", "i am _"), {"sad": ("sad", "train"), "bored": ("garden",)}),
], ids=["prefixed", "empty-prefix"])
@pytest.mark.parametrize("cpus", [1, 3])
@settings(max_examples=40, deadline=None)
@given(drawn=SCAN_POSTS)
@example(drawn=[("so sad today", 0, "male"), ("I am  bored, he said", 30, "female"),
                ("Coffee\ttrain", 47, "other"), ("garden today", 12, "male")])
def test_scan_table_equals_per_post_oracle(cfg, tmp_path_factory, cpus, templates, drawn):
    """The table of a scan with lexicons, reports and pronouns equals one
    built post by post from the whole text's tokens and the literal
    matchers, with a word bound small enough that the memo fills."""
    path = tmp_path_factory.mktemp("drawn") / "corpus.ndjson"
    with open(path, "w", encoding="utf-8") as fh:
        for text, hour, gender in drawn:
            stamp = f"2020-06-{1 + hour // 24:02d}T{hour % 24:02d}:30:00Z"
            fh.write(json.dumps({"id": "p", "created_at": stamp, "text": text,
                                 "author_gender": gender, "author_followers": 500}) + "\n")
    cfg = dataclasses.replace(cfg, inputs=(str(path),), templates=templates or cfg.templates)
    lexicons = [load_lexicon(lex_path, name=name) for name, lex_path in cfg.lexicons]
    emotions = cfg.report_emotions
    with mock.patch.object(pipeline, "MATCH_MEMO_SIZE", 3), \
            mock.patch.object(corpus, "_MIN_SHARD_BYTES", 1), \
            mock.patch.object(corpus, "_usable_cpus", lambda: cpus):
        counts, table, names, _ = pipeline.scan_corpus(
            cfg, MultiLexiconMatcher(lexicons), ExplicitReportMatcher(cfg.templates, emotions),
            pronouns=True)
    assert names == tuple(cfg.signal_names()[:len(lexicons) + len(emotions)])
    want: dict = {}
    for text, hour, gender in drawn:
        tokens = tokenize(text)
        bits = [matches_lexicon(tokens, lex) for lex in lexicons]
        bits += [matches_explicit_report(tokens, cfg.templates, e) for e in emotions]
        bits.append(bool(THIRD_PERSON_PRONOUNS & set(tokens)))
        day = (datetime(2020, 6, 1 + hour // 24, hour % 24, 30)
               + timedelta(minutes=cfg.tz_offset_minutes)).date()
        key = (day, {"male": 1, "female": 2}.get(gender, 0),
               sum(1 << i for i, bit in enumerate(bits) if bit))
        want[key] = want.get(key, 0) + 1
    assert counts.kept == len(drawn)
    assert table == want


def test_sharded_scan_keeps_a_one_process_scans_first_errors(cfg, tmp_path, monkeypatch):
    """Three shard groups over 30 malformed corpus lines and a score file of
    25 malformed lines: the counts keep the first 20 errors of each, the
    errors a one-process scan keeps."""
    post = ('{"id": "%d", "created_at": "2020-06-01T12:00:00Z", "text": "so sad", '
            '"author_followers": 500}\n')
    (tmp_path / "corpus.ndjson").write_text(
        "".join(post % i if i % 3 else "{broken %d\n" % i for i in range(90)), encoding="utf-8")
    (tmp_path / "scores.ndjson").write_text("{broken\n" * 25, encoding="utf-8")
    cfg = dataclasses.replace(cfg, inputs=(str(tmp_path / "corpus.ndjson"),),
                              score_path=str(tmp_path / "scores.ndjson"))
    monkeypatch.setattr(corpus, "_MIN_SHARD_BYTES", 1)
    assert len(corpus.shard_groups([*expand_inputs(cfg), cfg.score_path], 3)) == 3
    runs = []
    for cpus in (3, 1):
        monkeypatch.setattr(corpus, "_usable_cpus", lambda: cpus)
        counts, table, _, (score_counts, _) = pipeline.scan_corpus(
            cfg, None, pronouns=True, scores=True)
        runs.append((counts, table, [str(e) for e in counts.errors],
                     score_counts, [str(e) for e in score_counts.errors]))
    assert runs[0] == runs[1]
    counts, _, errors, score_counts, score_errors = runs[0]
    assert (counts.malformed, score_counts.malformed) == (30, 25)
    assert [int(e.split(":")[1]) for e in errors] == [1 + 3 * i for i in range(20)]
    assert [int(e.split(":")[1]) for e in score_errors] == list(range(1, 21))


def test_tables_share_one_layout():
    assert format_report_table([]) == (
        "pair  n1  r1 [95% CI]  n2  r2 [95% CI]  perm p  DCCA rho  beta  KPSS\n"
        "----  --  -----------  --  -----------  ------  --------  ----  ----\n"
    )
    row = ValidationRow("sad", "sadness", "all", notes=["too short"])
    assert format_report_table([row]) == (
        "pair                 n1  r1 [95% CI]  n2  r2 [95% CI]  perm p  DCCA rho  beta     KPSS\n"
        "-------------------  --  -----------  --  -----------  ------  --------  -------  -------\n"
        "sad / sadness (all)      skipped          skipped              skipped   skipped  skipped\n"
        "\n"
        "note [sad / sadness (all)]: too short\n"
    )
    baseline = ProportionRow("all_posts", 1, 4, frac_with=0.25)
    assert format_proportions_table(baseline, []) == (
        "lexicon    with pronouns | match  with pronouns | no match  % difference  chi2 p\n"
        "---------  ---------------------  ------------------------  ------------  ------\n"
        "all_posts  0.2500\n"
    )


def test_run_permutation_p_equals_per_row_calls(tmp_path):
    """run_validation runs the permutation tests of all rows together; each
    p equals its own permutation_test call, and the rest of each row is
    validate_pair's, including a row that skips both tests."""
    ws = tmp_path / "weak"
    assert main(["synth", "--out", str(ws), "--days", "200", "--posts-per-day", "15",
                 "--seed", "2", "--survey-seed", "2", "--score-seed", "2"]) == 0
    survey_csv = ws / "survey.csv"
    anchors = sorted({line.split(",")[0] for line in survey_csv.read_text().splitlines()[1:]})
    with open(survey_csv, "a", encoding="utf-8") as fh:
        fh.write("".join(f"{a},flat,10\n" for a in anchors))  # a survey that never moves
        # a survey with fewer weeks, so its rows are tested at a smaller n
        fh.write("".join(f"{a},short,{10 + i * 7 % 5}\n" for i, a in enumerate(anchors[:20])))
    cfg = load_config(ws / "pipeline.ini")
    cfg.pairs = cfg.pairs + (("flat", "sadness"), ("short", "anxiety"))
    bundle = build_signals(cfg)
    rows = run_validation(cfg, bundle, extra_stratified=True)

    surveys = load_survey_map(cfg)
    combos = [
        (surveys[emotion], signal, stratum)
        for emotion, signal in cfg.pairs
        for stratum in strata_for(cfg, signal, extra_stratified=True)
    ]
    assert len(rows) == len(combos) == 18
    p_values, sizes = [], set()
    for row, (survey, signal, stratum) in zip(rows, combos):
        weekly = weekly_align(bundle.stratum_signal(signal, stratum), survey.anchors,
                              window_days=cfg.week_length, offset_days=cfg.week_offset,
                              name=signal)
        alone, test = validate_pair(survey, weekly, stratum, cfg)
        assert dataclasses.replace(row, perm_p=None, dcca_p=None) == alone
        if survey.emotion == "flat":
            assert test is None and row.perm_p is None and row.dcca_p is None
            assert any(note.startswith("permutation skipped:") for note in row.notes)
            continue
        pair_x, pair_y, window = test
        x, y, _ = paired_values(weekly, survey)
        assert pair_x.tolist() == x.tolist() and pair_y.tolist() == y.tolist()
        assert window == cfg.dcca_window
        sizes.add(len(x))
        assert [(row.perm_p, row.dcca_p)] == permutation_test([x], [y], [window])
        p_values += [row.perm_p * len(x), row.dcca_p * len(x)]  # 1 + hits
    assert sizes == {20, 28}
    assert sum(hits > 3 for hits in p_values) >= 10, p_values


# The pre-registration layout: 106 weekly field dates, 2019-06-24 to
# 2021-06-28, split on 2020-11-01 into 71 historical and 35 prediction weeks.
WEEKS = tuple(date(2019, 6, 24) + timedelta(weeks=i) for i in range(106))
SPLIT = date(2020, 11, 1)


def _split_row(split=SPLIT, signal=None):
    """validate_pair's row for a signal and a survey over WEEKS that both
    move from week to week; `signal` replaces the signal's values."""
    if signal is None:
        signal = {a: 0.2 + 0.01 * math.sin(i) for i, a in enumerate(WEEKS)}
    survey = SurveySeries("sadness", WEEKS,
                          percent={a: 50 + 10 * math.cos(i / 3) for i, a in enumerate(WEEKS)})
    weekly = WeeklySeries("sadness", WEEKS, values=signal)
    row, *_ = validate_pair(survey, weekly, "all", PipelineConfig(split_date=split))
    return row


class TestPeriodSplit:
    """The correlations of a row see the complete weeks before split_date
    (n1, r1) or from it on (n2, r2); the other statistics see all of them."""

    def test_preregistration_split(self):
        assert WEEKS[-1] == date(2021, 6, 28)
        row = _split_row()
        assert (row.n1, row.n2, row.n_full) == (71, 35, 106)
        assert None not in (row.r1, row.r1_lo, row.r1_hi, row.r1_p,
                            row.r2, row.r2_lo, row.r2_hi, row.r2_p)
        assert not any("period" in note or " r skipped" in note for note in row.notes)

    def test_periods_hold_the_complete_weeks(self):
        signal = {a: 0.2 + 0.01 * math.sin(i) for i, a in enumerate(WEEKS) if i not in (3, 90)}
        row = _split_row(signal=signal)
        assert (row.n1, row.n2, row.n_full) == (70, 34, 104)
        x = [signal[a] for a in WEEKS[71:] if a in signal]
        y = [50 + 10 * math.cos(i / 3) for i, a in enumerate(WEEKS) if i >= 71 and a in signal]
        res = correlate(x, y)
        assert (row.r2, row.r2_lo, row.r2_hi, row.r2_p) == (res.r, res.ci_low, res.ci_high, res.p)

    def test_anchor_on_split_date_goes_to_prediction(self):
        row = _split_row(split=WEEKS[20])
        assert (row.n1, row.n2) == (20, 86)

    @pytest.mark.parametrize("split, note", [
        (date(2019, 1, 1), "split skipped: empty historical period before 2019-01-01"),
        (WEEKS[0], "split skipped: empty historical period before 2019-06-24"),
        (date(2022, 1, 1), "split skipped: empty prediction period from 2022-01-01"),
    ], ids=["before-first", "on-first", "after-last"])
    def test_empty_period(self, split, note):
        row = _split_row(split=split)
        assert row.notes[0] == note
        assert not any(n.startswith("split") for n in row.notes[1:])
        assert (row.n1, row.r1, row.n2, row.r2) == (None, None, None, None)
        assert row.n_full == 106 and row.dcca_rho is not None

    @pytest.mark.parametrize("split, note, n1, n2", [
        (WEEKS[5], "historical period too short (n=5)", 5, 101),
        (WEEKS[-7], "prediction period too short (n=7)", 99, 7),
    ], ids=["historical", "prediction"])
    def test_short_period(self, split, note, n1, n2):
        row = _split_row(split=split)
        assert note in row.notes
        assert (row.n1, row.n2) == (n1, n2)
        short, long = ("r1", "r2") if n1 < n2 else ("r2", "r1")
        assert getattr(row, short) is None and getattr(row, long) is not None

    def test_flat_period_is_skipped_not_correlated(self):
        # the mean of 71 copies of 0.1 rounds: x - mean(x) is not all 0
        signal = {a: 0.1 if a < SPLIT else 0.2 + 0.01 * math.sin(i)
                  for i, a in enumerate(WEEKS)}
        row = _split_row(signal=signal)
        assert "historical r skipped: correlation undefined for a constant series" in row.notes
        assert row.r1 is None and row.n1 == 71 and row.r2 is not None


# The perm_p and dcca_p columns of report.csv on a weak-signal workspace of
# 28 weeks, as the literal loop over circular shifts in tests/oracles.py
# gives them. Most sit well above the floor 1/28 = 0.03571, so a change in
# the shift engine or in either kernel that moves a single hit shows here.
WEAK_PERM_P = ["0.7857", "0.3929", "1", "0.03571", "0.03571", "0.7143", "0.3571", "0.1429",
               "0.8929", "0.03571", "0.03571", "0.03571"]
WEAK_DCCA_P = {
    4: ["0.6429", "0.8214", "0.4643", "0.2143", "0.03571", "0.7857", "0.5714", "0.3929", "1",
        "0.03571", "0.03571", "0.03571"],
    12: ["0.5714", "0.25", "0.5357", "0.03571", "0.03571", "0.5", "0.2857", "0.1071", "1",
         "0.03571", "0.03571", "0.03571"],
    16: ["0.3571", "0.2857", "0.8214", "0.03571", "0.03571", "0.3571", "0.25", "0.07143",
         "0.8929", "0.03571", "0.03571", "0.03571"],
}


@pytest.fixture(scope="module")
def weak_workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("weak")
    assert main(["synth", "--out", str(ws), "--days", "200", "--posts-per-day", "15",
                 "--seed", "2"]) == 0
    return ws


def test_run_validation_rows_do_not_depend_on_cpus(weak_workspace, monkeypatch):
    """Every row, p-values included, is the same whether the scan behind it
    runs in one process or is split across two or three."""
    cfg = load_config(weak_workspace / "pipeline.ini")
    monkeypatch.setattr(corpus, "_MIN_SHARD_BYTES", 1)
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(corpus, "_usable_cpus", lambda: cpus)
        runs.append(run_validation(cfg, build_signals(cfg), extra_stratified=True))
    assert runs[0] == runs[1] == runs[2]
    assert [format(row.perm_p, ".4g") for row in runs[0]] == WEAK_PERM_P
    assert [format(row.dcca_p, ".4g") for row in runs[0]] == WEAK_DCCA_P[cfg.dcca_window]


@pytest.mark.parametrize("window", [4, 12, 16])
def test_weak_signal_p_values_pinned(weak_workspace, tmp_path, window):
    out = tmp_path / "out"
    assert main(["validate", "--config", str(weak_workspace / "pipeline.ini"), "--output",
                 str(out), "--stratified", "--dcca-window", str(window)]) == 0
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["perm_p"] for row in rows] == WEAK_PERM_P
    assert [row["dcca_p"] for row in rows] == WEAK_DCCA_P[window]


class TestDailySignalsReleased:
    """`validate` aligns every pair, then frees the daily signals before
    the first paired_values call, the first statistic to load numpy."""

    @staticmethod
    def _live_at_first_pairing(monkeypatch, run) -> list[int]:
        """run(), and the daily signals alive at its first paired_values
        call, but for those alive before it."""
        gc.collect()
        before = [o for o in gc.get_objects() if isinstance(o, DailySignal)]  # held: ids stay
        known = {id(o) for o in before}
        live = []

        def counting(*args):
            if not live:  # no collection first: a signal kept by a cycle counts
                live.append(sum(isinstance(o, DailySignal) and id(o) not in known
                                for o in gc.get_objects()))
            return paired_values(*args)

        monkeypatch.setattr(pipeline, "paired_values", counting)
        run()
        return live

    def test_validate_command(self, weak_workspace, tmp_path, monkeypatch):
        argv = ["validate", "--config", str(weak_workspace / "pipeline.ini"), "--output",
                str(tmp_path / "out"), "--stratified", "--plot-data"]
        live = self._live_at_first_pairing(monkeypatch, lambda: main(argv))
        assert live == [0]

    def test_run_validation_without_a_bundle(self, weak_workspace, monkeypatch):
        cfg = load_config(weak_workspace / "pipeline.ini")
        assert self._live_at_first_pairing(monkeypatch, lambda: run_validation(cfg)) == [0]

    def test_a_callers_bundle_is_kept_whole(self, weak_workspace, monkeypatch):
        cfg = load_config(weak_workspace / "pipeline.ini")
        bundle = build_signals(cfg)
        copy = dataclasses.replace(bundle, daily=dict(bundle.daily))
        live = self._live_at_first_pairing(
            monkeypatch, lambda: run_validation(cfg, bundle, extra_stratified=True))
        assert live and live[0] > 0  # the count sees the caller's signals
        for _, signal in cfg.pairs:
            for stratum in strata_for(cfg, signal, extra_stratified=True):
                assert bundle.stratum_signal(signal, stratum) == copy.stratum_signal(signal, stratum)
