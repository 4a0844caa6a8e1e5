"""The one corpus scan behind `signal` and `thirdperson`, checked against
brute-force counts over the same filtered posts, and the shared
permutation calls behind `validate`, checked against one call per test."""

import csv
import dataclasses
import json
import math
from datetime import date, timedelta

import pytest

from emoscope import corpus, pipeline, stats
from emoscope.cli import main
from emoscope.config import PipelineConfig, expand_inputs, load_config
from emoscope.corpus import StreamCounts, stream_posts
from emoscope.lexicon import (
    ExplicitReportMatcher,
    MultiLexiconMatcher,
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
from emoscope.signals import GENDER_STRATA, SurveySeries, WeeklySeries, paired_values, weekly_align
from emoscope.stats import correlate, dcca_statistic, permutation_test

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


def test_scan_calls_every_traced_name(cfg, monkeypatch):
    monkeypatch.setattr(corpus, "_usable_cpus", lambda: 1)  # no call made in a child
    calls = {name: 0 for _, name in TRACED}
    for owner, name in TRACED:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    kept = build_signals(cfg).counts.kept
    assert thirdperson_rows(cfg)[0].kept == kept
    assert calls == {
        "stream_posts": 2,
        "stream_scores": 1,
        "tokenize": 2 * kept,
        "match_mask": 2 * kept,
        "match": kept,
        "contains_third_person": kept,
    }


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
        counts, table, _, _, (score_counts, _) = pipeline.scan_corpus(
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
    cfg.permutations = 2000
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
        alone, pair_x, pair_y, fields = validate_pair(survey, weekly, stratum, cfg)
        assert dataclasses.replace(row, perm_p=None, dcca_p=None) == alone
        x, y, _ = paired_values(weekly, survey)
        assert pair_x.tolist() == x.tolist() and pair_y.tolist() == y.tolist()
        if survey.emotion == "flat":
            assert fields == [] and row.perm_p is None and row.dcca_p is None
            assert any(note.startswith("permutation skipped:") for note in row.notes)
            continue
        assert fields == ["perm_p", "dcca_p"]
        sizes.add(len(x))
        kw = {"n_perm": cfg.permutations, "seed": cfg.seed}
        assert row.perm_p == permutation_test(x, y, **kw)
        assert row.dcca_p == permutation_test(x, y, dcca_statistic(cfg.dcca_window), **kw)
        p_values += [row.perm_p, row.dcca_p]
    assert sizes == {20, 28}
    assert sum(p > 20 / (cfg.permutations + 1) for p in p_values) >= 10, p_values


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


def test_run_validation_rows_do_not_depend_on_cpus(weak_workspace, monkeypatch):
    """Every row, p-values included, is the same whether the permutation
    tests run in one process or are split across two or three."""
    cfg = load_config(weak_workspace / "pipeline.ini")
    cfg.permutations = 2000
    bundle = build_signals(cfg)
    monkeypatch.setattr(stats, "_MIN_FORK_WORK", 1)
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(corpus, "_usable_cpus", lambda: cpus)
        runs.append(run_validation(cfg, bundle, extra_stratified=True))
    assert runs[0] == runs[1] == runs[2]
    assert [format(row.perm_p, ".4g") for row in runs[0]] == WEAK_PERM_P


# The perm_p and dcca_p columns of report.csv on a weak-signal workspace, as
# `validate` wrote them before the DCCA kernel became a banded block form.
# Most sit well above the floor 1/2001 = 0.0004998, so a change in the
# permutation engine or in either kernel that moves a single hit shows here.
WEAK_PERM_P = ["0.7251", "0.3783", "0.9995", "0.005497", "0.001999", "0.6537", "0.3048",
               "0.1169", "0.8111", "0.0004998", "0.0004998", "0.0004998"]
WEAK_DCCA_P = {
    4: ["0.5632", "0.8116", "0.4088", "0.1294", "0.01299", "0.8231", "0.5647", "0.2399",
        "0.9495", "0.0004998", "0.0004998", "0.0004998"],
    12: ["0.7426", "0.2544", "0.7561", "0.01099", "0.04798", "0.4703", "0.2354", "0.1169",
         "0.985", "0.0004998", "0.0004998", "0.0004998"],
    16: ["0.5527", "0.2279", "0.8506", "0.01499", "0.1119", "0.3463", "0.1079", "0.07296",
         "0.8581", "0.0004998", "0.0004998", "0.0004998"],
}


@pytest.fixture(scope="module")
def weak_workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("weak")
    assert main(["synth", "--out", str(ws), "--days", "200", "--posts-per-day", "15",
                 "--seed", "2"]) == 0
    return ws


@pytest.mark.parametrize("window", [4, 12, 16])
def test_weak_signal_p_values_pinned(weak_workspace, tmp_path, window):
    out = tmp_path / "out"
    assert main(["validate", "--config", str(weak_workspace / "pipeline.ini"), "--output",
                 str(out), "--stratified", "--permutations", "2000",
                 "--dcca-window", str(window)]) == 0
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["perm_p"] for row in rows] == WEAK_PERM_P
    assert [row["dcca_p"] for row in rows] == WEAK_DCCA_P[window]
