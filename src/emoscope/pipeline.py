"""Pipeline assembly: corpus -> matchers -> daily signals -> weekly
alignment -> validation battery -> report rows.

The CLI subcommands are thin wrappers around these functions; tests call
them directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from datetime import date, timedelta
from functools import reduce
from operator import or_
from pathlib import Path
from typing import TYPE_CHECKING

from . import corpus
from .config import PipelineConfig, config_text, expand_inputs
from .corpus import Gender, StreamCounts, stream_posts
from .errors import ConfigError, SignalError, StatError, writing
from .lexicon import (
    ExplicitReportMatcher,
    Lexicon,
    MultiLexiconMatcher,
    contains_third_person,
    load_lexicon,
    tokenize,
)
from .signals import (
    GENDER_STRATA,
    DailySignal,
    ScoreCounts,
    SurveySeries,
    WeeklySeries,
    daily_mean_scores,
    gender_rescale,
    load_survey,
    paired_values,
    stream_scores,
    weekly_align,
    write_csv,
    write_daily_csv,
    write_weekly_csv,
)
from .stats import (
    correlate,
    dcca,
    kpss,
    lagged_regression_hac,
    percent_difference,
    permutation_pair,
    permutation_test,
    chi2_two_proportions,
    significance_marker,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass
class SignalBundle:
    """Daily signals per (signal name, stratum) plus ingestion bookkeeping."""

    daily: dict[tuple[str, str], DailySignal]
    counts: StreamCounts
    score_counts: ScoreCounts | None
    matched: dict[str, int]

    def stratum_signal(self, name: str, stratum: str) -> DailySignal:
        """One signal in one stratum; score signals only exist as 'all',
        and the rescaled stratum is derived (and cached) on demand."""
        if name.startswith("score_"):
            return self.daily[(name, "all")]
        if stratum == "rescaled":
            key = (name, "rescaled")
            if key not in self.daily:
                self.daily[key] = gender_rescale(
                    self.daily[(name, "male")], self.daily[(name, "female")], name=name
                )
            return self.daily[key]
        return self.daily[(name, stratum)]


def _load_lexicons(cfg: PipelineConfig) -> list[Lexicon]:
    lexicons = []
    for name, lex_path in cfg.lexicons:
        if not Path(lex_path).is_file():
            raise ConfigError(f"lexicon file not found: {lex_path}")
        lexicons.append(load_lexicon(lex_path, name=name))
    return lexicons


# Most words of a corpus repeat an earlier one. Each scan process remembers
# the mask of up to this many distinct words; once full it evicts nothing.
MATCH_MEMO_SIZE = 1 << 14


class _WordMasks(dict):
    """The scan's memo: a lowercased word -> the mask bits its tokens set.

    Tokenizing is local to each word: tokenize(text) is the tokens of
    text.lower().split()'s words in turn. So a post's mask is the OR of its
    words' masks, and a word is tokenized and matched once, on first sight.
    A word's mask holds `matcher`'s lexicon bits, `pronoun` where a token is
    a third-person pronoun, and `flag` where `report_matcher` may match a
    post holding the word; the scan runs that matcher on flagged posts only.
    At most MATCH_MEMO_SIZE words are kept: once full, a new word is matched
    afresh each time and nothing is evicted.
    """

    def __init__(self, matcher: MultiLexiconMatcher | None, pronoun: int = 0,
                 report_matcher: ExplicitReportMatcher | None = None, flag: int = 0):
        super().__init__()
        self.matcher, self.pronoun = matcher, pronoun
        self.report_matcher, self.flag = report_matcher, flag

    def __missing__(self, word: str) -> int:
        # through the module globals and class attributes, as everywhere
        # in the scan, so that a tracer rebinding them sees each call
        tokens = tokenize(word)
        mask = 0 if self.matcher is None else self.matcher.match_mask(tokens)
        if self.pronoun and contains_third_person(tokens):
            mask |= self.pronoun
        if self.flag and self.report_matcher.may_match(tokens):
            mask |= self.flag
        if len(self) < MATCH_MEMO_SIZE:
            self[word] = mask
        return mask


def scan_corpus(
    cfg: PipelineConfig,
    matcher: MultiLexiconMatcher | None,
    report_matcher: ExplicitReportMatcher | None = None,
    pronouns: bool = False,
    scores: bool = False,
) -> tuple[StreamCounts, dict[tuple[date, int, int], int], tuple[str, ...], tuple | None]:
    """The one pass over the filtered corpus: kept posts per (day, gender
    index, match mask), with gender index 1 male, 2 female, 0 unknown.

    The lexicons of `matcher` take the low mask bits, the report emotions
    of `report_matcher` (as report_<emotion>) the next ones, and, with
    `pronouns`, bit len(names) marks a post that contains_third_person.
    A matcher left None is never run and sets no bits; with none and no
    `pronouns`, the corpus is not read. Returns (counts, table, names: the
    signal name of each lower mask bit, scores). Each process matches each
    distinct word once (_WordMasks) and report-matches only the posts whose
    words it flags.

    With `scores`, cfg's score file rides the same pass as one uncut shard
    after the corpus, so one process adds its scores in line order; scores
    is then (ScoreCounts, daily_mean_scores of cfg.score_emotions), else
    None. That shard is told apart by identity: a corpus glob may match
    the score file too. Errors come in one order: config errors (no input
    file matches, no score file) before anything is read, then data errors
    in input order (fork_map), then no kept post.

    The inputs are cut into corpus.shard_groups, one per usable CPU at
    most, and each group is scanned in a process of its own
    (corpus.fork_map). Counts, their error samples and tables are summed
    in input order, so the result equals a one-process scan's, key order
    included.
    """
    signals = () if matcher is None else tuple(matcher.names)
    report_bits = (
        {} if report_matcher is None
        else {e: 1 << (len(signals) + i) for i, e in enumerate(report_matcher.emotions)}
    )
    signals += tuple(f"report_{e}" for e in report_bits)
    pronoun_bit = len(signals)
    flag = 0 if report_matcher is None else 1 << (pronoun_bit + 1)  # above every signal bit
    read_corpus = bool(signals) or pronouns
    inputs = expand_inputs(cfg) if read_corpus else []
    score_shard = None
    if scores:
        if cfg.score_path is None or not Path(cfg.score_path).is_file():
            raise ConfigError(f"score file not found: {cfg.score_path}")
        score_shard = corpus.Shard(cfg.score_path)
        inputs.append(score_shard)
    shift = timedelta(minutes=cfg.tz_offset_minutes)  # built once, not per post
    male, female = Gender.MALE, Gender.FEMALE

    def scan(group):
        counts = StreamCounts()
        table: dict[tuple[date, int, int], int] = {}
        shard = score_shard if group and group[-1] is score_shard else None
        posts = stream_posts(group[:-1] if shard else group, cfg.filter, counts)
        word_mask = _WordMasks(matcher, 1 << pronoun_bit if pronouns else 0,
                               report_matcher, flag).__getitem__
        for _, timestamp, text, gender, _, _ in posts:
            mask = reduce(or_, map(word_mask, text.lower().split()), 0)
            if mask & flag:  # only a post that may hold a report is tokenized whole
                mask ^= flag
                for emotion in report_matcher.match(tokenize(text)):
                    mask |= report_bits[emotion]
            # identity tests: hashing an Enum member is a Python-level call
            key = ((timestamp + shift).date() if shift else timestamp.date(),
                   1 if gender is male else 2 if gender is female else 0, mask)
            table[key] = table.get(key, 0) + 1
        if shard is None:
            return counts, table, None
        score_counts = ScoreCounts()
        means = daily_mean_scores(stream_scores(shard, score_counts),
                                  cfg.score_emotions, score_counts)
        return counts, table, (score_counts, means)

    groups = corpus.shard_groups(inputs, corpus._usable_cpus())
    results = list(corpus.fork_map(scan, groups, "corpus scan"))
    (counts, table, _), *rest = results
    for part_counts, part_table, _ in rest:
        counts.add(part_counts)
        for key, n in part_table.items():
            table[key] = table.get(key, 0) + n
    if read_corpus and counts.kept == 0:
        raise SignalError("no posts left after filtering")
    return counts, table, signals, results[-1][2]


def build_signals(cfg: PipelineConfig) -> SignalBundle:
    """One scan of the corpus, with every lexicon and report matcher, and
    of the score file."""
    lexicons = _load_lexicons(cfg)
    matcher = MultiLexiconMatcher(lexicons) if lexicons else None
    report_matcher = (
        ExplicitReportMatcher(cfg.templates, cfg.report_emotions) if cfg.report_emotions else None
    )
    if not cfg.signal_names():
        raise ConfigError("no signals configured (lexicons, reports, or scores)")
    counts, table, names, scores = scan_corpus(
        cfg, matcher, report_matcher, scores=bool(cfg.score_emotions)
    )
    # per day: posts per gender index, then the same three per signal bit
    agg: dict[date, list[int]] = {}
    for (d, gi, mask), n in table.items():
        row = agg.get(d)
        if row is None:
            row = agg[d] = [0] * (3 + 3 * len(names))
        row[0] += n
        if gi:
            row[gi] += n
        while mask:
            low = mask & -mask
            mask ^= low
            base = 3 + 3 * (low.bit_length() - 1)
            row[base] += n
            if gi:
                row[base + gi] += n
    daily: dict[tuple[str, str], DailySignal] = {}
    matched: dict[str, int] = {}
    for idx, name in enumerate(names):
        base = 3 + 3 * idx
        for gi, stratum in enumerate(GENDER_STRATA):
            per_day = {d: (row[base + gi], row[gi]) for d, row in agg.items() if row[gi] > 0}
            daily[(name, stratum)] = DailySignal.from_counts(name, per_day)
        matched[name] = sum(row[base] for row in agg.values())
    score_counts, means = scores or (None, {})
    for signal in means.values():
        daily[(signal.name, "all")] = signal
        matched[signal.name] = int(sum(n for _, n in signal.counts.values()))

    return SignalBundle(
        daily=daily,
        counts=counts,
        score_counts=score_counts,
        matched=matched,
    )


def load_survey_map(cfg: PipelineConfig) -> dict[str, SurveySeries]:
    if cfg.survey_path is None:
        raise ConfigError("no survey configured ([survey] path)")
    if not Path(cfg.survey_path).is_file():
        raise ConfigError(f"survey file not found: {cfg.survey_path}")
    return {series.emotion: series for series in load_survey(cfg.survey_path)}


def strata_for(cfg: PipelineConfig, signal: str, extra_stratified: bool = False) -> list[str]:
    """Which strata a signal is evaluated in under the configured mode."""
    if signal.startswith("score_"):
        return ["all"]
    if cfg.gender_mode == "agnostic":
        strata = ["all"]
    elif cfg.gender_mode == "stratified":
        strata = ["male", "female"]
    else:
        strata = ["rescaled"]
    if extra_stratified and cfg.gender_mode != "stratified":
        strata += ["male", "female"]
    return strata


def _column(spec: str = ".4g", sig: str | None = None, name: str | None = None):
    """A result-table column of a row dataclass: the value's format spec,
    the header `name` if not the field's, and `sig`, a column after it that
    holds the value's significance marker. A new result table declares its
    columns this way: every field is a column in field order (a plain field
    is written as str(value), `notes` joined by "; "), and _write_table
    writes the table."""
    return field(default=None, metadata={"spec": spec, "sig": sig, "name": name})


@dataclass
class ValidationRow:
    """One report row; None fields were skipped, with the reason in notes.
    The fields are report.csv's columns, in order."""

    survey_emotion: str
    signal: str
    stratum: str
    n1: int | None = _column("d")
    r1: float | None = _column()
    r1_lo: float | None = _column()
    r1_hi: float | None = _column()
    r1_p: float | None = _column(sig="r1_sig")
    n2: int | None = _column("d")
    r2: float | None = _column()
    r2_lo: float | None = _column()
    r2_hi: float | None = _column()
    r2_p: float | None = _column(sig="r2_sig")
    n_full: int | None = _column("d")
    perm_p: float | None = _column()
    dcca_rho: float | None = _column()
    dcca_p: float | None = _column(sig="dcca_sig")
    beta: float | None = _column()
    beta_p: float | None = _column(sig="beta_sig")
    kpss_stat: float | None = _column()
    kpss_band: str | None = _column("s")
    notes: list[str] = field(default_factory=list)


def validate_pair(
    survey: SurveySeries, weekly: WeeklySeries, stratum: str, cfg: PipelineConfig
) -> tuple[ValidationRow, tuple[np.ndarray, np.ndarray, int | None] | None]:
    """Full battery on one (survey emotion, signal, stratum) combination,
    `weekly` aligned to the survey's anchors, but for running its
    permutation tests. Every statistic uses the pairwise-complete weeks:
    the correlations those before cfg.split_date (historical) or from it on
    (prediction), the other statistics all of them. A statistic failing its
    precondition is skipped with a recorded reason. Returns the row and,
    where its permutation test is defined, the test: the paired (signal,
    survey) arrays and the DCCA window, None where DCCA is undefined;
    `run_validation` runs the tests of all rows at once.
    """
    row = ValidationRow(survey_emotion=survey.emotion, signal=weekly.name, stratum=stratum)

    def guard(label, fn):
        try:
            return fn()
        except StatError as err:
            row.notes.append(f"{label} skipped: {err}")
            return None

    x, y, anchors = paired_values(weekly, survey)
    row.n_full = len(anchors)
    split = cfg.split_date
    if not survey.anchors or survey.anchors[0] >= split:
        row.notes.append(f"split skipped: empty historical period before {split}")
    elif survey.anchors[-1] < split:
        row.notes.append(f"split skipped: empty prediction period from {split}")
    else:
        import numpy as np

        early = np.array([a < split for a in anchors], dtype=bool)
        for k, tag, period in ((1, "historical", early), (2, "prediction", ~early)):
            n = int(period.sum())
            setattr(row, f"n{k}", n)
            if n < 8:
                row.notes.append(f"{tag} period too short (n={n})")
                continue
            res = guard(f"{tag} r", lambda: correlate(x[period], y[period]))
            if res is not None:
                for suffix, value in zip(("", "_lo", "_hi", "_p"),
                                         (res.r, res.ci_low, res.ci_high, res.p)):
                    setattr(row, f"r{k}{suffix}", value)

    def permutation(label):
        return guard(label, lambda: permutation_pair(x, y)) is not None

    tested = permutation("permutation")
    window = None
    dcca_result = guard("dcca", lambda: dcca(x, y, window=cfg.dcca_window))
    if dcca_result is not None:
        row.dcca_rho = dcca_result.rho
        if permutation("dcca permutation"):
            window = cfg.dcca_window
    fit = guard("regression", lambda: lagged_regression_hac(y, x))
    if fit is not None:
        row.beta = fit.beta
        row.beta_p = fit.p_beta
        kp = guard("kpss", lambda: kpss(fit.residuals))
        if kp is not None:
            row.kpss_stat = kp.statistic
            row.kpss_band = kp.verdict_band
    return row, (x, y, window) if tested else None


def _weekly_pairs(cfg: PipelineConfig, bundle: SignalBundle, surveys, extra_stratified=False):
    """(survey, stratum, weekly signal) of every configured pair in each of
    its strata, the signal aligned to the survey's anchors."""
    for survey_emotion, signal in cfg.pairs:
        if survey_emotion not in surveys:
            raise ConfigError(f"survey has no emotion {survey_emotion!r}; has {sorted(surveys)}")
        survey = surveys[survey_emotion]
        for stratum in strata_for(cfg, signal, extra_stratified):
            daily = bundle.stratum_signal(signal, stratum)
            yield survey, stratum, weekly_align(
                daily, survey.anchors, window_days=cfg.week_length, offset_days=cfg.week_offset,
                name=signal,
            )


def validation_surveys(cfg: PipelineConfig) -> dict[str, SurveySeries]:
    """The survey series by emotion that cfg.pairs are validated against.
    A config without pairs is refused before the survey is read."""
    if not cfg.pairs:
        raise ConfigError("no survey/signal pairs configured ([survey] pairs)")
    return load_survey_map(cfg)


def run_validation(
    cfg: PipelineConfig,
    bundle: SignalBundle | None = None,
    surveys: dict[str, SurveySeries] | None = None,
    extra_stratified: bool = False,
    plot_data=None,
) -> list[ValidationRow]:
    """`validate_pair` for every configured pair and stratum, then all
    their shift tests in one `permutation_test` call, which shares the
    DCCA band blocks of each (n, window) across the rows. `surveys` are
    validation_surveys(cfg), read here if not given; `bundle` is
    build_signals(cfg), built here, after the survey is read, if not given.

    With `plot_data`, a path, the same aligned pairs are also written there
    as a tidy per-anchor CSV for external plotting, in the configured
    strata only (not the extra_stratified ones)."""
    if surveys is None:
        surveys = validation_surveys(cfg)
    if bundle is None:
        bundle = build_signals(cfg)
    pairs = list(_weekly_pairs(cfg, bundle, surveys, extra_stratified))
    results = [validate_pair(survey, weekly, stratum, cfg) for survey, stratum, weekly in pairs]
    tested = [(row, test) for row, test in results if test is not None]
    if tested:
        xs, ys, windows = zip(*(test for _, test in tested))
        p_values = permutation_test(xs, ys, windows)
        for (row, _), (perm_p, dcca_p) in zip(tested, p_values):
            row.perm_p, row.dcca_p = perm_p, dcca_p
    if plot_data is not None:
        _write_plot_data(cfg, [(survey, stratum, weekly) for survey, stratum, weekly in pairs
                               if stratum in strata_for(cfg, weekly.name)], plot_data)
    return [row for row, _ in results]


def _fmt(value, spec=".4g") -> str:
    return "" if value is None else format(value, spec)


def _write_table(cls, rows, path) -> None:
    """A CSV of `rows`, instances of the dataclass `cls`, with the columns
    its fields declare (see _column)."""
    columns = fields(cls)
    header = [name for c in columns
              for name in (c.metadata.get("name") or c.name, c.metadata.get("sig")) if name]

    def cells(row):
        for column in columns:
            value = getattr(row, column.name)
            if column.name == "notes":
                yield "; ".join(value)
                continue
            yield _fmt(value, column.metadata.get("spec", ""))
            if column.metadata.get("sig"):
                yield "" if value is None else significance_marker(value)

    write_csv(path, header, map(cells, rows))


def write_report_csv(rows, path) -> None:
    _write_table(ValidationRow, rows, path)


def _corr_cell(r, lo, hi, p) -> str:
    if r is None:
        return "skipped"
    return f"{r:.3f}{significance_marker(p)} [{lo:.3f}, {hi:.3f}]"


def _stat_cell(value, p) -> str:
    if value is None:
        return "skipped"
    cell = f"{value:.3f}"
    if p is not None:
        cell += significance_marker(p)
    return cell


def _aligned_table(header: list[str], body: list[list[str]], notes: list[str]) -> str:
    """Left-aligned columns two spaces apart under a dashed rule, then the
    notes after a blank line."""
    widths = [max([len(h)] + [len(line[i]) for line in body]) for i, h in enumerate(header)]
    rule = ["-" * w for w in widths]
    out = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in (header, rule, *body)
    ]
    if notes:
        out += ["", *notes]
    return "\n".join(out) + "\n"


def format_report_table(rows) -> str:
    """Aligned text table with star notation (*** p<0.001, ** p<0.01,
    * p<0.05, middle dot p<0.1)."""
    header = [
        "pair",
        "n1",
        "r1 [95% CI]",
        "n2",
        "r2 [95% CI]",
        "perm p",
        "DCCA rho",
        "beta",
        "KPSS",
    ]
    body = []
    for row in rows:
        body.append(
            [
                f"{row.survey_emotion} / {row.signal} ({row.stratum})",
                _fmt(row.n1, "d"),
                _corr_cell(row.r1, row.r1_lo, row.r1_hi, row.r1_p),
                _fmt(row.n2, "d"),
                _corr_cell(row.r2, row.r2_lo, row.r2_hi, row.r2_p),
                _fmt(row.perm_p),
                _stat_cell(row.dcca_rho, row.dcca_p),
                _stat_cell(row.beta, row.beta_p),
                "skipped" if row.kpss_band is None else f"{row.kpss_stat:.3f} ({row.kpss_band})",
            ]
        )
    notes = [
        f"note [{row.survey_emotion} / {row.signal} ({row.stratum})]: {note}"
        for row in rows
        for note in row.notes
    ]
    return _aligned_table(header, body, notes)


def _write_plot_data(cfg: PipelineConfig, pairs, path) -> None:
    """Tidy per-anchor CSV (one row per pair per anchor) of _weekly_pairs's
    (survey, stratum, weekly signal) pairs."""
    header = ["survey_emotion", "signal", "stratum", "date", "period", "survey_percent",
              "signal_value"]
    write_csv(path, header, (
        [survey.emotion, weekly.name, stratum, anchor.isoformat(),
         "historical" if anchor < cfg.split_date else "prediction",
         _fmt(survey.percent.get(anchor), ".10g"), _fmt(weekly.values.get(anchor), ".10g")]
        for survey, stratum, weekly in pairs
        for anchor in survey.anchors
    ))


def write_signal_outputs(cfg: PipelineConfig, bundle: SignalBundle, out_dir: Path,
                         surveys: dict[str, SurveySeries]) -> list[str]:
    """Daily (and, given `surveys`, weekly) CSVs for every signal and
    stratum; returns the written file names."""
    written: list[str] = []
    anchors = sorted({anchor for series in surveys.values() for anchor in series.anchors})
    for name in cfg.signal_names():
        for stratum in strata_for(cfg, name):
            daily = bundle.stratum_signal(name, stratum)
            daily_name = f"daily_{name}_{stratum}.csv"
            write_daily_csv(daily, out_dir / daily_name)
            written.append(daily_name)
            if anchors:
                weekly = weekly_align(
                    daily, anchors, window_days=cfg.week_length, offset_days=cfg.week_offset, name=name
                )
                weekly_name = f"weekly_{name}_{stratum}.csv"
                write_weekly_csv(weekly, out_dir / weekly_name)
                written.append(weekly_name)
    return written


def write_manifest(cfg: PipelineConfig, bundle: SignalBundle, written: list[str], path) -> None:
    """manifest.json: the counts, matches and output files of a `signal`
    run, its effective config, and as error_samples the first malformed
    records, the corpus's before the score file's."""
    errors = bundle.counts.errors
    if bundle.score_counts is not None:
        errors = errors + bundle.score_counts.errors
    manifest = {
        "counts": bundle.counts.as_dict(),
        "matched": dict(sorted(bundle.matched.items())),
        "error_samples": [str(err) for err in errors[: corpus._MAX_ERROR_SAMPLES]],
        "files": sorted(written),
        "config": config_text(cfg),
    }
    if bundle.score_counts is not None:
        manifest["score_counts"] = bundle.score_counts.as_dict()
    with writing(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class ProportionRow:
    """Third-person pronoun share among matching vs non-matching posts.
    The fields are thirdperson.csv's columns, in order."""

    label: str
    with_k: int = 0
    with_n: int = 0
    frac_with: float | None = _column(".6g")
    without_k: int = 0
    without_n: int = 0
    frac_without: float | None = _column(".6g")
    pct_diff: float | None = _column(".6g", name="pct_difference")
    chi2: float | None = _column(".6g")
    p: float | None = _column()
    notes: list[str] = field(default_factory=list)


def finalize_proportion_row(row: ProportionRow) -> ProportionRow:
    if row.with_n == 0:
        row.notes.append("no matching posts")
        return row
    row.frac_with = row.with_k / row.with_n
    if row.without_n == 0:
        row.notes.append("no non-matching posts")
        return row
    row.frac_without = row.without_k / row.without_n
    try:
        row.pct_diff = percent_difference(row.frac_with, row.frac_without)
    except StatError as err:
        row.notes.append(f"percent difference skipped: {err}")
    try:
        row.chi2, row.p = chi2_two_proportions(row.with_k, row.with_n, row.without_k, row.without_n)
    except StatError as err:
        row.notes.append(f"chi2 skipped: {err}")
    return row


def thirdperson_rows(
    cfg: PipelineConfig,
) -> tuple[StreamCounts, ProportionRow, list[ProportionRow]]:
    """Third-person pronoun incidence per lexicon stratum, from one corpus
    scan.

    Returns (ingestion counts, baseline row over all posts, per-lexicon rows).
    """
    if not cfg.lexicons:
        raise ConfigError("thirdperson needs at least one lexicon")
    matcher = MultiLexiconMatcher(_load_lexicons(cfg))
    counts, table, names, _ = scan_corpus(cfg, matcher, pronouns=True)
    cells = [[0, 0, 0, 0] for _ in names]  # with_k, with_n, without_k, without_n
    base_k = 0
    for (_, _, mask), n in table.items():
        k = n if mask >> len(names) & 1 else 0
        base_k += k
        for idx, cell in enumerate(cells):
            at = 0 if mask >> idx & 1 else 2
            cell[at] += k
            cell[at + 1] += n
    baseline = ProportionRow(label="all_posts", with_k=base_k, with_n=counts.kept)
    baseline.frac_with = base_k / counts.kept
    rows = [
        finalize_proportion_row(
            ProportionRow(label=name, with_k=c[0], with_n=c[1], without_k=c[2], without_n=c[3])
        )
        for name, c in zip(names, cells)
    ]
    return counts, baseline, rows


def write_proportions_csv(baseline: ProportionRow | None, rows, path) -> None:
    _write_table(ProportionRow, ([] if baseline is None else [baseline]) + list(rows), path)


def format_proportions_table(baseline: ProportionRow | None, rows) -> str:
    header = ["lexicon", "with pronouns | match", "with pronouns | no match", "% difference", "chi2 p"]
    body = []
    if baseline is not None:
        body.append([baseline.label, _fmt(baseline.frac_with, ".4f"), "", "", ""])
    for row in rows:
        body.append(
            [
                row.label,
                _fmt(row.frac_with, ".4f"),
                _fmt(row.frac_without, ".4f"),
                "" if row.pct_diff is None else f"{row.pct_diff:+.1f}%",
                "" if row.p is None else f"{row.p:.3g}{significance_marker(row.p)}",
            ]
        )
    notes = [f"note [{row.label}]: {note}" for row in rows for note in row.notes]
    return _aligned_table(header, body, notes)
