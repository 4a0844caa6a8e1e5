"""Pipeline assembly: corpus -> matchers -> daily signals -> weekly
alignment -> validation battery -> report rows.

The CLI subcommands are thin wrappers around these functions; tests call
them directly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable

from .config import PipelineConfig, expand_inputs
from .corpus import Gender, StreamCounts, scan_shards, stream_posts
from .errors import ConfigError, RecordError, SignalError, StatError
from .lexicon import (
    ExplicitReportMatcher,
    Lexicon,
    MultiLexiconMatcher,
    PronounList,
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
    split_periods,
    stream_scores,
    weekly_align,
    write_daily_csv,
    write_weekly_csv,
)
from .stats import (
    correlate,
    dcca,
    dcca_statistic,
    kpss,
    lagged_regression_hac,
    percent_difference,
    permutation_test,
    chi2_two_proportions,
    significance_marker,
)

_MAX_ERROR_SAMPLES = 20


@dataclass
class SignalBundle:
    """Daily signals per (signal name, stratum) plus ingestion bookkeeping."""

    daily: dict[tuple[str, str], DailySignal]
    counts: StreamCounts
    score_counts: ScoreCounts | None
    matched: dict[str, int]
    errors: list[str]
    signal_names: list[str]

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


def scan_corpus(
    cfg: PipelineConfig,
    matcher: MultiLexiconMatcher | None,
    report_matcher: ExplicitReportMatcher | None = None,
    pronouns: PronounList | None = None,
    on_error: Callable[[RecordError], None] | None = None,
) -> tuple[StreamCounts, dict[tuple[date, int, int], int], tuple[str, ...], int]:
    """The one pass over the filtered corpus: kept posts per (day, gender
    index, match mask), with gender index 1 male, 2 female, 0 unknown.

    The lexicons of `matcher` take the low mask bits, the report emotions
    of `report_matcher` (as report_<emotion>) the next ones, and the bit
    after them marks a third-person pronoun from `pronouns`. A matcher
    left None is never run and sets no bits. Returns (counts, table, signal
    name of each mask bit, index of the pronoun bit).

    The inputs are scanned by corpus.scan_shards, in up to one process per
    usable CPU. Counts and tables are summed in input order, so the result
    equals a one-process scan's, key order included. Every malformed record
    of the first shard group reaches on_error, then at most
    _MAX_ERROR_SAMPLES of each later group: the first _MAX_ERROR_SAMPLES
    calls are a one-process scan's.
    """
    signals = () if matcher is None else tuple(matcher.names)
    report_bits = (
        {} if report_matcher is None
        else {e: 1 << (len(signals) + i) for i, e in enumerate(report_matcher.emotions)}
    )
    signals += tuple(f"report_{e}" for e in report_bits)
    pronoun_bit = len(signals)
    tz = cfg.tz_offset_minutes
    male, female = Gender.MALE, Gender.FEMALE

    def scan(group, on_error):
        counts = StreamCounts()
        table: dict[tuple[date, int, int], int] = {}
        for post in stream_posts(group, cfg.filter, counts, on_error):
            tokens = tokenize(post.text)
            mask = 0 if matcher is None else matcher.match_mask(tokens)
            if report_matcher is not None:
                for emotion in report_matcher.match(tokens):
                    mask |= report_bits[emotion]
            if pronouns is not None and contains_third_person(tokens, pronouns):
                mask |= 1 << pronoun_bit
            # identity tests: hashing an Enum member is a Python-level call
            gender = post.author_gender
            key = (post.day(tz), 1 if gender is male else 2 if gender is female else 0, mask)
            table[key] = table.get(key, 0) + 1
        return counts, table

    (counts, table), *rest = scan_shards(expand_inputs(cfg), scan, on_error, _MAX_ERROR_SAMPLES)
    for part_counts, part_table in rest:
        counts.add(part_counts)
        for key, n in part_table.items():
            table[key] = table.get(key, 0) + n
    if counts.kept == 0:
        raise SignalError("no posts left after filtering")
    return counts, table, signals, pronoun_bit


def build_signals(cfg: PipelineConfig) -> SignalBundle:
    """One corpus scan with every lexicon and report matcher, then one
    pass over the score file."""
    lexicons = _load_lexicons(cfg)
    matcher = MultiLexiconMatcher(lexicons) if lexicons else None
    report_matcher = (
        ExplicitReportMatcher(cfg.templates, cfg.report_emotions) if cfg.report_emotions else None
    )
    corpus_signals = [lex.name for lex in lexicons] + [f"report_{e}" for e in cfg.report_emotions]
    signal_names = corpus_signals + [f"score_{e}" for e in cfg.score_emotions]
    if not signal_names:
        raise ConfigError("no signals configured (lexicons, reports, or scores)")

    counts = StreamCounts()
    errors: list[str] = []

    def on_error(err):
        if len(errors) < _MAX_ERROR_SAMPLES:
            errors.append(str(err))

    daily: dict[tuple[str, str], DailySignal] = {}
    matched: dict[str, int] = {}
    if corpus_signals:
        counts, table, names, _ = scan_corpus(cfg, matcher, report_matcher, on_error=on_error)
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
        for idx, name in enumerate(names):
            base = 3 + 3 * idx
            for gi, stratum in enumerate(GENDER_STRATA):
                per_day = {d: (row[base + gi], row[gi]) for d, row in agg.items() if row[gi] > 0}
                daily[(name, stratum)] = DailySignal.from_counts(name, per_day)
            matched[name] = sum(row[base] for row in agg.values())

    score_counts = None
    if cfg.score_emotions:
        if cfg.score_path is None or not Path(cfg.score_path).is_file():
            raise ConfigError(f"score file not found: {cfg.score_path}")
        score_counts = ScoreCounts()
        records = stream_scores(cfg.score_path, score_counts, on_error)
        for signal in daily_mean_scores(records, cfg.score_emotions, score_counts).values():
            daily[(signal.name, "all")] = signal
            matched[signal.name] = int(sum(n for _, n in signal.counts.values()))

    return SignalBundle(
        daily=daily,
        counts=counts,
        score_counts=score_counts,
        matched=matched,
        errors=errors,
        signal_names=signal_names,
    )


def load_survey_map(cfg: PipelineConfig) -> dict[str, SurveySeries]:
    if cfg.survey_path is None:
        raise ConfigError("no survey configured ([survey] path)")
    if not Path(cfg.survey_path).is_file():
        raise ConfigError(f"survey file not found: {cfg.survey_path}")
    return {series.emotion: series for series in load_survey(cfg.survey_path)}


def survey_anchor_union(surveys) -> tuple[date, ...]:
    anchors: set[date] = set()
    for series in surveys:
        anchors.update(series.anchors)
    return tuple(sorted(anchors))


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


@dataclass
class ValidationRow:
    """One report row; None fields were skipped, with the reason in notes."""

    survey_emotion: str
    signal: str
    stratum: str
    n1: int | None = None
    r1: float | None = None
    r1_lo: float | None = None
    r1_hi: float | None = None
    r1_p: float | None = None
    n2: int | None = None
    r2: float | None = None
    r2_lo: float | None = None
    r2_hi: float | None = None
    r2_p: float | None = None
    n_full: int | None = None
    perm_p: float | None = None
    dcca_rho: float | None = None
    dcca_p: float | None = None
    beta: float | None = None
    beta_p: float | None = None
    kpss_stat: float | None = None
    kpss_band: str | None = None
    notes: list[str] = field(default_factory=list)


def validate_pair(
    survey: SurveySeries, weekly: WeeklySeries, stratum: str, cfg: PipelineConfig
) -> ValidationRow:
    """Full battery on one (survey emotion, signal, stratum) combination.

    Correlations are split at cfg.split_date; the permutation, DCCA, HAC
    and KPSS statistics use the whole pairwise-complete series. Every
    statistic failing its precondition is skipped with a recorded reason
    instead of failing the run.
    """
    row = ValidationRow(survey_emotion=survey.emotion, signal=weekly.name, stratum=stratum)

    def guard(label, fn):
        try:
            return fn()
        except (StatError, SignalError) as err:
            row.notes.append(f"{label} skipped: {err}")
            return None

    x, y, anchors = paired_values(weekly, survey)
    row.n_full = len(anchors)

    halves = guard("split", lambda: split_periods(weekly, survey, cfg.split_date))
    if halves is not None:
        for tag, (sig_part, sur_part) in zip(("historical", "prediction"), halves):
            xp, yp, ap = paired_values(sig_part, sur_part)
            n = len(ap)
            if tag == "historical":
                row.n1 = n
            else:
                row.n2 = n
            if n < 8:
                row.notes.append(f"{tag} period too short (n={n})")
                continue
            res = guard(f"{tag} r", lambda: correlate(xp, yp))
            if res is None:
                continue
            if tag == "historical":
                row.r1, row.r1_lo, row.r1_hi, row.r1_p = res.r, res.ci_low, res.ci_high, res.p
            else:
                row.r2, row.r2_lo, row.r2_hi, row.r2_p = res.r, res.ci_low, res.ci_high, res.p

    row.perm_p = guard(
        "permutation",
        lambda: permutation_test(x, y, n_perm=cfg.permutations, seed=cfg.seed),
    )
    dcca_result = guard("dcca", lambda: dcca(x, y, window=cfg.dcca_window))
    if dcca_result is not None:
        row.dcca_rho = dcca_result.rho
        row.dcca_p = guard(
            "dcca permutation",
            lambda: permutation_test(
                x,
                y,
                statistic=dcca_statistic(cfg.dcca_window),
                n_perm=cfg.permutations,
                seed=cfg.seed,
            ),
        )
    fit = guard("regression", lambda: lagged_regression_hac(y, x))
    if fit is not None:
        row.beta = fit.beta
        row.beta_p = fit.p_beta
        kp = guard("kpss", lambda: kpss(fit.residuals))
        if kp is not None:
            row.kpss_stat = kp.statistic
            row.kpss_band = kp.verdict_band
    return row


def run_validation(
    cfg: PipelineConfig, bundle: SignalBundle | None = None, extra_stratified: bool = False
) -> list[ValidationRow]:
    if not cfg.pairs:
        raise ConfigError("no survey/signal pairs configured ([survey] pairs)")
    surveys = load_survey_map(cfg)
    if bundle is None:
        bundle = build_signals(cfg)
    rows: list[ValidationRow] = []
    for survey_emotion, signal in cfg.pairs:
        if survey_emotion not in surveys:
            raise ConfigError(
                f"survey has no emotion {survey_emotion!r}; has {sorted(surveys)}"
            )
        survey = surveys[survey_emotion]
        for stratum in strata_for(cfg, signal, extra_stratified):
            daily = bundle.stratum_signal(signal, stratum)
            weekly = weekly_align(
                daily,
                survey.anchors,
                window_days=cfg.week_length,
                offset_days=cfg.week_offset,
                name=signal,
            )
            rows.append(validate_pair(survey, weekly, stratum, cfg))
    return rows


def _fmt(value, spec=".4g") -> str:
    return "" if value is None else format(value, spec)


_REPORT_COLUMNS = (
    "survey_emotion,signal,stratum,n1,r1,r1_lo,r1_hi,r1_p,r1_sig,"
    "n2,r2,r2_lo,r2_hi,r2_p,r2_sig,n_full,perm_p,dcca_rho,dcca_p,dcca_sig,"
    "beta,beta_p,beta_sig,kpss_stat,kpss_band,notes"
).split(",")


def write_report_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.survey_emotion,
                    row.signal,
                    row.stratum,
                    _fmt(row.n1, "d"),
                    _fmt(row.r1),
                    _fmt(row.r1_lo),
                    _fmt(row.r1_hi),
                    _fmt(row.r1_p),
                    "" if row.r1_p is None else significance_marker(row.r1_p),
                    _fmt(row.n2, "d"),
                    _fmt(row.r2),
                    _fmt(row.r2_lo),
                    _fmt(row.r2_hi),
                    _fmt(row.r2_p),
                    "" if row.r2_p is None else significance_marker(row.r2_p),
                    _fmt(row.n_full, "d"),
                    _fmt(row.perm_p),
                    _fmt(row.dcca_rho),
                    _fmt(row.dcca_p),
                    "" if row.dcca_p is None else significance_marker(row.dcca_p),
                    _fmt(row.beta),
                    _fmt(row.beta_p),
                    "" if row.beta_p is None else significance_marker(row.beta_p),
                    _fmt(row.kpss_stat),
                    row.kpss_band or "",
                    "; ".join(row.notes),
                ]
            )


def _corr_cell(r, lo, hi, p) -> str:
    if r is None:
        return "skipped"
    return f"{r:.3f}{significance_marker(p)} [{lo:.3f}, {hi:.3f}]"


def _stat_cell(value, p, digits=3) -> str:
    if value is None:
        return "skipped"
    cell = f"{value:.{digits}f}"
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
                "" if row.n1 is None else str(row.n1),
                _corr_cell(row.r1, row.r1_lo, row.r1_hi, row.r1_p),
                "" if row.n2 is None else str(row.n2),
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


def write_plot_data(cfg: PipelineConfig, bundle: SignalBundle, path) -> None:
    """Tidy per-anchor CSV (one row per pair per anchor) for external plotting."""
    surveys = load_survey_map(cfg)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["survey_emotion", "signal", "stratum", "date", "period", "survey_percent", "signal_value"]
        )
        for survey_emotion, signal in cfg.pairs:
            survey = surveys[survey_emotion]
            for stratum in strata_for(cfg, signal):
                daily = bundle.stratum_signal(signal, stratum)
                weekly = weekly_align(
                    daily,
                    survey.anchors,
                    window_days=cfg.week_length,
                    offset_days=cfg.week_offset,
                    name=signal,
                )
                for anchor in survey.anchors:
                    period = "historical" if anchor < cfg.split_date else "prediction"
                    writer.writerow(
                        [
                            survey_emotion,
                            signal,
                            stratum,
                            anchor.isoformat(),
                            period,
                            _fmt(survey.percent.get(anchor), ".10g"),
                            _fmt(weekly.values.get(anchor), ".10g"),
                        ]
                    )


def write_signal_outputs(cfg: PipelineConfig, bundle: SignalBundle, out_dir: Path) -> list[str]:
    """Daily (and, when a survey is configured, weekly) CSVs for every
    signal and stratum; returns the written file names."""
    written: list[str] = []
    anchors: tuple[date, ...] = ()
    if cfg.survey_path is not None:
        anchors = survey_anchor_union(load_survey_map(cfg).values())
    for name in bundle.signal_names:
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
    manifest = {
        "counts": bundle.counts.as_dict(),
        "matched": dict(sorted(bundle.matched.items())),
        "error_samples": bundle.errors,
        "files": sorted(written),
        "config": {
            "inputs": list(cfg.inputs),
            "lexicons": {name: path for name, path in cfg.lexicons},
            "report_emotions": list(cfg.report_emotions),
            "score_emotions": list(cfg.score_emotions),
            "gender_mode": cfg.gender_mode,
            "filter": {
                "min_followers": cfg.filter.min_followers,
                "max_followers": cfg.filter.max_followers,
                "exclude_retweets": cfg.filter.exclude_retweets,
            },
            "week_length": cfg.week_length,
            "week_offset": cfg.week_offset,
            "tz_offset_minutes": cfg.tz_offset_minutes,
        },
    }
    if bundle.score_counts is not None:
        manifest["score_counts"] = bundle.score_counts.as_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class ProportionRow:
    """Third-person pronoun share among matching vs non-matching posts."""

    label: str
    with_k: int = 0
    with_n: int = 0
    without_k: int = 0
    without_n: int = 0
    frac_with: float | None = None
    frac_without: float | None = None
    pct_diff: float | None = None
    chi2: float | None = None
    p: float | None = None
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
    cfg: PipelineConfig, pronouns: PronounList | None = None
) -> tuple[StreamCounts, ProportionRow, list[ProportionRow]]:
    """Pronoun incidence per lexicon stratum, from one corpus scan.

    Returns (ingestion counts, baseline row over all posts, per-lexicon rows).
    """
    if not cfg.lexicons:
        raise ConfigError("thirdperson needs at least one lexicon")
    matcher = MultiLexiconMatcher(_load_lexicons(cfg))
    pronouns = pronouns or PronounList()
    counts, table, names, pronoun_bit = scan_corpus(cfg, matcher, pronouns=pronouns)
    cells = [[0, 0, 0, 0] for _ in names]  # with_k, with_n, without_k, without_n
    base_k = 0
    for (_, _, mask), n in table.items():
        k = n if mask >> pronoun_bit & 1 else 0
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


def read_proportion_counts(path) -> list[ProportionRow]:
    """Precomputed-counts mode: CSV label,with_k,with_n,without_k,without_n."""
    path = Path(path)
    rows: list[ProportionRow] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"label", "with_k", "with_n", "without_k", "without_n"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ConfigError(f"{path}: header must contain {sorted(required)}")
        for line_no, rec in enumerate(reader, 2):
            try:
                row = ProportionRow(
                    label=rec["label"],
                    with_k=int(rec["with_k"]),
                    with_n=int(rec["with_n"]),
                    without_k=int(rec["without_k"]),
                    without_n=int(rec["without_n"]),
                )
            except (TypeError, ValueError):
                raise ConfigError(f"{path}:{line_no}: counts must be integers") from None
            rows.append(finalize_proportion_row(row))
    if not rows:
        raise ConfigError(f"{path}: no count rows")
    return rows


def write_proportions_csv(baseline: ProportionRow | None, rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "label",
                "with_k",
                "with_n",
                "frac_with",
                "without_k",
                "without_n",
                "frac_without",
                "pct_difference",
                "chi2",
                "p",
                "notes",
            ]
        )
        everything = ([baseline] if baseline is not None else []) + list(rows)
        for row in everything:
            writer.writerow(
                [
                    row.label,
                    row.with_k,
                    row.with_n,
                    _fmt(row.frac_with, ".6g"),
                    row.without_k,
                    row.without_n,
                    _fmt(row.frac_without, ".6g"),
                    _fmt(row.pct_diff, ".6g"),
                    _fmt(row.chi2, ".6g"),
                    _fmt(row.p, ".4g"),
                    "; ".join(row.notes),
                ]
            )


def format_proportions_table(baseline: ProportionRow | None, rows) -> str:
    header = ["lexicon", "with pronouns | match", "with pronouns | no match", "% difference", "chi2 p"]
    body = []
    if baseline is not None:
        frac = "" if baseline.frac_with is None else f"{baseline.frac_with:.4f}"
        body.append([baseline.label, frac, "", "", ""])
    for row in rows:
        body.append(
            [
                row.label,
                "" if row.frac_with is None else f"{row.frac_with:.4f}",
                "" if row.frac_without is None else f"{row.frac_without:.4f}",
                "" if row.pct_diff is None else f"{row.pct_diff:+.1f}%",
                "" if row.p is None else f"{row.p:.3g}{significance_marker(row.p)}",
            ]
        )
    notes = [f"note [{row.label}]: {note}" for row in rows for note in row.notes]
    return _aligned_table(header, body, notes)
