"""Command-line interface: synth, signal, validate, thirdperson, auc.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date
from importlib import resources
from pathlib import Path

from .config import (
    PATH,
    RETIRED,
    SCHEMA,
    PipelineConfig,
    config_text,
    format_ini,
    load_config,
    retired_note,
)
from .corpus import read_csv
from .errors import ConfigError, EmoscopeError, RecordError, StatError, writing
from .pipeline import (
    ProportionRow,
    SignalBundle,
    build_signals,
    finalize_proportion_row,
    format_proportions_table,
    format_report_table,
    load_survey_map,
    run_validation,
    thirdperson_rows,
    validation_surveys,
    write_manifest,
    write_proportions_csv,
    write_report_csv,
    write_signal_outputs,
)
from .signals import ScoreCounts, score_values, stream_scores, write_csv
from .stats import roc_auc, roc_curve
from .synth import (
    SynthConfig,
    check_count,
    check_noise,
    generate_corpus,
    generate_scores,
    generate_survey,
    planted_truth,
    weekly_anchors,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _date_arg(raw: str) -> date:
    try:
        return date.fromisoformat(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO date: {raw!r}") from None


def _parse_emotion_spec(items) -> dict[str, tuple[float, float]]:
    out: dict[str, tuple[float, float]] = {}
    for item in items:
        try:
            name, _, rates = item.partition("=")
            male, _, female = rates.partition(":")
            out[name.strip()] = (float(male), float(female))
        except ValueError:
            raise ConfigError(f"--emotion expects NAME=MALE:FEMALE, got {item!r}") from None
        if not name.strip():
            raise ConfigError(f"--emotion expects NAME=MALE:FEMALE, got {item!r}")
    return out


def _parse_step_spec(items) -> tuple[tuple[str, int, float], ...]:
    steps = []
    for item in items:
        try:
            name, _, rest = item.partition("=")
            day, _, shift = rest.partition(":")
            steps.append((name.strip(), int(day), float(shift)))
        except ValueError:
            raise ConfigError(f"--step expects NAME=DAY:SHIFT, got {item!r}") from None
    return tuple(steps)


def _write_text(path: Path, text: str) -> None:
    with writing(path) as fh:
        fh.write(text)


_PIPELINE_HEADER = """\
# Generated alongside the synthetic corpus; `emoscope validate --config
# pipeline.ini` runs the full battery against the planted survey.

"""


def cmd_synth(args) -> int:
    prevalence = _parse_emotion_spec(args.emotion) if args.emotion else None
    cfg = SynthConfig(
        days=args.days,
        posts_per_day=args.posts_per_day,
        seed=args.seed,
        start=args.start,
        male_share=args.male_share,
        phi=args.phi,
        amplitude=args.amplitude,
        decoy_fraction=args.decoy_fraction,
        pronoun_rate=args.pronoun_rate,
        pronoun_rate_emotional=args.pronoun_rate_emotional,
        step_changes=_parse_step_spec(args.step) if args.step else (),
        **({"prevalence": prevalence} if prevalence else {}),
    )
    cfg.validate()
    # the survey and score knobs too, before the corpus is written
    check_count("--respondents", args.respondents, 0)
    check_count("--survey-seed", args.survey_seed, 0, high=None)
    check_count("--scores-per-day", args.scores_per_day, 1)
    check_noise("--score-noise", args.score_noise)
    check_count("--score-seed", args.score_seed, 0, high=None)
    anchors = weekly_anchors(cfg.start, cfg.days)
    planted_truth(cfg)  # a step change may push a planted rate out of (0, 1)
    out = Path(args.out)
    corpus_name = "corpus.ndjson.gz" if args.gzip else "corpus.ndjson"

    truth = generate_corpus(cfg, out / corpus_name, truth_path=out / "truth.csv")
    generate_survey(
        truth, anchors, out / "survey.csv", respondents=args.respondents, seed=args.survey_seed
    )
    generate_scores(
        truth,
        out / "scores.ndjson",
        per_day=args.scores_per_day,
        noise_sd=args.score_noise,
        seed=args.score_seed,
    )
    emotions = truth.emotions
    for emotion in emotions:
        text = (resources.files("emoscope") / "data" / f"{emotion}.txt").read_text("utf-8")
        _write_text(out / "lexicons" / f"{emotion}.txt", text)

    n = len(anchors)
    split_idx = min(max(round(0.67 * n), 8), n - 8) if n >= 16 else n // 2
    pipeline = PipelineConfig(
        inputs=(corpus_name,),
        lexicons=tuple((e, f"lexicons/{e}.txt") for e in emotions),
        score_path="scores.ndjson",
        score_emotions=tuple(emotions),
        survey_path="survey.csv",
        pairs=tuple((e, e) for e in emotions) + tuple((e, f"score_{e}") for e in emotions),
        split_date=anchors[split_idx],
    )
    sections = ("corpus", "lexicons", "scores", "survey", "signals", "validate", "output")
    ini = format_ini(config_text(pipeline, sections))
    _write_text(out / "pipeline.ini", _PIPELINE_HEADER + ini)

    total = cfg.days * cfg.posts_per_day
    print(f"wrote {total} posts over {cfg.days} days to {out / corpus_name}")
    print(f"wrote survey ({n} anchors), scores, truth.csv, lexicons/, pipeline.ini in {out}")
    return 0


_OVERRIDES = {row.flag: row for row in SCHEMA if row.flag}


def _add_overrides(parser, *flags) -> None:
    """--<flag> options that override config keys, typed and bounded as in the file."""
    for flag in flags:
        row = _OVERRIDES[flag]

        def parse(raw, row=row):
            try:
                return row.kind.parse(raw, None)
            except ValueError:
                raise argparse.ArgumentTypeError(f"must be {row.kind.noun}, got {raw!r}") from None

        default = row.kind.format(row.default)
        parser.add_argument(f"--{flag}", type=parse, choices=row.choices,
                            help=f"override [{row.section}] {row.key}, the {row.help} "
                                 f"(config default {default})")


def _load_config(args):
    """load_config with the command line's overrides. A relative path given
    there is taken from the working directory, as the file's are from the
    file's, so the effective config names absolute paths only."""
    overrides = {}
    for flag, row in _OVERRIDES.items():
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None:
            overrides[row.attr] = row.kind.parse(value, Path.cwd()) if row.kind is PATH else value
    for _, flag in RETIRED:
        if getattr(args, flag, None) is not None:
            retired_note(f"--{flag}")
    return load_config(args.config, overrides)


def _print_counts(c) -> None:
    print(f"records={c.records} parsed={c.parsed} malformed={c.malformed} "
          f"filtered={c.dropped} kept={c.kept}")


def cmd_signal(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.output_dir)
    # a bad survey is refused before the scan, as by validate
    surveys = {} if cfg.survey_path is None else load_survey_map(cfg)
    bundle = build_signals(cfg)
    written = write_signal_outputs(cfg, bundle, out, surveys)
    write_manifest(cfg, bundle, written, out / "manifest.json")
    _print_counts(bundle.counts)
    for name in cfg.signal_names():
        print(f"matched[{name}] = {bundle.matched[name]}")
    print(f"wrote {len(written)} signal files + manifest.json to {out}")
    return 0


def _scanned(cfg: PipelineConfig) -> SignalBundle:
    """build_signals(cfg), its counts printed."""
    bundle = build_signals(cfg)
    _print_counts(bundle.counts)
    return bundle


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.output_dir)
    surveys = validation_surveys(cfg)  # a bad survey config is refused before the scan
    # the bundle goes to run_validation unnamed: CPython (3.11 on) hands a
    # call's arguments to the callee's frame, so run_validation holds the
    # last reference and frees the daily signals once the pairs are
    # aligned, before numpy loads
    rows = run_validation(cfg, _scanned(cfg), surveys, extra_stratified=args.stratified,
                          plot_data=out / "plot_data.csv" if args.plot_data else None)
    write_report_csv(rows, out / "report.csv")
    table = format_report_table(rows)
    _write_text(out / "report.txt", table)
    sys.stdout.write(table)
    print(f"wrote report.csv and report.txt to {out}")
    return 0


def _read_counts(path) -> list[ProportionRow]:
    """Precomputed-counts mode: CSV label,with_k,with_n,without_k,without_n."""
    rows: list[ProportionRow] = []
    columns = ("label", "with_k", "with_n", "without_k", "without_n")
    for line_no, (label, *counts) in read_csv(path, columns):
        try:
            with_k, with_n, without_k, without_n = map(int, counts)
        except (TypeError, ValueError):
            raise RecordError("counts must be integers", line_no, path) from None
        if not (0 <= with_k <= with_n and 0 <= without_k <= without_n):
            raise RecordError("counts must satisfy 0 <= k <= n", line_no, path)
        row = ProportionRow(label or "", with_k, with_n, without_k=without_k, without_n=without_n)
        try:
            rows.append(finalize_proportion_row(row))
        except OverflowError:  # a fraction or chi2 past float range
            raise RecordError("counts too large", line_no, path) from None
    if not rows:
        raise RecordError("no count rows", None, path)
    return rows


def cmd_thirdperson(args) -> int:
    if (args.config is None) == (args.counts is None):
        raise ConfigError("thirdperson needs exactly one of --config or --counts")
    if args.counts is not None:
        rows = _read_counts(args.counts)
        baseline = None
        out = Path(args.output or ".")
    else:
        cfg = _load_config(args)
        counts, baseline, rows = thirdperson_rows(cfg)
        out = Path(cfg.output_dir)
        _print_counts(counts)
    write_proportions_csv(baseline, rows, out / "thirdperson.csv")
    sys.stdout.write(format_proportions_table(baseline, rows))
    print(f"wrote thirdperson.csv to {out}")
    return 0


def _read_labels(path) -> dict[str, dict[str, int]]:
    labels: dict[str, dict[str, int]] = {}
    for line_no, cells in read_csv(path, ("emotion", "id", "label")):
        emotion, post_id, raw = ((cell or "").strip() for cell in cells)
        if raw not in ("0", "1"):
            raise RecordError(f"label must be 0 or 1, got {raw!r}", line_no, path)
        labels.setdefault(emotion, {})[post_id] = int(raw)
    if not labels:
        raise RecordError("no label rows", None, path)
    return labels


def cmd_auc(args) -> int:
    labels = _read_labels(args.labels)
    emotions = list(args.emotions) if args.emotions else sorted(labels)
    unknown = [e for e in emotions if e not in labels]
    if unknown:
        raise ConfigError(f"no labels for emotions {unknown}; have {sorted(labels)}")
    scores: dict[str, dict[str, float]] = {e: {} for e in emotions}
    counts = ScoreCounts()
    duplicates = 0  # scores for an (emotion, id) that already had one; the last wins
    records = stream_scores(args.scores, counts)
    for rid, _, emotion, value in score_values(records, emotions, counts):
        duplicates += rid in scores[emotion]
        scores[emotion][rid] = value
    print(f"records={counts.records} parsed={counts.parsed} malformed={counts.malformed} "
          f"rejected_values={counts.rejected_values} duplicate_ids={duplicates}")
    out = Path(args.output)
    summary = []
    computed = 0
    for emotion in emotions:
        wanted = labels[emotion]
        got = scores[emotion]
        ids = [i for i in wanted if i in got]
        missing = len(wanted) - len(ids)
        ys = [wanted[i] for i in ids]
        xs = [got[i] for i in ids]
        row = [emotion, len(ids), sum(ys), len(ys) - sum(ys), missing]
        try:
            auc = roc_auc(ys, xs)
        except StatError as err:
            summary.append(row + ["", str(err)])
            print(f"{emotion}: skipped ({err})")
            continue
        fpr, tpr, thresholds = roc_curve(ys, xs)
        write_csv(out / f"roc_{emotion}.csv", ["fpr", "tpr", "threshold"],
                  ([format(v, ".10g") for v in point] for point in zip(fpr, tpr, thresholds)))
        summary.append(row + [f"{auc:.10g}", ""])
        print(f"{emotion}: AUC = {auc:.4f} (n={len(ids)}, missing scores={missing})")
        computed += 1
    write_csv(out / "auc.csv", ["emotion", "n", "n_pos", "n_neg", "missing_scores", "auc", "notes"],
              summary)
    if computed == 0:
        raise StatError("no emotion had scores with both classes present")
    print(f"wrote auc.csv and {computed} ROC curve files to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emoscope",
        description="Build emotion time series from social-media corpora and "
        "validate them against weekly surveys.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted truth",
                       formatter_class=fmt)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--days", type=int, default=120, help="number of generated days")
    p.add_argument("--posts-per-day", type=int, default=1000, help="posts per day")
    p.add_argument("--seed", type=int, default=1, help="corpus RNG seed")
    p.add_argument("--start", type=_date_arg, default=date(2020, 6, 1), help="first day (ISO)")
    p.add_argument("--male-share", type=float, default=0.639, help="share of male-authored posts")
    p.add_argument("--phi", type=float, default=0.9, help="AR(1) coefficient of the latent mood")
    p.add_argument("--amplitude", type=float, default=0.02,
                   help="max prevalence deflection of the latent mood")
    p.add_argument("--emotion", action="append", metavar="NAME=MALE:FEMALE",
                   help="emotion with per-gender base rates (repeatable); "
                        "default: sadness=0.04:0.06 anxiety=0.05:0.05 positive=0.09:0.11")
    p.add_argument("--decoy-fraction", type=float, default=0.0,
                   help="fraction of posts given out-of-range follower counts")
    p.add_argument("--pronoun-rate", type=float, default=0.15,
                   help="third-person pronoun rate in non-matching posts")
    p.add_argument("--pronoun-rate-emotional", type=float, default=None,
                   help="pronoun rate in matching posts (default: same as --pronoun-rate)")
    p.add_argument("--step", action="append", metavar="NAME=DAY:SHIFT",
                   help="level shift of one emotion from a day index on (repeatable)")
    p.add_argument("--respondents", type=int, default=2000,
                   help="survey respondents per week (0 = noise-free survey)")
    p.add_argument("--survey-seed", type=int, default=0, help="survey RNG seed")
    p.add_argument("--scores-per-day", type=int, default=200, help="score records per day")
    p.add_argument("--score-noise", type=float, default=0.05, help="score noise sd")
    p.add_argument("--score-seed", type=int, default=0, help="score RNG seed")
    p.add_argument("--gzip", action="store_true", help="gzip the corpus file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("signal", help="build daily/weekly signal CSVs", formatter_class=fmt)
    p.add_argument("--config", required=True, help="pipeline INI file")
    _add_overrides(p, "output", "gender-mode")
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("validate", help="run the full validation battery", formatter_class=fmt)
    p.add_argument("--config", required=True, help="pipeline INI file")
    _add_overrides(p, "output", "gender-mode", "split-date", "dcca-window")
    for _, flag in RETIRED:
        p.add_argument(f"--{flag}", metavar="N",
                       help="retired and ignored: p-values come from circular shifts")
    p.add_argument("--stratified", action="store_true",
                   help="add per-gender rows to the report")
    p.add_argument("--plot-data", action="store_true",
                   help="also write tidy per-anchor plot_data.csv")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("thirdperson", help="third-person pronoun proportions per lexicon",
                       formatter_class=fmt)
    p.add_argument("--config", default=None, help="pipeline INI file (corpus mode)")
    p.add_argument("--counts", default=None,
                   help="CSV label,with_k,with_n,without_k,without_n (precomputed-counts mode)")
    _add_overrides(p, "output")
    p.set_defaults(func=cmd_thirdperson)

    p = sub.add_parser("auc", help="ROC/AUC of a score file against binary labels",
                       formatter_class=fmt)
    p.add_argument("--scores", required=True, help="score NDJSON file")
    p.add_argument("--labels", required=True, help="labels CSV (id,emotion,label)")
    p.add_argument("--output", default=".", help="output directory")
    p.add_argument("--emotions", nargs="*", default=None,
                   help="emotions to evaluate (default: all labelled)")
    p.set_defaults(func=cmd_auc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"config error: file not found: {err.filename or err}", file=sys.stderr)
        return 1
    except EmoscopeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
