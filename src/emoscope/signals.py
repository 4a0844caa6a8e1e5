"""Daily aggregation, gender rescaling, and weekly survey alignment."""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import StreamCounts, load_json_object, read_records, read_text
from .errors import RecordError, SignalError, SurveyError, writing

if TYPE_CHECKING:
    import numpy as np

GENDER_STRATA = ("all", "male", "female")


@dataclass
class DailySignal:
    """Date-indexed fractions or mean scores with their exact counts.

    values[d] == counts[d][0] / counts[d][1] for every present date; days
    with an empty denominator are absent (missing, never zero).
    """

    name: str
    values: dict[date, float] = field(default_factory=dict)
    counts: dict[date, tuple[float, float]] = field(default_factory=dict)

    @classmethod
    def from_counts(cls, name: str, counts: Mapping[date, tuple[float, float]]) -> "DailySignal":
        values: dict[date, float] = {}
        clean: dict[date, tuple[float, float]] = {}
        for d in sorted(counts):
            num, den = counts[d]
            if den <= 0:
                raise SignalError(f"{name}: nonpositive denominator on {d}")
            if num < 0 or num > den:
                raise SignalError(f"{name}: numerator outside [0, denominator] on {d}")
            values[d] = num / den
            clean[d] = (num, den)
        return cls(name=name, values=values, counts=clean)

    def dates(self) -> list[date]:
        return sorted(self.values)

    def __len__(self) -> int:
        return len(self.values)


def gender_rescale(male: DailySignal, female: DailySignal, name: str | None = None) -> DailySignal:
    """Unweighted mean of the two per-gender signals on their common dates.

    Equal weighting deliberately ignores the corpus gender imbalance so
    each gender contributes half, like a demographically balanced panel.
    """
    common = sorted(set(male.values) & set(female.values))
    counts = {d: (male.values[d] + female.values[d], 2.0) for d in common}
    return DailySignal.from_counts(name or male.name, counts)


class ScoreRecord(NamedTuple):
    """Per-post classifier scores for one or more emotions; immutable and
    equal by value, like corpus.Post."""

    id: str
    day: date
    scores: Mapping[str, float]


def score_fields(line: str, line_no: int, source: str) -> tuple:
    """The fields of one NDJSON score record, in ScoreRecord's order; a
    missing or mistyped field, or a score that is not a number, raises
    RecordError."""
    rec = load_json_object(line, line_no, source)
    # JSON decodes to exact types, so each check tests the type itself
    rid = rec.get("id")
    if rid is None:
        raise RecordError("missing id", line_no, source)
    raw_day = rec.get("date")
    if type(raw_day) is not str:
        raise RecordError("missing or non-string date", line_no, source)
    try:
        day = date.fromisoformat(raw_day)
    except ValueError:
        raise RecordError(f"unparseable date {raw_day!r}", line_no, source) from None
    scores = rec.get("scores")
    if type(scores) is not dict:
        raise RecordError("missing scores object", line_no, source)
    for key, value in scores.items():  # the decoded dict is this record's own
        kind = type(value)
        if kind is float:
            continue
        if kind is not int:
            raise RecordError(f"score {key!r} is not a number", line_no, source)
        try:
            scores[key] = float(value)
        except OverflowError:  # an integer past float range: out of [0, 1] like any other
            scores[key] = math.inf if value > 0 else -math.inf
    return str(rid), day, scores


@dataclass
class ScoreCounts(StreamCounts):
    """Score-file bookkeeping: lines as for posts, plus the score values
    outside [0, 1] that were skipped inside otherwise valid lines."""

    rejected_values: int = 0

    def as_dict(self) -> dict:
        return {**super().as_dict(), "rejected_values": self.rejected_values}


def _score_record(line: str, line_no: int, source: str) -> ScoreRecord:
    return tuple.__new__(ScoreRecord, score_fields(line, line_no, source))


def stream_scores(path, counts: StreamCounts | None = None) -> Iterator[ScoreRecord]:
    """The score records of one NDJSON file, or a Shard of one, in order,
    as a generator; malformed lines are counted and skipped, like
    stream_posts."""
    return read_records((path,), _score_record, StreamCounts() if counts is None else counts)


def score_values(
    records: Iterable[ScoreRecord], emotions: Sequence[str], counts: ScoreCounts
) -> Iterator[tuple[str, date, str, float]]:
    """(id, day, emotion, value) of every score of the emotions, in
    record order and then in the order of `emotions`. A record without an
    emotion has no value for it; a value outside [0, 1] is skipped and
    counted in counts.rejected_values, its line stays parsed."""
    for rid, day, scores in records:
        for emotion in emotions:
            value = scores.get(emotion)
            if value is None:
                continue
            if not 0.0 <= value <= 1.0:
                counts.rejected_values += 1
                continue
            yield rid, day, emotion, value


def daily_mean_scores(
    records: Iterable[ScoreRecord], emotions: Sequence[str], counts: ScoreCounts
) -> dict[str, DailySignal]:
    """Per-day mean score of every emotion in one pass over
    score_values, keyed by emotion and named score_<emotion>."""
    acc: dict[str, dict[date, list[float]]] = {e: {} for e in emotions}
    # tuple(acc): an emotion named twice is still counted once
    for _, day, emotion, value in score_values(records, tuple(acc), counts):
        per_day = acc[emotion]
        row = per_day.get(day)
        if row is None:
            row = per_day[day] = [0.0, 0.0]
        row[0] += value
        row[1] += 1.0
    return {e: DailySignal.from_counts(f"score_{e}", per_day) for e, per_day in acc.items()}


def _check_anchors(name: str, anchors: Sequence[date]) -> tuple[date, ...]:
    anchors = tuple(anchors)
    for a, b in zip(anchors, anchors[1:]):
        if b <= a:
            raise SignalError(f"{name}: anchors not strictly increasing ({a} then {b})")
    return anchors


@dataclass
class WeeklySeries:
    """Signal values aligned to survey field dates (anchors).

    Missing anchors are absent from `values`; `coverage` records which
    fraction of each window's days had data.
    """

    name: str
    anchors: tuple[date, ...]
    values: dict[date, float] = field(default_factory=dict)
    coverage: dict[date, float] = field(default_factory=dict)

    def __post_init__(self):
        self.anchors = _check_anchors(self.name, self.anchors)


def weekly_align(
    daily: DailySignal,
    anchors: Sequence[date],
    window_days: int = 7,
    offset_days: int = 0,
    name: str | None = None,
) -> WeeklySeries:
    """Mean of daily values over the window ending at each anchor.

    The default window is the 7 calendar days ending at (and including)
    the anchor; offset_days shifts the window back. Days missing from
    the daily signal shrink the mean and lower the recorded coverage; a
    fully empty window leaves the anchor missing.
    """
    if window_days < 1:
        raise SignalError(f"window_days must be >= 1, got {window_days}")
    if offset_days < 0:
        raise SignalError(f"offset_days must be >= 0, got {offset_days}")
    series = WeeklySeries(name=name or daily.name, anchors=tuple(anchors))
    # days as ordinals: a window may reach past the calendar's start, where
    # no day has a value, and any length or offset stays plain int arithmetic
    days = sorted(daily.values)
    ordinals = [d.toordinal() for d in days]
    for anchor in series.anchors:
        end = anchor.toordinal() - offset_days
        lo = bisect_left(ordinals, end - window_days + 1)
        hi = bisect_right(ordinals, end)
        present = [daily.values[d] for d in reversed(days[lo:hi])]  # newest first
        if not present:
            continue
        series.values[anchor] = sum(present) / len(present)
        series.coverage[anchor] = len(present) / window_days
    return series


@dataclass
class SurveySeries:
    """One emotion's weekly survey percentages over its field dates."""

    emotion: str
    anchors: tuple[date, ...]
    percent: dict[date, float] = field(default_factory=dict)

    def __post_init__(self):
        self.anchors = _check_anchors(self.emotion, self.anchors)
        for d, v in self.percent.items():
            if not 0.0 <= v <= 100.0:
                raise SurveyError(f"{self.emotion}: percent {v} on {d} outside [0, 100]")


def numbered_rows(reader) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) of every row left in a csv.reader, blank rows
    left out. The number is the physical line where the row starts, so a
    quoted field that holds a newline does not shift the rows after it."""
    start = reader.line_num + 1
    for row in reader:
        if row:
            yield start, row
        start = reader.line_num + 1


def load_survey(path) -> list[SurveySeries]:
    """Load a long-form weekly survey CSV with header date,emotion,percent.

    Rows must be date-ordered within each emotion; duplicates are errors.
    Emotions keep first-appearance order.
    """
    path = Path(path)
    order: list[str] = []
    per: dict[str, list[tuple[date, float]]] = {}
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise SurveyError(f"{path}: empty file")
        lowered = [h.strip().lower() for h in header]
        try:
            di = lowered.index("date")
            ei = lowered.index("emotion")
            pi = lowered.index("percent")
        except ValueError:
            raise SurveyError(f"{path}: header must name date, emotion and percent columns") from None
        for row_no, row in numbered_rows(reader):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) <= max(di, ei, pi):
                raise SurveyError(f"{path}:{row_no}: too few columns")
            try:
                d = date.fromisoformat(row[di].strip())
            except ValueError:
                raise SurveyError(f"{path}:{row_no}: bad date {row[di]!r}") from None
            emotion = row[ei].strip()
            if not emotion:
                raise SurveyError(f"{path}:{row_no}: empty emotion")
            try:
                percent = float(row[pi])
            except ValueError:
                raise SurveyError(f"{path}:{row_no}: bad percent {row[pi]!r}") from None
            if not 0.0 <= percent <= 100.0:
                raise SurveyError(f"{path}:{row_no}: percent {percent} outside [0, 100]")
            rows = per.setdefault(emotion, [])
            if not rows:
                order.append(emotion)
            elif d == rows[-1][0]:
                raise SurveyError(f"{path}:{row_no}: duplicate date {d} for {emotion}")
            elif d < rows[-1][0]:
                raise SurveyError(f"{path}:{row_no}: dates not increasing for {emotion}")
            rows.append((d, percent))
    except csv.Error as err:  # a field past csv's size limit
        raise SurveyError(f"{path}:{reader.line_num}: {err}") from None
    if not per:
        raise SurveyError(f"{path}: no data rows")
    return [
        SurveySeries(
            emotion=emotion,
            anchors=tuple(d for d, _ in per[emotion]),
            percent=dict(per[emotion]),
        )
        for emotion in order
    ]


def paired_values(signal: WeeklySeries, survey: SurveySeries) -> tuple[np.ndarray, np.ndarray, list[date]]:
    """Pairwise-complete (signal, survey) arrays over the anchors both cover."""
    import numpy as np

    common = [a for a in survey.anchors if a in survey.percent and a in signal.values]
    x = np.array([signal.values[a] for a in common], dtype=float)
    y = np.array([survey.percent[a] for a in common], dtype=float)
    return x, y, common


def write_csv(path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """The package's one CSV writer: UTF-8, csv's default dialect (quoting
    where needed, CRLF line ends), `header` then every row of `rows`.

    A table without a row class lists its header and cells where it is
    written. A result table with one (pipeline.ValidationRow,
    pipeline.ProportionRow) declares its columns on its fields with
    pipeline._column, and pipeline._write_table writes it from them.
    """
    with writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_daily_csv(signal: DailySignal, path) -> None:
    """Daily export: date,value,numerator,denominator (dates ascending)."""
    write_csv(path, ["date", "value", "numerator", "denominator"], (
        [d.isoformat(), f"{signal.values[d]:.12g}", *(f"{c:.12g}" for c in signal.counts[d])]
        for d in signal.dates()
    ))


def write_weekly_csv(series: WeeklySeries, path) -> None:
    """Weekly export: date,value,coverage; one row per anchor, value blank
    when the window had no data."""
    write_csv(path, ["date", "value", "coverage"], (
        [a.isoformat(), f"{series.values[a]:.12g}", f"{series.coverage[a]:.12g}"]
        if a in series.values else [a.isoformat(), "", "0"]
        for a in series.anchors
    ))
