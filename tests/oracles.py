"""Literal reference implementations that tests compare the package's
fused, faster forms against, and helpers that only tests need."""

from __future__ import annotations

import json
import math
import re
from datetime import date, datetime, timedelta, timezone
from typing import Callable, Iterable, Sequence

import numpy as np

from emoscope.corpus import FilterConfig, Post, post_fields
from emoscope.errors import LexiconError, RecordError, SignalError
from emoscope.lexicon import Lexicon, ReportTemplateSet, contains_third_person, tokenize
from emoscope.signals import GENDER_STRATA, DailySignal, ScoreRecord, score_fields
from emoscope.stats import dcca, pearson


def load_json_object(line: str, line_no=None, source=None) -> dict:
    """json.loads, with each way it can fail turned into a RecordError."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as err:
        raise RecordError(f"invalid JSON ({err.msg})", line_no, source) from None
    except RecursionError:
        raise RecordError("invalid JSON (nesting too deep)", line_no, source) from None
    except ValueError:  # an integer beyond sys.get_int_max_str_digits()
        raise RecordError("invalid JSON (integer too long)", line_no, source) from None
    if not isinstance(rec, dict):
        raise RecordError("record is not a JSON object", line_no, source)
    return rec


def parse_post_record(line: str, line_no=None, source=None) -> Post:
    """One NDJSON record as a Post (see corpus.post_fields)."""
    return Post._make(post_fields(line, line_no, source))


def parse_score_record(line: str, line_no=None, source=None) -> ScoreRecord:
    """One NDJSON record as a ScoreRecord (see signals.score_fields)."""
    return ScoreRecord._make(score_fields(line, line_no, source))


def post_day(post: Post, tz_offset_minutes: int = 0) -> date:
    """A post's calendar day; a fixed minute offset shifts the day boundary."""
    return (post.timestamp + timedelta(minutes=tz_offset_minutes)).date()


def post_record(post: Post) -> dict:
    """Documented wire fields of a post, ready for json.dumps."""
    return {
        "id": post.id,
        "created_at": post.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "text": post.text,
        "author_gender": post.author_gender.value,
        "author_followers": post.author_followers,
        "is_retweet": post.is_retweet,
    }


def serialize_post(post: Post) -> str:
    return json.dumps(post_record(post), ensure_ascii=False)


def filter_post(post: Post, cfg: FilterConfig) -> bool:
    """The keep rule of stream_posts: not an excluded retweet, and
    followers within the bounds, inclusive on both ends."""
    if cfg.exclude_retweets and post.is_retweet:
        return False
    return cfg.min_followers <= post.author_followers <= cfg.max_followers


def parse_timestamp(raw, line_no=None, source=None) -> datetime:
    """created_at by one path: normalize any ISO-8601 form to UTC, then
    keep only instants at least 24 h from either end of the calendar."""
    if not isinstance(raw, str):
        raise RecordError("created_at is not a string", line_no, source)
    s = raw.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(s)
    except ValueError:
        raise RecordError(f"unparseable created_at {raw!r}", line_no, source) from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    out_of_range = RecordError(f"created_at {raw!r} is out of range in UTC", line_no, source)
    try:
        ts = ts.astimezone(timezone.utc)
    except OverflowError:
        raise out_of_range from None
    naive = ts.replace(tzinfo=None)
    if naive - datetime.min < timedelta(days=1) or datetime.max - naive < timedelta(days=1):
        raise out_of_range
    return ts.replace(microsecond=0)


_STRIP_RE = re.compile(r"(?<!\w)(?:http|www)\S*|@\w+")
_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")


def regex_tokenize(text: str) -> list[str]:
    """tokenize by its regexes alone, with no plain-text shortcut: URLs
    and @-mentions out, curly apostrophes straight, '#' a separator, then
    every run of letters and digits, apostrophes kept inside; a token left
    starting with http or www is a URL glued to a word and goes too."""
    t = _STRIP_RE.sub(" ", text.lower().replace("’", "'")).replace("#", " ")
    return [tok for tok in _TOKEN_RE.findall(t) if not tok.startswith(("http", "www"))]


def matches_lexicon(tokens: Sequence[str], lexicon: Lexicon) -> bool:
    """True iff any token is an exact term or extends a prefix stem."""
    return any(
        tok in lexicon.exact_terms or any(tok.startswith(stem) for stem in lexicon.prefix_terms)
        for tok in tokens
    )


def matches_explicit_report(
    tokens: Sequence[str], templates: ReportTemplateSet, emotion: str
) -> bool:
    """True iff some template, instantiated with one of the emotion's
    adjectives, occurs in the tokens, with up to max_slot_gap filler tokens
    between the fixed prefix and the adjective."""
    if emotion not in templates.emotion_terms:
        raise LexiconError(f"unknown emotion {emotion!r}")
    tokens = list(tokens)
    for tpl in templates.templates:
        parts = tpl.split()
        slot = parts.index("_")
        prefix, suffix = parts[:slot], parts[slot + 1 :]
        for i in range(len(tokens)):
            if tokens[i : i + len(prefix)] != prefix:
                continue
            for gap in range(templates.max_slot_gap + 1):
                j = i + len(prefix) + gap
                if (
                    j < len(tokens)
                    and tokens[j] in templates.emotion_terms[emotion]
                    and tokens[j + 1 : j + 1 + len(suffix)] == suffix
                ):
                    return True
    return False


def daily_fraction(
    posts: Iterable[Post],
    predicate: Callable[[Post], bool],
    gender: str = "all",
    name: str = "signal",
    tz_offset_minutes: int = 0,
) -> DailySignal:
    """Per-day fraction of posts passing `predicate` within a gender stratum.

    gender="all" keeps every post, unknown gender included; "male" and
    "female" restrict numerator and denominator to that stratum. Days
    with no posts in the stratum are missing from the result.
    """
    if gender not in GENDER_STRATA:
        raise SignalError(f"unknown gender stratum {gender!r}; have {GENDER_STRATA}")
    acc: dict[date, list[int]] = {}
    for post in posts:
        if gender != "all" and post.author_gender.value != gender:
            continue
        row = acc.setdefault(post_day(post, tz_offset_minutes), [0, 0])
        row[1] += 1
        if predicate(post):
            row[0] += 1
    return DailySignal.from_counts(name, {d: (num, den) for d, (num, den) in acc.items()})


def lexicon_predicate(lexicon: Lexicon) -> Callable[[Post], bool]:
    return lambda post: matches_lexicon(tokenize(post.text), lexicon)


def pronoun_predicate() -> Callable[[Post], bool]:
    return lambda post: contains_third_person(tokenize(post.text))


def dcca_rho(window: int) -> Callable[[np.ndarray, np.ndarray], float]:
    """The literal dcca coefficient as a two-argument statistic."""
    return lambda x, y: dcca(x, y, window=window).rho


def loop_permutation_p(x, y, statistic):
    """Scalar oracle: one statistic(np.roll(x, k), y) call per circular
    shift k = 1..n-1 of x, with the tie rule of permutation_test; p =
    (1 + hits) / n."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    obs = abs(statistic(x, y))
    magnitude = obs
    if statistic is pearson:  # Pearson ties are measured against its terms
        xc, yc = x - x.mean(), y - y.mean()
        magnitude = np.abs(xc) @ np.abs(yc) / math.sqrt((xc @ xc) * (yc @ yc))
    bar = obs - 100 * np.finfo(float).eps * magnitude
    hits = 0
    for k in range(1, len(x)):
        hits += abs(statistic(np.roll(x, k), y)) >= bar
    return (1 + hits) / len(x)
