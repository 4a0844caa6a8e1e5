"""Literal reference implementations that tests compare the package's
fused, faster forms against."""

from __future__ import annotations

from datetime import date
from typing import Callable, Iterable, Sequence

from emoscope.corpus import Post
from emoscope.errors import LexiconError, SignalError
from emoscope.lexicon import Lexicon, PronounList, ReportTemplateSet, contains_third_person, tokenize
from emoscope.signals import GENDER_STRATA, DailySignal


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
        row = acc.setdefault(post.day(tz_offset_minutes), [0, 0])
        row[1] += 1
        if predicate(post):
            row[0] += 1
    return DailySignal.from_counts(name, {d: (num, den) for d, (num, den) in acc.items()})


def lexicon_predicate(lexicon: Lexicon) -> Callable[[Post], bool]:
    return lambda post: matches_lexicon(tokenize(post.text), lexicon)


def pronoun_predicate(pronouns: PronounList | None = None) -> Callable[[Post], bool]:
    return lambda post: contains_third_person(tokenize(post.text), pronouns)
