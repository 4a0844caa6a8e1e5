"""Tokenization and the matcher families used to classify post text.

Three matcher kinds live here: term lexicons (exact tokens plus prefix
stems), first-person emotion report templates ("i am sad"), and
third-person pronoun lookup. None of them handle negation or scope.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import read_text
from .errors import LexiconError

_STRIP_RE = re.compile(r"(?<!\w)(?:http|www)\S*|@\w+")
_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens with apostrophes kept inside tokens.

    URLs (anything starting http/www) and @-mentions are dropped; '#' is
    stripped so hashtag bodies count as ordinary tokens.
    """
    t = text.lower()
    if "’" in t:
        t = t.replace("’", "'")
    dirty = "http" in t or "www" in t
    if dirty or "@" in t:
        t = _STRIP_RE.sub(" ", t)
    if "#" in t:
        t = t.replace("#", " ")
    tokens = _TOKEN_RE.findall(t)
    if dirty:
        # a URL glued to a word character survives the span regex; its
        # tokens still start with the scheme, so drop them here
        tokens = [tok for tok in tokens if not tok.startswith(("http", "www"))]
    return tokens


def _check_term(term: str, what: str, stem: bool = False, where: str = "") -> None:
    """Refuse a term that no token of `tokenize` can equal or, for a prefix
    stem, start with: one the tokenizer would split, drop or rewrite, as it
    does "self-harm", "don’t" and "https". `where` ("file:line: ") starts
    the error."""
    if not term:
        raise LexiconError(f"{where}empty {what}")
    probe = term + "a" if stem else term
    tokens = tokenize(probe)
    if tokens != [probe]:
        raise LexiconError(
            f"{where}{what} {term!r} can never match: the tokenizer reads {probe!r} as {tokens}"
        )


@dataclass(frozen=True)
class Lexicon:
    """A named term list: exact whole tokens plus prefix stems.

    A token matches if it equals an exact term or starts with a prefix
    stem ("cry" covers crying, cried, ...). Every term is a token that
    `tokenize` can produce, and every stem followed by a letter is one;
    matching is token-level only, never substring.
    """

    name: str
    exact_terms: frozenset[str]
    prefix_terms: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.name:
            raise LexiconError("lexicon name must be non-empty")
        if not self.exact_terms and not self.prefix_terms:
            raise LexiconError(f"lexicon {self.name!r} has no terms")
        for term in self.exact_terms:
            _check_term(term, "term")
        for stem in self.prefix_terms:
            _check_term(stem, "prefix stem", stem=True)

    def __len__(self) -> int:
        return len(self.exact_terms) + len(self.prefix_terms)


def load_lexicon(path, name: str | None = None) -> Lexicon:
    """Load a lexicon file: one term per line, '#' comments, trailing '*' = prefix stem."""
    path = Path(path)
    exact: set[str] = set()
    prefix: set[str] = set()
    with io.StringIO(read_text(path), newline=None) as fh:  # newlines as a text-mode file reads them
        for line_no, raw in enumerate(fh, 1):
            term = raw.strip()
            if not term or term.startswith("#"):
                continue
            if any(ch.isspace() for ch in term):
                raise LexiconError(f"{path}:{line_no}: multi-word entry {term!r}")
            term = term.lower()
            if term.endswith("*"):
                stem = term[:-1]
                if not stem:
                    raise LexiconError(f"{path}:{line_no}: bare wildcard")
                if "*" in stem:
                    raise LexiconError(f"{path}:{line_no}: '*' only allowed at the end: {term!r}")
                _check_term(stem, "prefix stem", stem=True, where=f"{path}:{line_no}: ")
                prefix.add(stem)
            else:
                if "*" in term:
                    raise LexiconError(f"{path}:{line_no}: '*' only allowed at the end: {term!r}")
                _check_term(term, "term", where=f"{path}:{line_no}: ")
                exact.add(term)
    if not exact and not prefix:
        raise LexiconError(f"{path}: no terms found")
    return Lexicon(name=name or path.stem, exact_terms=frozenset(exact), prefix_terms=frozenset(prefix))


# Most tokens of a corpus repeat an earlier one. Each matcher remembers the
# mask of up to this many distinct tokens; once full it evicts nothing.
MATCH_MEMO_SIZE = 1 << 16


class MultiLexiconMatcher:
    """Single-pass matcher for several lexicons at once.

    Exact terms share one hash map from token to lexicon bitmask; prefix
    stems are bucketed by stem length. A new token then costs one exact
    lookup plus one lookup per distinct stem length, independent of the
    number of lexicons, and a token seen before costs one lookup in a memo
    of at most MATCH_MEMO_SIZE tokens. Per lexicon it agrees with the
    literal reference `matches_lexicon` in tests/oracles.py.
    """

    def __init__(self, lexicons: Sequence[Lexicon]):
        names = [lex.name for lex in lexicons]
        if len(set(names)) != len(names):
            raise LexiconError(f"duplicate lexicon names: {names}")
        self.names: tuple[str, ...] = tuple(names)
        exact: dict[str, int] = {}
        by_len: dict[int, dict[str, int]] = {}
        for bit, lex in enumerate(lexicons):
            mask = 1 << bit
            for term in lex.exact_terms:
                exact[term] = exact.get(term, 0) | mask
            for stem in lex.prefix_terms:
                bucket = by_len.setdefault(len(stem), {})
                bucket[stem] = bucket.get(stem, 0) | mask
        self._exact = exact
        self._prefixes = tuple(sorted(by_len.items()))
        self._full = (1 << len(names)) - 1
        self._memo: dict[str, int] = {}

    def _token_mask(self, tok: str) -> int:
        mask = self._exact.get(tok, 0)
        for n, bucket in self._prefixes:
            if n <= len(tok):
                mask |= bucket.get(tok[:n], 0)
        return mask

    def match_mask(self, tokens: Sequence[str]) -> int:
        """Bitmask of matched lexicons; bit i corresponds to names[i]."""
        mask = 0
        memo = self._memo
        full = self._full
        for tok in tokens:
            hit = memo.get(tok)
            if hit is None:
                hit = self._token_mask(tok)
                if len(memo) < MATCH_MEMO_SIZE:
                    memo[tok] = hit
            mask |= hit
            if mask == full:
                return mask
        return mask

    def match(self, tokens: Sequence[str]) -> set[str]:
        mask = self.match_mask(tokens)
        return {name for bit, name in enumerate(self.names) if mask >> bit & 1}


YOUGOV_EMOTIONS = (
    "happy",
    "sad",
    "scared",
    "bored",
    "stressed",
    "optimistic",
    "inspired",
    "frustrated",
    "lonely",
    "content",
    "energetic",
    "apathetic",
)

DEFAULT_TEMPLATES = ("i am _", "i'm _", "i feel _", "feeling _")


def _default_emotion_terms() -> dict[str, tuple[str, ...]]:
    return {name: (name,) for name in YOUGOV_EMOTIONS}


@dataclass(frozen=True)
class ReportTemplateSet:
    """First-person report patterns with a single adjective slot.

    A template is a space-separated token pattern with exactly one '_'
    slot. The slot accepts the adjective up to max_slot_gap tokens after
    the fixed prefix, so "i am not sad" and "i'm so sad" both count as
    sadness reports (no negation handling); gap 0 demands adjacency.
    """

    templates: tuple[str, ...] = DEFAULT_TEMPLATES
    emotion_terms: Mapping[str, tuple[str, ...]] = field(default_factory=_default_emotion_terms)
    max_slot_gap: int = 1

    def __post_init__(self):
        if not self.templates:
            raise LexiconError("at least one template required")
        for tpl in self.templates:
            parts = tpl.split()
            if parts.count("_") != 1:
                raise LexiconError(f"template must contain exactly one '_' slot: {tpl!r}")
            for part in parts:
                if part != "_":
                    _check_term(part, "template token")
        if self.max_slot_gap < 0:
            raise LexiconError("max_slot_gap must be >= 0")
        if not self.emotion_terms:
            raise LexiconError("at least one emotion required")
        for emotion, adjectives in self.emotion_terms.items():
            if not adjectives:
                raise LexiconError(f"emotion {emotion!r} has no adjectives")
            for adj in adjectives:
                _check_term(adj, "adjective")


class ExplicitReportMatcher:
    """Evaluates the report templates of each of `emotions` in one scan.

    Templates sharing a (prefix, suffix) shape are merged into a single
    adjective table, and the tables are indexed by the first token of their
    prefix, so a post is only searched where some prefix starts; a post
    holding no such token costs one set test. A template with an empty
    prefix can match anywhere and is searched at every position.
    """

    def __init__(self, templates: ReportTemplateSet, emotions: Sequence[str]):
        unknown = [e for e in emotions if e not in templates.emotion_terms]
        if unknown:
            raise LexiconError(
                f"unknown emotions {unknown}; template set has {sorted(templates.emotion_terms)}"
            )
        self.emotions: tuple[str, ...] = tuple(emotions)
        self.gap = templates.max_slot_gap
        groups: dict[tuple[tuple[str, ...], tuple[str, ...]], dict[str, set[str]]] = {}
        for emotion in self.emotions:
            for tpl in templates.templates:
                parts = tpl.split()
                slot = parts.index("_")
                key = (tuple(parts[:slot]), tuple(parts[slot + 1 :]))
                adjmap = groups.setdefault(key, {})
                for adj in templates.emotion_terms[emotion]:
                    adjmap.setdefault(adj, set()).add(emotion)
        self._by_start: dict[str, list[tuple[tuple[str, ...], tuple[str, ...], dict]]] = {}
        self._anywhere: list[tuple[tuple[str, ...], dict]] = []  # empty prefixes
        for (pre, suf), adjmap in groups.items():
            if pre:
                self._by_start.setdefault(pre[0], []).append((pre, suf, adjmap))
            else:
                self._anywhere.append((suf, adjmap))
        self._starts = frozenset(self._by_start)

    def match(self, tokens: Sequence[str]) -> set[str]:
        found: set[str] = set()
        n = len(tokens)
        for suffix, adjmap in self._anywhere:
            s = len(suffix)
            for j in range(n - s):
                emos = adjmap.get(tokens[j])
                if emos and tuple(tokens[j + 1 : j + 1 + s]) == suffix:
                    found |= emos
        if self._starts.isdisjoint(tokens):
            return found
        gap = self.gap
        for i, tok in enumerate(tokens):
            for prefix, suffix, adjmap in self._by_start.get(tok, ()):
                p, s = len(prefix), len(suffix)
                if p > 1 and tuple(tokens[i : i + p]) != prefix:
                    continue
                for j in range(i + p, min(i + p + gap, n - 1 - s) + 1):
                    emos = adjmap.get(tokens[j])
                    if emos and tuple(tokens[j + 1 : j + 1 + s]) == suffix:
                        found |= emos
        return found


THIRD_PERSON_PRONOUNS = frozenset(
    {"they", "them", "their", "he", "him", "his", "she", "her", "hers"}
)


def contains_third_person(tokens: Sequence[str]) -> bool:
    """True iff any token is one of THIRD_PERSON_PRONOUNS (exact token match)."""
    return not THIRD_PERSON_PRONOUNS.isdisjoint(tokens)


DEMO_LEXICON_NAMES = ("sadness", "anxiety", "positive")


def demo_lexicon(name: str) -> Lexicon:
    """One of the bundled demo lexicons (small stand-ins for proprietary lists)."""
    if name not in DEMO_LEXICON_NAMES:
        raise LexiconError(f"no demo lexicon {name!r}; have {DEMO_LEXICON_NAMES}")
    ref = resources.files("emoscope") / "data" / f"{name}.txt"
    with resources.as_file(ref) as path:
        return load_lexicon(path, name=name)
