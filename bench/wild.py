"""The `scan-wild` corpus: realistic post text with planted per-post truth.

Every post is assembled from known pieces, so the benchmark knows, without
running emoscope, which posts are kept, which day and gender stratum each
lands in, which lexicons and explicit reports it matches and whether it
has a third-person pronoun. The pieces:

- filler words drawn from a Zipf law over >= 50k invented word types,
  none of which matches a lexicon, a report template or a pronoun;
- lexicon terms (sometimes capitalised or as hashtags), explicit report
  phrases for all 12 YouGov emotions (straight and curly apostrophes, an
  optional filler inside the slot gap) and near misses that must not count;
- URLs, @-mentions, hashtags, emoji, numbers, third-person pronouns and
  contractions that look like pronouns but are not;
- timestamps in `Z`, `+02:00` and fractional-second forms, bucketed with a
  nonzero `tz_offset_minutes`;
- truncated lines, retweets and out-of-bound follower counts;
- gzip input split over two files.

The lexicons are the demo ones that `emoscope synth` writes into the
workspace's `lexicons/` directory before the generator runs.

Each special piece sits between two filler words, so report templates can
never reach across pieces and the planted truth is exact.
"""

from __future__ import annotations

import gzip
import io
import json
import random
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

YOUGOV = ("happy", "sad", "scared", "bored", "stressed", "optimistic", "inspired",
          "frustrated", "lonely", "content", "energetic", "apathetic")
PRONOUNS = ("they", "them", "their", "he", "him", "his", "she", "her", "hers")
LEXICONS = ("sadness", "anxiety", "positive")
TZ_OFFSET_MINUTES = 330
START = date(2021, 3, 1)

_GAP_WORDS = ("so", "really", "very", "kinda")
_NEAR_MISS = ("i am not very {adj}", "i was {adj}", "feeling not so {adj}")
_LOOKALIKES = ("he’s", "she's", "they’re", "hes", "theyll")
_TEMPLATE_TOKENS = ("i", "am", "i'm", "feel", "feeling", "not", "was")
_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_EMOJI = ("\U0001F600", "\U0001F622", "\U0001F525", "❤️", "\U0001F389")


@dataclass(frozen=True)
class WildShape:
    days: int
    posts_per_day: int
    vocabulary: int


@dataclass
class WildTruth:
    """What emoscope must report for the generated workspace."""

    counts: dict[str, int] = field(default_factory=dict)
    # (signal, "male" | "female") -> {iso day: (numerator, denominator)}
    daily: dict[tuple[str, str], dict[str, tuple[int, int]]] = field(default_factory=dict)
    # label -> (with_k, with_n, without_k, without_n); "all_posts" -> (k, n, 0, 0)
    thirdperson: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)


def read_lexicon(path) -> tuple[set[str], tuple[str, ...]]:
    """Exact terms and prefix stems of a lexicon file (the oracle's copy)."""
    exact: set[str] = set()
    stems: list[str] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        term = raw.strip().lower()
        if not term or term.startswith("#"):
            continue
        if term.endswith("*"):
            stems.append(term[:-1])
        else:
            exact.add(term)
    return exact, tuple(stems)


class _Oracle:
    """Token-level truth for the handful of non-filler tokens in a post."""

    def __init__(self, lexicons):
        self.lexicons = lexicons  # list of (exact, stems)
        self._cache: dict[str, int] = {}

    def lexicon_mask(self, token: str) -> int:
        mask = self._cache.get(token)
        if mask is None:
            mask = 0
            for bit, (exact, stems) in enumerate(self.lexicons):
                if token in exact or token.startswith(stems):
                    mask |= 1 << bit
            self._cache[token] = mask
        return mask


def _vocabulary(rng: np.random.Generator, size: int, oracle: _Oracle) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    forbidden = set(YOUGOV) | set(PRONOUNS) | set(_GAP_WORDS) | set(_TEMPLATE_TOKENS)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        lengths = rng.integers(2, 5, size=size)
        picks = rng.integers(0, len(syllables), size=(size, 4))
        for n, row in zip(lengths.tolist(), picks.tolist()):
            word = "".join(syllables[i] for i in row[:n])
            if word in seen or word in forbidden or word.startswith(("http", "www")):
                continue
            if oracle.lexicon_mask(word):
                continue
            seen.add(word)
            words.append(word)
            if len(words) == size:
                break
    return words


def _styled(rnd: random.Random, word: str) -> str:
    r = rnd.random()
    if r < 0.08:
        return word.capitalize()
    if r < 0.10:
        return word.upper()
    return word


def _timestamp(rnd: random.Random, day: date) -> str:
    local = datetime(day.year, day.month, day.day, tzinfo=timezone.utc) + timedelta(
        seconds=rnd.randrange(86_400))
    utc = local - timedelta(minutes=TZ_OFFSET_MINUTES)
    form = rnd.random()
    if form < 0.5:
        return utc.strftime("%Y-%m-%dT%H:%M:%SZ")
    if form < 0.8:
        return (utc + timedelta(hours=2)).strftime("%Y-%m-%dT%H:%M:%S+02:00")
    frac = f".{rnd.randrange(1000):03d}" if form < 0.9 else f".{rnd.randrange(10**6):06d}"
    if rnd.random() < 0.5:
        return utc.strftime("%Y-%m-%dT%H:%M:%S") + frac + "Z"
    return (utc + timedelta(hours=2)).strftime("%Y-%m-%dT%H:%M:%S") + frac + "+02:00"


def _report_phrase(rnd: random.Random, emotion: str) -> tuple[str, bool]:
    """One explicit-report piece and whether the default templates match it."""
    if rnd.random() < 0.25:
        return rnd.choice(_NEAR_MISS).format(adj=emotion), False
    form = rnd.randrange(4)
    gap = f"{rnd.choice(_GAP_WORDS)} " if rnd.random() < 0.3 else ""
    if form == 0:
        head = "I am" if rnd.random() < 0.5 else "i am"
    elif form == 1:
        head = "I’m" if rnd.random() < 0.5 else "i'm"
    elif form == 2:
        head = "i feel"
    else:
        head = "Feeling" if rnd.random() < 0.3 else "feeling"
    return f"{head} {gap}{emotion}", True


def _write_gzip_lines(path: Path, lines: list[str]) -> None:
    with open(path, "wb") as raw:
        # mtime=0 keeps the bytes a function of the seed alone
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0, compresslevel=6) as gz:
            with io.TextIOWrapper(gz, encoding="utf-8", newline="\n") as out:
                out.writelines(lines)


_PIPELINE_INI = """\
[corpus]
input = corpus-*.ndjson.gz
min_followers = 100
max_followers = 100000
exclude_retweets = true
tz_offset_minutes = {tz}

[lexicons]
{lexicons}

[reports]
emotions = {emotions}

[signals]
gender_mode = stratified

[output]
dir = out
"""

def generate(ws: Path, seed: int, shape: WildShape) -> WildTruth:
    """Write the scan-wild corpus and config into ws, whose lexicons/ holds
    the demo lexicons, and return the planted truth."""
    lexicons = [read_lexicon(ws / "lexicons" / f"{name}.txt") for name in LEXICONS]
    oracle = _Oracle(lexicons)
    rng = np.random.default_rng([seed, 7])
    rnd = random.Random(seed * 1_000_003 + 11)

    vocab = _vocabulary(rng, shape.vocabulary, oracle)
    ranks = np.arange(1, len(vocab) + 1, dtype=float)
    cdf = np.cumsum(1.0 / ranks ** 1.05)
    cdf /= cdf[-1]
    term_pools = []
    for exact, stems in lexicons:
        pool = sorted(exact) + [s + suffix for s in stems for suffix in ("ing", "ed", "s")]
        term_pools.append(pool)
    lexicon_rates = (0.05, 0.06, 0.10)

    signals = list(LEXICONS) + [f"report_{e}" for e in YOUGOV]
    n_lex = len(LEXICONS)
    report_bit = {e: n_lex + i for i, e in enumerate(YOUGOV)}
    pronoun_set = set(PRONOUNS)
    # per stratum and day: [denominator, numerator per signal...]
    table: dict[tuple[str, int], list[int]] = {}
    third = [[0, 0, 0, 0] for _ in LEXICONS]
    base_k = base_n = 0
    counts = {"records": 0, "malformed": 0, "filtered": 0, "kept": 0}

    files: list[list[str]] = [[], []]
    half = shape.days // 2
    post_no = 0
    for day_idx in range(shape.days):
        day = START + timedelta(days=day_idx)
        per_day = shape.posts_per_day
        n_fill = rng.integers(6, 21, size=per_day)
        fill_idx = np.searchsorted(cdf, rng.random(int(n_fill.sum()))).tolist()
        cursor = 0
        for i in range(per_day):
            m = int(n_fill[i])
            fillers = [vocab[j] for j in fill_idx[cursor:cursor + m]]
            cursor += m
            pieces: list[str] = []
            mask = 0
            pronoun = False
            for bit, pool in enumerate(term_pools):
                if rnd.random() < lexicon_rates[bit]:
                    term = rnd.choice(pool)
                    mask |= oracle.lexicon_mask(term)
                    pieces.append(f"#{term}" if rnd.random() < 0.1 else _styled(rnd, term))
            if rnd.random() < 0.12:
                emotion = rnd.choice(YOUGOV)
                phrase, counts_as_report = _report_phrase(rnd, emotion)
                if counts_as_report:
                    mask |= 1 << report_bit[emotion]
                mask |= oracle.lexicon_mask(emotion)
                pieces.append(phrase)
            if rnd.random() < 0.2:
                pronoun = True
                pieces.append(_styled(rnd, rnd.choice(PRONOUNS)))
            if rnd.random() < 0.05:
                pieces.append(rnd.choice(_LOOKALIKES))
            if rnd.random() < 0.15:
                pieces.append(rnd.choice((
                    f"https://t.co/{rnd.getrandbits(40):010x}",
                    f"http://{rnd.choice(vocab)}.example.org/{rnd.choice(vocab)}?ref={rnd.randrange(999)}",
                    f"www.{rnd.choice(vocab)}.com",
                )))
            if rnd.random() < 0.15:
                pieces.append(f"@{rnd.choice(vocab)}_{rnd.randrange(100)}")
            if rnd.random() < 0.10:
                pieces.append(f"#{rnd.choice(vocab)}")
            if rnd.random() < 0.08:
                pieces.append(rnd.choice(_EMOJI))
            if rnd.random() < 0.04:
                pieces.append(str(rnd.randrange(1, 3000)))
            if rnd.random() < 0.05:
                pieces.append(f"{rnd.choice(vocab)}’s")
            while len(fillers) < len(pieces) + 1:
                fillers.append(vocab[int(np.searchsorted(cdf, rnd.random()))])
            slots = set(rnd.sample(range(len(fillers) - 1), len(pieces)))
            words: list[str] = []
            it = iter(pieces)
            for k, word in enumerate(fillers):
                words.append(word)
                if k in slots:
                    words.append(next(it))
            text = " ".join(words)

            r = rnd.random()
            gender_value = ("male" if r < 0.55 else "female" if r < 0.93
                            else rnd.choice((None, "unknown", "nonbinary")))
            r = rnd.random()
            if r < 0.005:
                followers = rnd.randrange(0, 100)
            elif r < 0.01:
                followers = rnd.randrange(100_001, 2_000_000)
            elif r < 0.02:
                followers = rnd.choice((100, 100_000))
            else:
                followers = rnd.randrange(100, 100_001)
            retweet = rnd.random() < 0.01
            rec = {"id": post_no if rnd.random() < 0.05 else f"w{seed}_{post_no}",
                   "created_at": _timestamp(rnd, day), "text": text}
            if gender_value is not None:
                rec["author_gender"] = gender_value
            rec["author_followers"] = float(followers) if rnd.random() < 0.01 else followers
            if retweet or rnd.random() < 0.7:
                rec["is_retweet"] = retweet
            line = json.dumps(rec, ensure_ascii=False, separators=(",", ":"))
            post_no += 1
            counts["records"] += 1
            if rnd.random() < 0.01:
                files[day_idx >= half].append(line[: rnd.randrange(10, len(line) - 1)] + "\n")
                counts["malformed"] += 1
                continue
            files[day_idx >= half].append(line + "\n")
            if retweet or not 100 <= followers <= 100_000:
                counts["filtered"] += 1
                continue
            counts["kept"] += 1

            # the config's stratified mode writes male and female tables only
            if gender_value in ("male", "female"):
                row = table.get((gender_value, day_idx))
                if row is None:
                    row = table[(gender_value, day_idx)] = [0] * (1 + len(signals))
                row[0] += 1
                bits = mask
                while bits:
                    low = bits & -bits
                    bits ^= low
                    row[low.bit_length()] += 1
            base_n += 1
            base_k += pronoun
            for bit in range(n_lex):
                cell = third[bit]
                if mask >> bit & 1:
                    cell[1] += 1
                    cell[0] += pronoun
                else:
                    cell[3] += 1
                    cell[2] += pronoun

    for k, lines in enumerate(files):
        _write_gzip_lines(ws / f"corpus-{k}.ndjson.gz", lines)

    truth = WildTruth(counts=counts)
    counts["parsed"] = counts["records"] - counts["malformed"]
    for (stratum, day_idx), row in table.items():
        iso = (START + timedelta(days=day_idx)).isoformat()
        for s, name in enumerate(signals):
            truth.daily.setdefault((name, stratum), {})[iso] = (row[1 + s], row[0])
    truth.thirdperson["all_posts"] = (base_k, base_n, 0, 0)
    for bit, name in enumerate(LEXICONS):
        truth.thirdperson[name] = tuple(third[bit])

    (ws / "pipeline.ini").write_text(_PIPELINE_INI.format(
        tz=TZ_OFFSET_MINUTES,
        lexicons="\n".join(f"{n} = lexicons/{n}.txt" for n in LEXICONS),
        emotions=" ".join(YOUGOV),
    ), encoding="utf-8")
    return truth
