"""Synthetic corpora, surveys, and score files with planted ground truth.

Everything here is deterministic for a fixed config: the same seed
produces byte-identical output files, which is what makes the end-to-end
recovery checks meaningful.
"""

from __future__ import annotations

import gzip
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ConfigError, writing
from .lexicon import (
    DEMO_LEXICON_NAMES,
    MultiLexiconMatcher,
    THIRD_PERSON_PRONOUNS,
    demo_lexicon,
)
from .signals import write_csv

if TYPE_CHECKING:
    import numpy as np

_FILLER = (
    "morning",
    "coffee",
    "train",
    "weather",
    "weekend",
    "project",
    "garden",
    "dinner",
    "cycling",
    "meeting",
    "playlist",
    "novel",
    "recipe",
    "painting",
    "marathon",
    "puzzle",
    "holiday",
    "picnic",
    "museum",
    "kitchen",
)

PRONOUN_CHOICES = tuple(sorted(THIRD_PERSON_PRONOUNS))

# numpy takes array sizes and binomial trial counts as 64-bit integers
_MAX_COUNT = 2**63 - 1


def check_count(label: str, value: int, low: int, high: int | None = _MAX_COUNT) -> None:
    """Refuse a count or seed below `low` or above `high` (None: no bound)."""
    if value < low:
        raise ConfigError(f"{label} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{label} must be <= {high}, got {value}")


def check_noise(label: str, sd: float) -> None:
    """Refuse a noise standard deviation that is negative, NaN or infinite."""
    if not 0.0 <= sd < math.inf:
        raise ConfigError(f"{label} must be finite and >= 0, got {sd}")


def _default_prevalence() -> dict[str, tuple[float, float]]:
    return {
        "sadness": (0.040, 0.060),
        "anxiety": (0.050, 0.050),
        "positive": (0.090, 0.110),
    }


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic corpus generator.

    `prevalence` maps emotion -> (male base, female base) daily match
    rates; a shared per-emotion latent mood (tanh-bounded AR(1)) moves
    each rate by at most `amplitude`, so base +- amplitude must stay
    strictly inside (0, 1). `step_changes` entries (emotion, day index,
    shift) add a level shift to both genders from that day on. Each
    emotion's terms are those of its demo lexicon.
    """

    days: int = 120
    posts_per_day: int = 1000
    seed: int = 1
    start: date = date(2020, 6, 1)
    male_share: float = 0.639
    prevalence: Mapping[str, tuple[float, float]] = field(default_factory=_default_prevalence)
    phi: float = 0.9
    amplitude: float = 0.02
    decoy_fraction: float = 0.0
    pronoun_rate: float = 0.15
    pronoun_rate_emotional: float | None = None
    step_changes: tuple[tuple[str, int, float], ...] = ()

    def emotions(self) -> tuple[str, ...]:
        return tuple(self.prevalence)

    def validate(self) -> None:
        check_count("days", self.days, 1, high=None)
        if self.days > (date.max - self.start).days + 1:
            raise ConfigError(f"days: {self.days} days from {self.start} run past {date.max}")
        check_count("posts_per_day", self.posts_per_day, 1)
        check_count("days * posts_per_day", self.days * self.posts_per_day, 1)
        check_count("seed", self.seed, 0, high=None)
        if not 0.0 < self.male_share < 1.0:
            raise ConfigError(f"male_share must be in (0,1), got {self.male_share}")
        if not -1.0 < self.phi < 1.0:
            raise ConfigError(f"phi must be in (-1,1), got {self.phi}")
        if self.amplitude < 0.0:
            raise ConfigError(f"amplitude must be >= 0, got {self.amplitude}")
        if not 0.0 <= self.decoy_fraction < 1.0:
            raise ConfigError(f"decoy_fraction must be in [0,1), got {self.decoy_fraction}")
        for label, rate in (("pronoun_rate", self.pronoun_rate),
                            ("pronoun_rate_emotional", self.pronoun_rate_emotional)):
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{label} must be in [0,1], got {rate}")
        if not self.prevalence:
            raise ConfigError("at least one emotion required")
        for emotion, bases in self.prevalence.items():
            if len(bases) != 2:
                raise ConfigError(f"{emotion}: prevalence must be (male, female)")
            for gender, base in zip(("male", "female"), bases):
                if not (0.0 < base - self.amplitude and base + self.amplitude < 1.0):
                    raise ConfigError(
                        f"{emotion}/{gender}: base {base} with amplitude "
                        f"{self.amplitude} leaves (0, 1)"
                    )
        for emotion, day_idx, _shift in self.step_changes:
            if emotion not in self.prevalence:
                raise ConfigError(f"step change for unknown emotion {emotion!r}")
            if not 0 <= day_idx < self.days:
                raise ConfigError(f"step change day {day_idx} outside [0, {self.days})")
        unknown = [e for e in self.prevalence if e not in DEMO_LEXICON_NAMES]
        if unknown:
            raise ConfigError(f"emotions {unknown} have no demo lexicon; use {DEMO_LEXICON_NAMES}")


@dataclass
class GroundTruth:
    """Planted daily prevalences per gender and the derived population truth."""

    start: date
    days: int
    emotions: tuple[str, ...]
    male: dict[str, np.ndarray]
    female: dict[str, np.ndarray]

    def population(self, emotion: str) -> np.ndarray:
        """Equal-weight mean of the per-gender prevalences."""
        return 0.5 * (self.male[emotion] + self.female[emotion])

    def dates(self) -> list[date]:
        return [self.start + timedelta(days=i) for i in range(self.days)]

    def day_index(self, day: date) -> int:
        idx = (day - self.start).days
        if not 0 <= idx < self.days:
            raise ConfigError(f"{day} outside generated range")
        return idx

    def weekly_population(self, anchors: Sequence[date]) -> dict[str, np.ndarray]:
        """7-day window means of the population truth ending at each anchor
        (window clipped at the start of the generated range)."""
        import numpy as np

        idxs = [self.day_index(a) for a in anchors]
        out: dict[str, np.ndarray] = {}
        for emotion in self.emotions:
            pop = self.population(emotion)
            out[emotion] = np.array(
                [pop[max(0, i - 6) : i + 1].mean() for i in idxs]
            )
        return out

    def write_csv(self, path) -> None:
        series = {e: (self.male[e], self.female[e], self.population(e)) for e in self.emotions}
        write_csv(path, ["date", "emotion", "male", "female", "population"], (
            [day.isoformat(), emotion, *(repr(float(values[i])) for values in series[emotion])]
            for i, day in enumerate(self.dates())
            for emotion in self.emotions
        ))


def planted_truth(cfg: SynthConfig, rng: np.random.Generator | None = None) -> GroundTruth:
    """The truth generate_corpus plants: the first draws of `rng`, by default
    a new generator of cfg.seed. ConfigError where a rate leaves (0, 1)."""
    import numpy as np

    rng = rng or np.random.default_rng(cfg.seed)

    male: dict[str, np.ndarray] = {}
    female: dict[str, np.ndarray] = {}
    innovation_sd = math.sqrt(1.0 - cfg.phi * cfg.phi)  # unit stationary variance
    for emotion, (base_m, base_f) in cfg.prevalence.items():
        z = np.empty(cfg.days)
        z[0] = rng.normal(0.0, 1.0)
        shocks = rng.normal(0.0, innovation_sd, size=cfg.days - 1)
        for i in range(1, cfg.days):
            z[i] = cfg.phi * z[i - 1] + shocks[i - 1]
        mood = cfg.amplitude * np.tanh(z)
        male[emotion] = base_m + mood
        female[emotion] = base_f + mood
    for emotion, day_idx, shift in cfg.step_changes:
        male[emotion][day_idx:] += shift
        female[emotion][day_idx:] += shift
    for emotion in cfg.prevalence:
        for arr in (male[emotion], female[emotion]):
            if not np.all((arr > 0.0) & (arr < 1.0)):
                raise ConfigError(f"{emotion}: planted prevalence leaves (0, 1)")
    return GroundTruth(
        start=cfg.start,
        days=cfg.days,
        emotions=cfg.emotions(),
        male=male,
        female=female,
    )


def _term_pools(cfg: SynthConfig) -> dict[str, tuple[str, ...]]:
    """Each emotion's words: its demo lexicon's exact terms and its stems
    plus "ing", all of them single tokens (see lexicon._check_term)."""
    pools = {}
    for emotion in cfg.prevalence:
        lex = demo_lexicon(emotion)
        pools[emotion] = tuple(sorted(lex.exact_terms)) + tuple(
            stem + "ing" for stem in sorted(lex.prefix_terms)
        )
    return pools


def _check_vocabulary(cfg: SynthConfig, pools: Mapping[str, Sequence[str]]) -> None:
    """The planted rates are only exact if every word lands in precisely
    the intended lexicon, so refuse vocabularies with cross-matches."""
    matcher = MultiLexiconMatcher([demo_lexicon(e) for e in cfg.prevalence])
    for word in _FILLER + PRONOUN_CHOICES:
        hit = matcher.match([word])
        if hit:
            raise ConfigError(f"filler word {word!r} matches lexicons {sorted(hit)}")
    for emotion, pool in pools.items():
        for term in pool:
            hit = matcher.match([term])
            if hit != {emotion}:
                raise ConfigError(f"term {term!r} matches {sorted(hit)}, expected only {emotion}")


@contextmanager
def _open_text_out(path):
    p = str(path)
    if p.endswith(".gz"):
        # mtime=0 keeps gzip output byte-identical across runs
        with writing(p), open(p, "wb") as raw:
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
                with io.TextIOWrapper(gz, encoding="utf-8", newline="\n") as out:
                    yield out
    else:
        with writing(p), open(p, "w", encoding="utf-8", newline="\n") as out:
            yield out


def generate_corpus(cfg: SynthConfig, corpus_path, truth_path=None) -> GroundTruth:
    """Write an NDJSON corpus with planted per-day match rates.

    Emotion terms are injected per post by per-gender Bernoulli draws at
    the planted rate; a decoy_fraction of posts gets out-of-range
    follower counts so the default filter drops exactly that many.
    Returns the ground truth (also written to truth_path if given).
    """
    import numpy as np

    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    truth = planted_truth(cfg, rng)
    pools = _term_pools(cfg)
    _check_vocabulary(cfg, pools)
    emotions = truth.emotions

    total = cfg.days * cfg.posts_per_day
    decoy_flags = np.zeros(total, dtype=bool)
    n_decoys = int(round(cfg.decoy_fraction * total))
    if n_decoys:
        decoy_flags[rng.choice(total, size=n_decoys, replace=False)] = True
    pron_rate_emotional = (
        cfg.pronoun_rate_emotional if cfg.pronoun_rate_emotional is not None else cfg.pronoun_rate
    )

    n_filler = len(_FILLER)
    n_pron = len(PRONOUN_CHOICES)
    p = cfg.posts_per_day
    term_pools = [pools[e] for e in emotions]
    with _open_text_out(corpus_path) as out:
        for day_idx in range(cfg.days):
            base = day_idx * p
            is_male = rng.random(p) < cfg.male_share
            match = [
                rng.random(p) < np.where(is_male, truth.male[e][day_idx], truth.female[e][day_idx])
                for e in emotions
            ]
            any_match = np.logical_or.reduce(match)
            pron = rng.random(p) < np.where(any_match, pron_rate_emotional, cfg.pronoun_rate)
            followers = rng.integers(100, 100_001, size=p)
            decoy_low = rng.random(p) < 0.5
            low_vals = rng.integers(0, 100, size=p)
            high_vals = rng.integers(100_001, 1_000_001, size=p)
            seconds = rng.integers(0, 86_400, size=p)
            word_counts = rng.integers(2, 6, size=p)
            filler_idx = rng.integers(0, n_filler, size=(p, 5))
            term_idx = [rng.integers(0, len(pool), size=p) for pool in term_pools]
            pron_idx = rng.integers(0, n_pron, size=p)

            day = np.datetime64(cfg.start + timedelta(days=day_idx), "s")
            stamps = np.datetime_as_string(day + seconds.astype("timedelta64[s]"), unit="s")
            fol = np.where(decoy_flags[base : base + p],
                           np.where(decoy_low, low_vals, high_vals), followers)
            # -1: the post gets no term of that emotion, or no pronoun
            terms = zip(*(np.where(m, t, -1).tolist() for m, t in zip(match, term_idx)))
            pronouns = np.where(pron, pron_idx, -1).tolist()
            lines = []
            for i, fill, n, picks, j, stamp, male, f in zip(
                range(base, base + p), filler_idx.tolist(), word_counts.tolist(), terms,
                pronouns, stamps.tolist(), is_male.tolist(), fol.tolist(),
            ):
                words = [_FILLER[k] for k in fill[:n]]
                words += [pool[t] for pool, t in zip(term_pools, picks) if t >= 0]
                if j >= 0:
                    words.append(PRONOUN_CHOICES[j])
                lines.append(
                    f'{{"id":"p{i}","created_at":"{stamp}Z","text":"{" ".join(words)}",'
                    f'"author_gender":"{"male" if male else "female"}","author_followers":{f},'
                    f'"is_retweet":false}}\n'
                )
            out.write("".join(lines))
    if truth_path is not None:
        truth.write_csv(truth_path)
    return truth


def weekly_anchors(start: date, days: int) -> list[date]:
    """Anchor dates every 7 days, the first at the end of the first full
    week so every window is complete."""
    if days < 7:
        raise ConfigError("need at least 7 days for one anchor")
    return [start + timedelta(days=i) for i in range(6, days, 7)]


def generate_survey(
    truth: GroundTruth, anchors: Sequence[date], path, respondents: int = 2000, seed: int = 0
) -> None:
    """Write a long-form survey CSV sampled from the planted truth, one row
    per anchor and emotion of the truth.

    Each percent is a binomial draw (respondents trials) around the 7-day
    window mean of the population prevalence; respondents=0 writes the
    noise-free percent instead.
    """
    import numpy as np

    check_count("respondents", respondents, 0)
    check_count("seed", seed, 0, high=None)
    anchors = list(anchors)
    if anchors != sorted(set(anchors)):
        raise ConfigError("anchors must be strictly increasing")
    weekly = truth.weekly_population(anchors)
    rng = np.random.default_rng(seed)

    def percent(p_true: float) -> float:
        if respondents > 0:
            return 100.0 * rng.binomial(respondents, p_true) / respondents
        return 100.0 * p_true

    write_csv(path, ["date", "emotion", "percent"], (
        [anchor.isoformat(), emotion, f"{percent(float(weekly[emotion][k])):.10g}"]
        for k, anchor in enumerate(anchors)
        for emotion in truth.emotions
    ))


def generate_scores(
    truth: GroundTruth,
    path,
    per_day: int = 200,
    noise_sd: float = 0.05,
    seed: int = 0,
) -> None:
    """Write a score NDJSON whose daily means track the planted population
    prevalence of each emotion of the truth (independent noise per record,
    clipped to [0, 1])."""
    import numpy as np

    check_count("per_day", per_day, 1)
    check_noise("noise_sd", noise_sd)
    check_count("seed", seed, 0, high=None)
    emotions = truth.emotions
    rng = np.random.default_rng(seed)
    population = np.array([truth.population(e) for e in emotions]).T.tolist()
    names = [f'"{e}":' for e in emotions]
    with _open_text_out(path) as out:
        for day_idx, (day, values) in enumerate(zip(truth.dates(), population)):
            if noise_sd:
                noise = rng.normal(0.0, noise_sd, size=(per_day, len(emotions)))
                rows = np.clip(values + noise, 0.0, 1.0).tolist()
            else:
                rows = [values] * per_day
            date_part = f'"date":"{day.isoformat()}","scores":{{'
            lines = []
            for i, row in enumerate(rows):
                scores = ",".join([f"{name}{v!r}" for name, v in zip(names, row)])
                lines.append(f'{{"id":"s{day_idx}_{i}",{date_part}{scores}}}}}\n')
            out.write("".join(lines))
